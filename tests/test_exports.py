"""Every name a dfca module exports exists."""

import importlib
import pkgutil

import pytest

import dfca

MODULES = sorted(m.name for m in pkgutil.iter_modules(dfca.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dfca.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"dfca.{name}.__all__ lists {missing}, which the module does not define"


def test_stack_datasets_is_exported_next_to_dataset():
    from dfca import Dataset, stack_datasets

    assert (Dataset, stack_datasets) == (dfca.datagen.Dataset, dfca.datagen.stack_datasets)


def test_the_global_loss_is_defined_once():
    """``RoundMetrics.f_global`` is the one global loss; no function recomputes it."""
    assert not hasattr(dfca, "f_global") and not hasattr(dfca.metrics, "f_global")
