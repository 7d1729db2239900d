import re

import numpy as np
import pytest

from dfca.seeding import derive_seed, spawn_rng


@pytest.mark.parametrize("part", [2.5, np.float64(3.9), 2.0, True, np.True_, None], ids=repr)
def test_a_part_that_is_not_an_integer_is_refused_by_name(part):
    """A float or a bool used to be truncated, so ``derive_seed(0, 2.5)``
    read the stream of seed 2."""
    with pytest.raises(ValueError, match=re.escape(f"got {part!r}")):
        derive_seed(0, part)
    with pytest.raises(ValueError, match=re.escape(f"got {part!r}")):
        spawn_rng(part, "sgd")


def test_numpy_integers_name_the_stream_of_the_same_int():
    assert derive_seed(np.int64(7), "data", np.uint8(3)) == derive_seed(7, "data", 3)


def test_a_negative_part_is_refused():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        derive_seed(0, -1)


def test_no_parts_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        derive_seed()
