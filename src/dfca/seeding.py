"""Hierarchical seed derivation.

Every random stream in a run is derived from one master seed plus a label
path, e.g. ``derive_seed(master, "data", client_id)`` for one client's data,
or ``spawn_rng(round_seed, "sgd")`` for the key table that shuffles a round's
local SGD.  Changing one knob (say, the topology seed) therefore never
perturbs unrelated streams.
String labels are hashed with CRC-32, which is stable across platforms and
Python versions.
"""

from __future__ import annotations

import operator
import zlib

import numpy as np

__all__ = ["spawn_rng", "derive_seed"]


def _encode(part: int | str) -> int:
    """A string's CRC-32, or an integer part itself: a float or a bool is
    refused, not truncated, so ``2.5`` never reads as seed 2."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    try:
        if isinstance(part, bool):
            raise TypeError
        value = operator.index(part)
    except TypeError:
        raise ValueError(f"seed parts must be integers or strings, got {part!r}") from None
    if value < 0:
        raise ValueError(f"seed parts must be non-negative, got {value}")
    return value


def _seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """Build a SeedSequence from a label path of ints and strings."""
    if not parts:
        raise ValueError("at least one seed part is required")
    return np.random.SeedSequence([_encode(p) for p in parts])


def spawn_rng(*parts: int | str) -> np.random.Generator:
    """Generator for the stream identified by the label path."""
    return np.random.default_rng(_seed_sequence(*parts))


def derive_seed(*parts: int | str) -> int:
    """Collapse a label path to a single integer seed."""
    return int(_seed_sequence(*parts).generate_state(1, np.uint64)[0])
