"""Shared utilities: argument validation and deterministic RNG.

These helpers keep the numerical packages free of repetitive boilerplate and
enforce the conventions listed in DESIGN.md (float64 everywhere, explicit
``numpy.random.Generator`` seeding, no global RNG state).
"""

from repro.utils.validation import (
    check_axis,
    check_positive_int,
    check_rank,
    check_shape,
    require,
)
from repro.utils.rng import as_generator, spawn_generators

__all__ = [
    "check_axis",
    "check_positive_int",
    "check_rank",
    "check_shape",
    "require",
    "as_generator",
    "spawn_generators",
]
