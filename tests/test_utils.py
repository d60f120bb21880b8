"""Validation and RNG utilities."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_axis,
    check_positive_int,
    check_rank,
    check_same_length,
    check_shape,
    require,
)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_positive_int_accepts_numpy_scalars(self):
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True, None])
    def test_positive_int_rejects(self, bad):
        with pytest.raises((TypeError, ValueError)):
            check_positive_int(bad, "x")

    def test_positive_int_accepts_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_shape(self):
        assert check_shape([3, 4]) == (3, 4)
        with pytest.raises(ValueError):
            check_shape([3, 0])
        with pytest.raises(ValueError, match="at least"):
            check_shape([3], min_modes=2)

    def test_axis(self):
        assert check_axis(-1, 3) == 2
        assert check_axis(0, 3) == 0
        with pytest.raises(ValueError):
            check_axis(3, 3)
        with pytest.raises(TypeError):
            check_axis(True, 3)

    def test_rank(self):
        assert check_rank(8) == 8
        with pytest.raises(ValueError):
            check_rank(0)

    def test_same_length(self):
        check_same_length([1], [2], "pair")
        with pytest.raises(ValueError, match="pair"):
            check_same_length([1], [2, 3], "pair")


class TestRng:
    def test_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_reproducible(self):
        assert as_generator(7).random() == as_generator(7).random()

    def test_none_works(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independent(self):
        children = spawn_generators(3, count=4)
        draws = [g.random() for g in children]
        assert len(set(draws)) == 4

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_generators(3, count=2)]
        b = [g.random() for g in spawn_generators(3, count=2)]
        assert a == b

    def test_spawn_from_generator(self):
        children = spawn_generators(np.random.default_rng(1), count=2)
        assert len(children) == 2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, count=-1)
