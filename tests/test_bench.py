from __future__ import annotations

import pytest

from cfpq.bench import fit_polynomial, run_sweep


def test_sweep_needs_a_size_and_a_repeat(g0):
    with pytest.raises(ValueError, match="size range is empty"):
        run_sweep(g0, "g0", [])
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        run_sweep(g0, "g0", [2], repeats=0)


def test_fit_needs_as_many_distinct_x_values_as_powers():
    with pytest.raises(ValueError, match="needs as many distinct x values"):
        fit_polynomial([2, 2, 3], [1.0, 1.0, 2.0], [1, 2, 3])
