"""Properties pairing the factored O(N) paths with dense oracles.

Birth/death rates are checked against the dense rate table, dissipation
against a scalar loop over all reaction pairs that reads positivity of a
flux from the support of the kernel and the state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgrow.dynamics import ConcentrationProfile, birth_death_rates
from edgrow.kernels import (
    additive_kernel,
    condensing_kernel,
    constant_kernel,
    kernel_matrix,
    separable_kernel,
)
from edgrow.thermo import dissipation

KERNELS = {
    "constant": constant_kernel(2.0),
    "condensing": condensing_kernel(3.0),
    "separable": separable_kernel("k^2/(k+1)", "1 + j"),
    "separable, K(1, j) = 0": separable_kernel("k - 1", "1"),
    "additive": additive_kernel(1.0, 2.0),
}


@st.composite
def states_with_zero_runs(draw, max_n: int) -> np.ndarray:
    """Concentrations ``c_0..c_N`` over eight decades, alternating positive
    runs with runs of exact zeros."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    zero_first = draw(st.booleans())
    c = rng.random(n + 1) * 10.0 ** rng.uniform(-8.0, 0.0, size=n + 1)
    runs = rng.integers(1, 12, size=n + 1)
    kept = np.repeat(np.arange(n + 1) % 2 == int(zero_first), runs)[: n + 1]
    return c * kept


@given(name=st.sampled_from(sorted(KERNELS)), c=states_with_zero_runs(300))
@settings(max_examples=150, deadline=None)
def test_factored_rates_match_dense_oracle(name, c):
    kernel = KERNELS[name]
    table = kernel_matrix(kernel, len(c) - 1)
    rates = birth_death_rates(kernel, ConcentrationProfile(c))
    for fast, dense in ((rates.a, table.T @ c[1:]), (rates.b, table @ c[:-1])):
        assert np.all(np.abs(fast - dense) <= 1e-12 * np.abs(dense))


def brute_force_dissipation(kernel, c) -> tuple:
    """``(infinite_terms, finite_part)`` by a loop over ordered pairs ``(k, l)``."""
    n = len(c) - 1
    infinite_terms = 0
    finite_part = 0.0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            rate_f = kernel(k, l - 1)
            rate_b = kernel(l, k - 1)
            pos_f = rate_f > 0.0 and c[k] > 0.0 and c[l - 1] > 0.0
            pos_b = rate_b > 0.0 and c[l] > 0.0 and c[k - 1] > 0.0
            if pos_f != pos_b:
                infinite_terms += 1
            elif pos_f:
                x = rate_f * c[k] * c[l - 1]
                y = rate_b * c[l] * c[k - 1]
                log_x = math.log(rate_f) + math.log(c[k]) + math.log(c[l - 1])
                log_y = math.log(rate_b) + math.log(c[l]) + math.log(c[k - 1])
                finite_part += 0.5 * (x - y) * (log_x - log_y)
    return infinite_terms, finite_part


@given(name=st.sampled_from(sorted(KERNELS)), c=states_with_zero_runs(24))
@settings(max_examples=100, deadline=None)
def test_dissipation_matches_pair_loop(name, c):
    kernel = KERNELS[name]
    result = dissipation(kernel, ConcentrationProfile(c))
    infinite_terms, finite_part = brute_force_dissipation(kernel, c)
    assert result.infinite_terms == infinite_terms
    assert result.finite_part == pytest.approx(finite_part, rel=1e-9, abs=1e-14)
    assert math.isinf(result.value) == (infinite_terms > 0)
