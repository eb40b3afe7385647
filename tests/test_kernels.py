import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgrow.kernels import (
    KernelDomainError,
    ZeroRateError,
    additive_kernel,
    audit_assumptions,
    bda_residual,
    condensing_kernel,
    constant_kernel,
    kernel_from_spec,
    kernel_matrix,
    kernel_spec,
    separable_kernel,
)
from edgrow._expr import RateExpressionError, compile_rational

# Oracle: |log 8 + log 5 + log 5 - log 7 - log 7 - log 4| = log(50/49)
ADDITIVE_RESIDUAL_2_3 = math.log(50.0 / 49.0)


def test_eval_examples():
    assert constant_kernel()(5, 7) == 1.0
    assert condensing_kernel(3.0)(2, 9) == 2.5
    assert separable_kernel("k", "1")(3, 0) == 3.0
    assert additive_kernel(1.0, 2.0)(2, 3) == 10.0


def test_domain_errors():
    kernel = constant_kernel()
    with pytest.raises(KernelDomainError):
        kernel(0, 3)
    with pytest.raises(KernelDomainError):
        kernel(2, -1)
    with pytest.raises(KernelDomainError):
        kernel(np.array([1, 0]), np.array([0, 0]))


def test_eval_is_pure():
    kernel = condensing_kernel(3.0)
    first = kernel(17, 23)
    for _ in range(5):
        assert kernel(17, 23) == first


def test_terms_reproduce_closed_forms():
    # The factored terms must give exactly the closed-form rates.
    ks = np.arange(1, 41, dtype=float)[:, None]
    js = np.arange(0, 40, dtype=float)[None, :]
    shape = (40, 40)
    cases = [
        (constant_kernel(2.5), np.full(shape, 2.5)),
        (condensing_kernel(3.0), (1.0 + 3.0 / ks) * np.ones(shape)),
        (additive_kernel(0.3, 0.7), 0.3 * ks + 0.7 * (js + 1.0)),
    ]
    for kernel, expected in cases:
        assert np.array_equal(kernel_matrix(kernel, 40), expected), kernel.family
    assert [len(kernel.terms) for kernel, _ in cases] == [1, 1, 2]


def test_bda_residual_separable_vanishes():
    kernel = separable_kernel("k", "(j+1)/(j+2)")
    for k, l in [(1, 1), (2, 3), (4, 9), (30, 7)]:
        assert bda_residual(kernel, k, l) <= 1e-14


def test_bda_residual_constant():
    assert bda_residual(constant_kernel(), 4, 9) == 0.0


def test_bda_residual_additive_oracle():
    kernel = additive_kernel(1.0, 2.0)  # K(k, j) = k + 2(j+1)
    assert bda_residual(kernel, 2, 3) == pytest.approx(ADDITIVE_RESIDUAL_2_3, abs=1e-12)


@given(
    k=st.integers(min_value=1, max_value=60),
    l=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_bda_residual_swap_symmetric(k, l):
    kernel = additive_kernel(1.0, 2.0)
    assert bda_residual(kernel, k, l) == pytest.approx(bda_residual(kernel, l, k), abs=1e-13)


def test_bda_zero_rate_reported():
    kernel = separable_kernel("k - 1", "1")  # K(1, j) = 0
    with pytest.raises(ZeroRateError, match="zero-rate"):
        bda_residual(kernel, 2, 3)


def test_audit_constant():
    report = audit_assumptions(constant_kernel(), 100, 100)
    assert report.k1_ok and report.k2_ok and report.k4_ok
    assert report.bda_max_residual == 0.0
    assert report.zero_rate_pairs == 0
    assert report.probe_range == (100, 100)


def test_audit_condensing():
    report = audit_assumptions(condensing_kernel(3.0), 100, 100)
    assert report.k1_ok
    assert report.growth_constant == 4.0
    assert report.bda_max_residual <= 1e-14
    assert report.k4_ok
    assert report.k3_ratio_deviation < 1e-3


def test_audit_product_kernel_flags_linear_growth():
    report = audit_assumptions(separable_kernel("k", "j+1"), 100, 100)
    assert report.k1_ok
    assert not report.k4_ok  # donor factor grows linearly
    assert report.bda_max_residual <= 1e-13


def test_audit_additive_fails_bda():
    report = audit_assumptions(additive_kernel(1.0, 2.0), 100, 100)
    assert report.k1_ok
    assert report.bda_max_residual > 0.01


def test_audit_report_deterministic():
    kernel = condensing_kernel(3.0)
    a = audit_assumptions(kernel, 50, 60)
    b = audit_assumptions(kernel, 50, 60)
    assert a == b


def test_spec_round_trip():
    for spec in (
        {"family": "constant", "value": 2.0},
        {"family": "condensing", "c": 3.0},
        {"family": "separable", "b": "k", "a": "1"},
        {"family": "additive", "donor_coeff": 1.0, "acceptor_coeff": 2.0},
    ):
        kernel = kernel_from_spec(spec)
        again = kernel_from_spec(kernel_spec(kernel))
        assert kernel(3, 4) == again(3, 4)


def test_spec_rejects_unknown_family():
    with pytest.raises(RateExpressionError):
        kernel_from_spec({"family": "mystery"})


def test_vectorized_matches_scalar():
    kernel = separable_kernel("k^2/(k+1)", "1 + j")
    ks = np.array([1, 2, 5, 9])
    js = np.array([0, 3, 4, 8])
    grid = kernel(ks, js)
    for k, j, value in zip(ks, js, grid):
        assert value == pytest.approx(kernel(int(k), int(j)))


class TestRationalGrammar:
    def test_basic(self):
        f = compile_rational("1 + 3/k")
        assert f(np.array([3.0]))[0] == 2.0

    def test_powers_and_parens(self):
        f = compile_rational("(k+1)^2 / (2*k)")
        assert f(np.array([3.0]))[0] == pytest.approx(16.0 / 6.0)

    def test_unary_minus(self):
        f = compile_rational("-k + 4")
        assert f(np.array([1.0]))[0] == 3.0

    def test_rejects_code(self):
        with pytest.raises(RateExpressionError):
            compile_rational("__import__('os')")

    def test_rejects_non_integer_power(self):
        with pytest.raises(RateExpressionError):
            compile_rational("k^0.5")

    def test_rejects_unknown_symbol(self):
        with pytest.raises(RateExpressionError):
            compile_rational("x + 1")


@pytest.mark.parametrize(
    "family, key", [("condensing", "C"), ("separable", "growth_constant"), ("constant", "rate")]
)
def test_spec_rejects_unknown_key(family, key):
    with pytest.raises(RateExpressionError, match=repr(key)):
        kernel_from_spec({"family": family, key: 2.0})


# Sizes 0..64 (0 makes divisions produce inf and nan) and two large ones.
SIZES = np.concatenate([np.arange(65, dtype=float), [1e3, 1e6]])

PRECEDENCE = [
    ("-k^2", lambda x: -(x**2)),
    ("2^-1", lambda x: np.full_like(x, 2.0) ** -1),
    ("k/2/2", lambda x: x / 2.0 / 2.0),
    ("1 - k - 1", lambda x: 1.0 - x - 1.0),
    ("--k", lambda x: -(-x)),
    ("-" * 3001 + "k", lambda x: -x),
    ("k**+2", lambda x: x**2),
    ("k^02", lambda x: x**2),
    ("k^(2)", lambda x: x**2),
    ("k^(-1)", lambda x: x**-1),
    ("2*k^2/(k+1)^-1", lambda x: 2.0 * x**2 / (x + 1.0) ** -1),
    ("٣ + k", lambda x: 3.0 + x),  # numbers are read by float(), as Unicode digits
]


@pytest.mark.parametrize("text, expected", PRECEDENCE, ids=[t[:12] for t, _ in PRECEDENCE])
def test_precedence_and_associativity(text, expected):
    with np.errstate(all="ignore"):
        assert np.array_equal(compile_rational(text)(SIZES), expected(SIZES), equal_nan=True)


_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

rate_trees = st.recursive(
    st.one_of(
        st.just(("var",)),
        st.floats(min_value=0.0, max_value=1e6).map(lambda v: ("const", v)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(sorted(_OPS)), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("pow"), sub, st.integers(-3, 3), st.sampled_from(["^", "**"])),
    ),
    max_leaves=12,
)


def _show(tree) -> str:
    """The tree in the grammar, every operand in parentheses."""
    op = tree[0]
    if op == "var":
        return "k"
    if op == "const":
        return repr(tree[1])
    if op == "neg":
        return f"-({_show(tree[1])})"
    if op == "pow":
        return f"({_show(tree[1])}){tree[3]}{tree[2]}"
    return f"({_show(tree[1])}) {op} ({_show(tree[2])})"


def _direct(tree, x):
    op = tree[0]
    if op == "var":
        return x
    if op == "const":
        return np.full_like(x, tree[1])
    if op == "neg":
        return -_direct(tree[1], x)
    if op == "pow":
        return _direct(tree[1], x) ** tree[2]
    return _OPS[op](_direct(tree[1], x), _direct(tree[2], x))


@given(tree=rate_trees)
@settings(max_examples=200, deadline=None)
def test_printed_trees_compile_to_the_same_bits(tree):
    with np.errstate(all="ignore"):
        assert np.array_equal(
            compile_rational(_show(tree))(SIZES), _direct(tree, SIZES), equal_nan=True
        )


@pytest.mark.parametrize(
    "text",
    [
        "k#c", "1_0", "0x1", "True", "1j", "'k'", "k.real", "f(k)", "k[0]", "k^0.5",
        "(" * 5000 + "k" + ")" * 5000,
        "+".join(["k"] * 200_000),
    ],
    ids=lambda text: text[:12],
)
def test_rejects_python_only_spellings_and_deep_input(text):
    with pytest.raises(RateExpressionError):
        compile_rational(text)


def _at_stack_depth(extra_frames, fn):
    """``fn()`` called ``extra_frames`` frames below the current one."""
    if extra_frames == 0:
        return fn()
    return _at_stack_depth(extra_frames - 1, fn)


@pytest.mark.parametrize("extra_frames", [0, 300, 600])
def test_depth_cut_does_not_depend_on_the_caller_stack(extra_frames):
    # The documented cut: trees up to 100 levels deep are read and evaluated.
    chain = "+".join(["k"] * 100)
    nested = "-(" * 99 + "k" + ")" * 99
    exponent = "k^" + "-(" * 98 + "2" + ")" * 98

    def read_and_evaluate():
        assert np.array_equal(compile_rational(chain)(SIZES), 100.0 * SIZES)
        assert np.array_equal(compile_rational(nested)(SIZES), -SIZES)
        assert np.array_equal(compile_rational(exponent)(SIZES), SIZES**2)
        for deeper in (chain + "+k", "-(" + nested + ")", exponent.replace("^", "^-(") + ")"):
            with pytest.raises(RateExpressionError, match="deeper than 100"):
                compile_rational(deeper)

    _at_stack_depth(extra_frames, read_and_evaluate)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"family": "additive", "donor_coeff": math.nan}, "donor_coeff"),
        ({"family": "additive", "acceptor_coeff": -math.inf}, "acceptor_coeff"),
        ({"family": "constant", "value": math.inf}, "value"),
        ({"family": "separable", "b": math.nan}, "b"),
        ({"family": "condensing", "c": math.nan}, "c"),
        ({"family": "condensing", "c": 10**400}, "c"),
    ],
)
def test_non_finite_kernel_parameter_names_its_key(spec, key):
    with pytest.raises(RateExpressionError, match=rf"kernel\.{key} must be (a string or )?a finite number"):
        kernel_from_spec(spec)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"family": "constant", "value": True}, "value"),
        ({"family": "separable", "b": True}, "b"),
        ({"family": "separable", "a": False}, "a"),
        ({"family": "additive", "donor_coeff": "1.0"}, "donor_coeff"),
        ({"family": "condensing", "c": [3.0]}, "c"),
    ],
)
def test_kernel_parameter_of_the_wrong_type_names_its_key(spec, key):
    # A bool passed the numbers.Real check: "value": true ran as the rate 1.0
    # and a separable "b": true compiled to the constant 1.
    with pytest.raises(RateExpressionError, match=rf"kernel key '{key}' is "):
        kernel_from_spec(spec)


def test_separable_factors_take_an_expression_or_a_number():
    for b, a in (("k", "1"), (2, 0.5), ("1 + 3/k", 1)):
        kernel = kernel_from_spec({"family": "separable", "b": b, "a": a})
        assert kernel(2, 3) == separable_kernel(b, a)(2, 3)
        assert kernel_spec(kernel) == {"family": "separable", "b": str(b), "a": str(a)}
