import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extrinsicq import jets
from extrinsicq.exprlang import ExprError, parse_expression, shared_memo
from extrinsicq.jets import SingularFieldError, jet_space, seed_variable
from helpers import assert_same_bits, count_series


def ev(text, variables, values, degree=2):
    sp = jet_space(max(len(values), 1), degree)
    if degree == 0:
        args = [jets.constant(sp, v) for v in values]
    else:
        args = [seed_variable(sp, k, v) for k, v in enumerate(values)]
    return parse_expression(text, variables)(args)


def test_column_names_read_as_their_literal_at_each_block_of_points():
    """A name bound to one number per point scales jets as a literal would:
    each block of points gets the bits of the text with its own literals,
    signed zeros included."""
    blocks, P = [(0.0, 0.0), (-0.13, 0.07), (0.19, -0.0)], 3
    pts = np.random.default_rng(3).uniform(0.0, 6.0, (2, P))
    sp = jet_space(2, 3)
    text = "exp(2*((c0)*(sin(x1)) + (c1)*(cos(x1)*x2)))*(1 + x2^2)"
    columns = dict(zip(("c0", "c1"), np.repeat(np.array(blocks).T, P, axis=1)))
    tiled = np.tile(pts, len(blocks))
    expr = parse_expression(text, ("x1", "x2"), columns)
    got = expr([seed_variable(sp, k, tiled[k]) for k in range(2)])
    for k, (a, b) in enumerate(blocks):
        literal = parse_expression(text.replace("c0", repr(a)).replace("c1", repr(b)), ("x1", "x2"))
        want = literal([seed_variable(sp, i, pts[i]) for i in range(2)])
        assert_same_bits(got.coeffs[:, k * P : (k + 1) * P], want.coeffs)


def test_arithmetic_and_precedence():
    assert ev("2 + 3 * 4^2", ("x",), (0.0,)).value == pytest.approx(50.0)
    assert ev("-x^2", ("x",), (3.0,)).value == pytest.approx(-9.0)
    assert ev("2 * -3 + x", ("x",), (1.0,)).value == pytest.approx(-5.0)
    assert ev("2 - -3", ("x",), (0.0,)).value == pytest.approx(5.0)
    assert ev("(2 + x) * (x - 1)", ("x",), (4.0,)).value == pytest.approx(18.0)
    assert ev("12 / 3 / 2", ("x",), (0.0,)).value == pytest.approx(2.0)


def test_functions_evaluate():
    v = ev("exp(sin(x1) * x2) + log(x2) - sqrt(x2) + cos(0)", ("x1", "x2"), (0.7, 2.0))
    want = math.exp(math.sin(0.7) * 2.0) + math.log(2.0) - math.sqrt(2.0) + 1.0
    assert v.value == pytest.approx(want, rel=1e-14)


def test_power_literals():
    assert ev("x1^-2", ("x1",), (2.0,)).value == pytest.approx(0.25)
    assert ev("x1^0.5", ("x1",), (4.0,)).value == pytest.approx(2.0)
    assert ev("x1^3", ("x1",), (-2.0,)).value == pytest.approx(-8.0)
    assert ev("x1 ^ 2.0", ("x1",), (3.0,)).value == pytest.approx(9.0)


def test_derivatives_through_expression():
    # d/dx1 exp(sin(x1) * x2) = x2 cos(x1) exp(sin(x1) x2)
    x1, x2 = 0.4, 1.3
    j = ev("exp(sin(x1) * x2)", ("x1", "x2"), (x1, x2), degree=3)
    want = x2 * math.cos(x1) * math.exp(math.sin(x1) * x2)
    assert j.extract((1, 0)) == pytest.approx(want, rel=1e-13)
    want2 = math.sin(x1) * math.exp(math.sin(x1) * x2)
    assert j.extract((0, 1)) == pytest.approx(want2, rel=1e-13)


def test_constant_expression_returns_constant_jet():
    j = ev("0", ("x1", "x2"), (1.0, 2.0))
    assert j.value == 0.0
    assert j.degree == 2
    j = ev("3 / 4 + 1", ("x1",), (0.0,))
    assert j.value == pytest.approx(1.75)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x1^x2", "numeric literal"),
        ("x1^2^3", "chained"),
        ("x1^(2)", "numeric literal"),
        ("y3 + 1", "unknown variable"),
        ("tan(x1)", "unknown function"),
        ("(x1 + 2", "unclosed"),
        ("x1 x2", "after a complete expression"),
        ("x1 @ 2", "unexpected character"),
        ("", "unexpected end"),
        ("x1 +", "unexpected end"),
        ("sin()", "unexpected"),
    ],
)
def test_parse_errors_are_positioned(text, fragment):
    with pytest.raises(ExprError) as err:
        parse_expression(text, ("x1", "x2"))
    assert fragment in str(err.value)
    assert "^" in str(err.value)  # caret marker line


def test_non_string_input_rejected():
    with pytest.raises(ExprError):
        parse_expression(1.5, ("x1",))


def test_eval_domain_error_names_expression():
    e = parse_expression("log(x1 - 2)", ("x1",))
    sp = jet_space(1, 2)
    with pytest.raises(SingularFieldError) as err:
        e([seed_variable(sp, 0, 1.0)])
    assert "log(x1 - 2)" in str(err.value)


def test_a_shared_memo_evaluates_each_distinct_subexpression_once(monkeypatch):
    sp = jet_space(2, 2)
    args = [seed_variable(sp, 0, np.array([0.3, -1.2])), seed_variable(sp, 1, 0.7)]
    texts = ["exp(2*(sin(x1)))*(1 + x2)", "exp(2*(sin(x1)))*(cos(x2))", "sin(x1)"]
    exprs = [parse_expression(t, ("x1", "x2")) for t in texts]
    memo = shared_memo(exprs)
    # slots only for what recurs: exp(2*(sin(x1))) and sin(x1), which the
    # third expression is; not 2*(sin(x1)), 1 + x2 or cos(x2)
    assert sorted(node[0] + node[1] for node in memo) == ["callexp", "callsin"]
    count = count_series(monkeypatch)
    shared = [e(args, memo) for e in exprs]
    assert count[0] == 3  # exp, sin and cos once each
    assert memo == {}  # each slot is freed at its last use
    count[0] = 0
    alone = [e(args) for e in exprs]
    assert count[0] == 6
    count[0] = 0
    parse_expression("sin(x1)*cos(x2) + 2*sin(x1)", ("x1", "x2"))(args)
    assert count[0] == 2  # a repeat within one expression is evaluated once too
    for got, want in zip(shared, alone):
        assert_same_bits(got.coeffs, want.coeffs)


def test_a_shared_memo_keeps_no_failed_subexpression():
    sp = jet_space(1, 2)
    args = [seed_variable(sp, 0, 1.0)]
    exprs = [parse_expression(t, ("x1",)) for t in ("1 + log(x1 - 2)", "2*log(x1 - 2)")]
    memo = shared_memo(exprs)
    assert len(memo) == 1
    for e in exprs:
        with pytest.raises(SingularFieldError, match=re.escape(f"evaluating '{e.text}'")):
            e(args, memo)
    # the slot keeps both its uses and no value
    assert list(memo.values()) == [(2, None)]


def test_eval_division_by_zero_constant():
    e = parse_expression("1 / 0", ("x1",))
    sp = jet_space(1, 2)
    with pytest.raises(SingularFieldError):
        e([seed_variable(sp, 0, 1.0)])


def test_wrong_argument_count():
    e = parse_expression("x1 + x2", ("x1", "x2"))
    sp = jet_space(2, 1)
    with pytest.raises(jets.JetError):
        e([seed_variable(sp, 0, 0.0)])


def test_batched_evaluation():
    e = parse_expression("sin(x1) * cos(x2)", ("x1", "x2"))
    sp = jet_space(2, 1)
    v1 = np.array([0.1, 0.5, 1.1])
    v2 = np.array([0.2, -0.3, 2.0])
    out = e([seed_variable(sp, 0, v1), seed_variable(sp, 1, v2)])
    np.testing.assert_allclose(out.value, np.sin(v1) * np.cos(v2), rtol=1e-14)


# ---- differential fuzz against Python's own evaluator ---------------------

_leaf = st.sampled_from(["x1", "x2", "0.5", "2", "1.25", "3"])
_func = st.sampled_from(["sin", "cos", "exp"])


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(sub, _func).map(lambda t: f"{t[1]}({t[0]})"),
        sub.map(lambda s: f"({s})^2"),
        sub.map(lambda s: f"-{s}"),
        # keep the denominator away from zero
        st.tuples(sub, _func, sub).map(lambda t: f"({t[0]} / (2.5 + {t[1]}({t[2]})))"),
    )


@settings(max_examples=60, deadline=None)
@given(_tree(3), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_fuzz_against_python_eval(text, v1, v2):
    got = ev(text, ("x1", "x2"), (v1, v2), degree=0).value
    ns = {"x1": v1, "x2": v2, "sin": math.sin, "cos": math.cos, "exp": math.exp}
    want = eval(text.replace("^", "**"), {"__builtins__": {}}, ns)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
