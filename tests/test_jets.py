import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from extrinsicq import jets
from extrinsicq.jets import (
    DegreeExhaustedError,
    Jet,
    JetError,
    SingularFieldError,
    compose,
    constant,
    jet_space,
    seed_variable,
)
from helpers import (
    assert_same_bits,
    dot,
    dot_rows,
    fd_rate,
    poly_derivative_value,
    poly_eval,
    poly_jet,
    poly_mul,
    poly_random,
    poly_substitute,
    reference_compose,
    reference_dot,
    reference_layered,
    reference_series,
    reference_substitute,
)


def test_space_layout_graded_prefix():
    sp = jet_space(3, 4)
    degs = [sum(a) for a in sp.mi]
    assert degs == sorted(degs)
    assert sp.ncoeffs == math.comb(4 + 3, 3)
    lo = jet_space(3, 2)
    assert sp.mi[: lo.ncoeffs] == lo.mi
    assert sp.prefix_count(2) == lo.ncoeffs


def test_spaces_are_shared():
    assert jet_space(2, 3) is jet_space(2, 3)


@pytest.mark.parametrize("nvars,degree", [(0, 3), (7, 3), (2, -1), (2, 9)])
def test_space_bounds_rejected(nvars, degree):
    with pytest.raises(JetError):
        jet_space(nvars, degree)


def test_seed_variable_and_extract():
    sp = jet_space(2, 3)
    x = seed_variable(sp, 0, 0.7)
    assert x.value == pytest.approx(0.7)
    assert x.extract((1, 0)) == pytest.approx(1.0)
    assert x.extract((0, 1)) == 0.0
    assert x.extract((2, 0)) == 0.0


@pytest.mark.parametrize("nvars,degree", [(1, 5), (2, 4), (3, 4), (4, 3), (5, 2), (6, 2)])
def test_polynomial_derivatives_exact(nvars, degree):
    rng = np.random.default_rng(11 * nvars + degree)
    p = poly_random(rng, nvars, degree)
    point = tuple(Fraction(int(rng.integers(-3, 4)), 5) for _ in range(nvars))
    sp = jet_space(nvars, degree)
    j = poly_jet(p, sp, point)
    for beta in sp.mi:
        want = float(poly_derivative_value(p, beta, point))
        assert j.extract(beta) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_product_matches_symbolic_product():
    rng = np.random.default_rng(5)
    p = poly_random(rng, 3, 2)
    q = poly_random(rng, 3, 2)
    point = (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))
    sp = jet_space(3, 4)
    got = poly_jet(p, sp, point) * poly_jet(q, sp, point)
    want = poly_jet(poly_mul(p, q), sp, point)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-11, atol=1e-12)


def test_operations_truncate_to_min_degree():
    a = seed_variable(jet_space(2, 4), 0, 0.3)
    b = seed_variable(jet_space(2, 2), 1, -1.2)
    assert (a * b).degree == 2
    assert (a + b).degree == 2
    assert (a - b).degree == 2
    assert (a / b).degree == 2


def test_truncate_is_prefix_and_rejects_extension():
    sp = jet_space(3, 4)
    rng = np.random.default_rng(0)
    a = Jet(sp, rng.normal(size=sp.ncoeffs))
    t = a.truncate(2)
    np.testing.assert_array_equal(t.coeffs, a.coeffs[: jet_space(3, 2).ncoeffs])
    with pytest.raises(DegreeExhaustedError):
        t.truncate(3)


def test_exp_derivatives_all_equal_value():
    x = seed_variable(jet_space(1, 6), 0, 0.4)
    j = jets.exp(x)
    for k in range(7):
        assert j.extract((k,)) == pytest.approx(math.exp(0.4), rel=1e-12)


def test_log_derivatives_closed_form():
    x0 = 1.7
    j = jets.log(seed_variable(jet_space(1, 6), 0, x0))
    assert j.value == pytest.approx(math.log(x0))
    for k in range(1, 7):
        want = (-1.0) ** (k - 1) * math.factorial(k - 1) / x0**k
        assert j.extract((k,)) == pytest.approx(want, rel=1e-12)


def test_sin_cos_derivative_cycle():
    x0 = 0.9
    sp = jet_space(1, 8)
    s = jets.sin(seed_variable(sp, 0, x0))
    c = jets.cos(seed_variable(sp, 0, x0))
    table = [math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)]
    for k in range(9):
        assert s.extract((k,)) == pytest.approx(table[k % 4], abs=1e-12)
        assert c.extract((k,)) == pytest.approx(table[(k + 1) % 4], abs=1e-12)


def test_sin_sq_plus_cos_sq_is_one():
    x = seed_variable(jet_space(1, 8), 0, 2.3)
    one = jets.sin(x) * jets.sin(x) + jets.cos(x) * jets.cos(x)
    want = np.zeros(one.space.ncoeffs)
    want[0] = 1.0
    np.testing.assert_allclose(one.coeffs, want, atol=1e-14)


def test_log_exp_roundtrip():
    sp = jet_space(2, 5)
    rng = np.random.default_rng(3)
    a = Jet(sp, rng.normal(size=sp.ncoeffs) * 0.3)
    np.testing.assert_allclose(jets.log(jets.exp(a)).coeffs, a.coeffs, atol=1e-10)


def test_sqrt_squares_back():
    sp = jet_space(2, 5)
    rng = np.random.default_rng(4)
    a = Jet(sp, rng.normal(size=sp.ncoeffs) * 0.2)
    a.coeffs[0] = 1.5
    r = jets.sqrt(a)
    np.testing.assert_allclose((r * r).coeffs, a.coeffs, rtol=1e-12, atol=1e-13)


def test_recip_multiplies_to_one():
    sp = jet_space(3, 4)
    rng = np.random.default_rng(6)
    a = Jet(sp, rng.normal(size=sp.ncoeffs) * 0.4)
    a.coeffs[0] = -2.1
    one = a * jets.recip(a)
    want = np.zeros(sp.ncoeffs)
    want[0] = 1.0
    np.testing.assert_allclose(one.coeffs, want, atol=1e-13)


def test_powi_matches_repeated_product():
    sp = jet_space(2, 4)
    rng = np.random.default_rng(8)
    a = Jet(sp, rng.normal(size=sp.ncoeffs) * 0.5)
    a.coeffs[0] = 1.3
    np.testing.assert_allclose(jets.powi(a, 3).coeffs, (a * a * a).coeffs, rtol=1e-12, atol=1e-13)
    inv2 = jets.powi(a, -2)
    one = inv2 * a * a
    want = np.zeros(sp.ncoeffs)
    want[0] = 1.0
    np.testing.assert_allclose(one.coeffs, want, atol=1e-12)
    assert jets.powi(a, 0).value == 1.0


def test_powf_matches_exp_log():
    sp = jet_space(2, 4)
    rng = np.random.default_rng(12)
    a = Jet(sp, rng.normal(size=sp.ncoeffs) * 0.3)
    a.coeffs[0] = 2.4
    got = jets.powf(a, 1.5)
    want = jets.exp(1.5 * jets.log(a))
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-11, atol=1e-12)


def test_fd_convergence_is_second_order():
    # the acceptance-level sanity check: a jet first derivative of a nested
    # elementary expression agrees with central differences at rate ~2
    def f(x):
        return math.exp(math.sin(2.0 * x) + math.cos(x) ** 2)

    x0 = 0.37
    x = seed_variable(jet_space(1, 3), 0, x0)
    j = jets.exp(jets.sin(2.0 * x) + jets.cos(x) * jets.cos(x))
    rate = fd_rate(f, j.extract((1,)), x0, h0=1e-2)
    assert 1.8 <= rate <= 2.2


def test_compose_matches_symbolic_substitution():
    rng = np.random.default_rng(7)
    P = poly_random(rng, 2, 3)
    b1 = poly_random(rng, 3, 2)
    b2 = poly_random(rng, 3, 2)
    point = (Fraction(1, 4), Fraction(-1, 3), Fraction(2, 5))
    y0 = (poly_eval(b1, point), poly_eval(b2, point))
    inner_sp = jet_space(3, 4)
    outer_sp = jet_space(2, 4)
    (got,) = compose(
        [poly_jet(P, outer_sp, y0)],
        [poly_jet(b1, inner_sp, point), poly_jet(b2, inner_sp, point)],
    )
    want = poly_jet(poly_substitute(P, [b1, b2]), inner_sp, point)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-11, atol=1e-11)


def test_compose_truncates_to_min_degree():
    inner_sp = jet_space(2, 2)
    outer_sp = jet_space(1, 5)
    y = seed_variable(inner_sp, 0, 0.2) * seed_variable(inner_sp, 1, 0.5)
    outer = jets.exp(seed_variable(outer_sp, 0, float(y.value)))
    assert compose([outer], [y])[0].degree == 2


def test_compose_degree_zero_is_value_extraction():
    inner_sp = jet_space(3, 0)
    outer_sp = jet_space(2, 3)
    y0 = (1.2, -0.4)
    outer = jets.sin(seed_variable(outer_sp, 0, y0[0])) * seed_variable(outer_sp, 1, y0[1])
    args = [constant(inner_sp, y0[0]), constant(inner_sp, y0[1])]
    (out,) = compose([outer], args)
    assert out.degree == 0
    assert out.value == pytest.approx(math.sin(1.2) * -0.4)


def _check_batched_matches_pointwise_loop(nvars, degree, batch, seed):
    rng = np.random.default_rng(seed)
    sp = jet_space(nvars, degree)
    vals = [rng.uniform(0.5, 2.0, size=batch)]
    vals += [rng.uniform(-1.0, 1.0, size=batch) for _ in range(nvars - 1)]

    def f(xs):
        x, y = xs[0], xs[1]
        for z in xs[2:]:
            y = y * z
        return jets.sqrt(x) * jets.sin(y) + jets.exp(x * y) / x

    got = f([seed_variable(sp, k, vals[k]) for k in range(nvars)])
    assert got.batch == batch
    for b in range(batch):
        want = f([seed_variable(sp, k, vals[k][b]) for k in range(nvars)])
        np.testing.assert_allclose(got.coeffs[:, b], want.coeffs, rtol=1e-12, atol=1e-14)


def test_batched_matches_pointwise_loop():
    _check_batched_matches_pointwise_loop(2, 4, 8, 9)


@pytest.mark.parametrize("nvars,degree", [(2, 4), (5, 3)])
def test_large_batch_matches_pointwise_loop(nvars, degree):
    _check_batched_matches_pointwise_loop(nvars, degree, 353, 19 + nvars)


def test_mixed_batch_operands_lift():
    sp = jet_space(2, 3)
    xb = seed_variable(sp, 0, np.array([0.1, 0.2, 0.3]))
    c = constant(sp, 2.0)
    out = xb * c + 1.0
    assert out.batch == 3
    np.testing.assert_allclose(out.value, np.array([1.2, 1.4, 1.6]))


def test_batched_compose_matches_loop():
    rng = np.random.default_rng(10)
    inner_sp = jet_space(2, 3)
    outer_sp = jet_space(2, 3)
    v = rng.uniform(-0.5, 0.5, size=(2, 5))
    ix = seed_variable(inner_sp, 0, v[0])
    iy = seed_variable(inner_sp, 1, v[1])
    a1 = ix * iy + 0.3
    a2 = ix + iy * iy
    outer = jets.sin(seed_variable(outer_sp, 0, a1.value)) + jets.exp(
        seed_variable(outer_sp, 1, a2.value)
    )
    (got,) = compose([outer], [a1, a2])
    for b in range(5):
        xb = seed_variable(inner_sp, 0, v[0, b])
        yb = seed_variable(inner_sp, 1, v[1, b])
        a1b = xb * yb + 0.3
        a2b = xb + yb * yb
        outb = jets.sin(seed_variable(outer_sp, 0, float(a1b.value))) + jets.exp(
            seed_variable(outer_sp, 1, float(a2b.value))
        )
        np.testing.assert_allclose(
            got.coeffs[:, b], compose([outb], [a1b, a2b])[0].coeffs, rtol=1e-12, atol=1e-13
        )


def _random_jet(rng, space, batch, zero_every=0):
    shape = (space.ncoeffs,) if batch is None else (space.ncoeffs, batch)
    c = rng.standard_normal(shape)
    if zero_every:
        c[1::zero_every] = 0.0  # some monomials no outer uses
    return Jet(space, c)


@pytest.mark.parametrize("batch", [None, 6])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_compose_stack_is_bit_identical_to_single_outers(degree, batch):
    rng = np.random.default_rng(40 + degree)
    # inner degree 4 truncated to the outers' degree, then the reverse
    for outer_deg, inner_deg in ((degree, 4), (4, degree)):
        outer_sp, inner_sp = jet_space(3, outer_deg), jet_space(2, inner_deg)
        outers = [_random_jet(rng, outer_sp, batch) for _ in range(3)]
        outers += [_random_jet(rng, outer_sp, None, zero_every=2)]
        outers += [constant(outer_sp, 0.7), _random_jet(rng, outer_sp, batch, zero_every=3)]
        args = [_random_jet(rng, inner_sp, batch) for _ in range(3)]
        got = compose(outers, args)
        assert len(got) == len(outers)
        for outer, g in zip(outers, got):
            want = reference_compose(outer, args).coeffs
            assert g.degree == degree
            if batch is not None:  # an unbatched reference stands for every point
                want = np.broadcast_to(want.reshape(len(want), -1), g.coeffs.shape)
            np.testing.assert_array_equal(g.coeffs, want)
            assert (g.batch is None) == (batch is None)


def test_compose_rejects_outers_in_different_spaces():
    x = seed_variable(jet_space(1, 2), 0, 0.3)
    with pytest.raises(JetError, match="single jet space"):
        compose([x, x.truncate(1)], [seed_variable(jet_space(2, 2), 0, 0.3)])


SERIES_FUNCTIONS = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "powf": lambda a: jets.powf(a, -1.7),
    "recip": jets.recip,
}


@pytest.mark.parametrize("batch", [None, 1, 9, 300])
@pytest.mark.parametrize("degree", [0, 1, 2, 4, 6, 8])
@pytest.mark.parametrize("name", sorted(SERIES_FUNCTIONS))
def test_series_match_horner(name, degree, batch, monkeypatch):
    rng = np.random.default_rng(degree)
    sp = jet_space(2, degree)
    a = _random_jet(rng, sp, batch)
    a.coeffs[0] = rng.uniform(0.3, 2.5, size=a.coeffs[0].shape)
    got = SERIES_FUNCTIONS[name](a)
    monkeypatch.setattr(jets, "_series", reference_series)
    want = SERIES_FUNCTIONS[name](a)
    assert got.coeffs.shape == want.coeffs.shape
    # relative to each point's largest coefficient
    err = np.abs(got.coeffs - want.coeffs) / np.max(np.abs(want.coeffs), axis=0)
    assert np.max(err) <= 1e-14


def test_partial_of_degree_zero_raises():
    a = constant(jet_space(2, 0), 1.0)
    with pytest.raises(DegreeExhaustedError):
        a.partial(0)


def test_extract_beyond_degree_raises():
    x = seed_variable(jet_space(2, 2), 0, 0.0)
    with pytest.raises(DegreeExhaustedError):
        x.extract((2, 1))


def test_bad_multi_index_raises():
    x = seed_variable(jet_space(2, 2), 0, 0.0)
    with pytest.raises(JetError):
        x.extract((1,))
    with pytest.raises(JetError):
        x.extract((-1, 0))


def test_batch_mismatch_raises():
    sp = jet_space(2, 2)
    a = seed_variable(sp, 0, np.zeros(3))
    b = seed_variable(sp, 1, np.zeros(4))
    with pytest.raises(JetError):
        a + b


def test_nvars_mismatch_raises():
    a = seed_variable(jet_space(2, 2), 0, 0.0)
    b = seed_variable(jet_space(3, 2), 0, 0.0)
    with pytest.raises(JetError):
        a * b


def test_domain_errors():
    x = seed_variable(jet_space(1, 3), 0, -1.0)
    with pytest.raises(SingularFieldError):
        jets.log(x)
    with pytest.raises(SingularFieldError):
        jets.sqrt(x)
    zero = constant(jet_space(1, 3), 0.0)
    with pytest.raises(SingularFieldError):
        jets.recip(zero)
    with pytest.raises(SingularFieldError):
        x / 0.0


def test_seed_variable_rejects_degree_zero():
    with pytest.raises(JetError):
        seed_variable(jet_space(2, 0), 0, 1.0)


def test_partial_bad_variable_raises():
    x = seed_variable(jet_space(2, 2), 0, 0.0)
    with pytest.raises(JetError):
        x.partial(2)


# ---- Cauchy product kernels -------------------------------------------------

LAYERED = jets._LAYERED_MIN_BATCH
KERNEL_BATCHES = (8, LAYERED, 353)  # 353: a 2401-point grid's tail chunk


def _reduceat_by_columns(space, ca, cb, width=16):
    """The reduceat kernel applied a few columns at a time, so its (pairs,
    batch) temporaries stay small even at six variables and degree 8."""
    batch = max(ca.shape[1], cb.shape[1])
    cols = []
    for lo in range(0, batch, width):
        s = slice(lo, lo + width)
        x = ca if ca.shape[1] == 1 else ca[:, s]
        y = cb if cb.shape[1] == 1 else cb[:, s]
        cols.append(jets._cauchy_reduceat(space, x, y))
    return np.hstack(cols)


def test_mul_table_layers_hold_every_pair_once():
    """The first pair of every target, (0, k), plus the layers' pairs are
    exactly the truncated product's pairs, each once; every layer is a block
    of accumulator rows inside the one before it."""
    for nvars, degree in [(1, 4), (3, 3), (5, 3), (4, 6), (6, 1), (2, 0)]:
        sp = jet_space(nvars, degree)
        want = {
            (i, j, sp.index[tuple(x + y for x, y in zip(a, b))])
            for i, a in enumerate(sp.mi)
            for j, b in enumerate(sp.mi)
            if sum(a) + sum(b) <= degree
        }
        _, _, _, layers, order = sp.mul_table()
        perm = np.arange(sp.ncoeffs) if order is None else order[0]
        assert sorted(perm.tolist()) == list(range(sp.ncoeffs))
        if order is not None:
            assert np.array_equal(perm[order[1]], np.arange(sp.ncoeffs))
        assert (order is None) == (degree <= 1 or nvars == 1)
        entries = [(0, k, k) for k in range(sp.ncoeffs)]
        prev = 0
        for lo, Ir, Jr in layers:
            assert prev <= lo < sp.ncoeffs and Ir.size == Jr.size == sp.ncoeffs - lo
            prev = lo
            entries += zip(Ir.tolist(), Jr.tolist(), perm[lo:].tolist())
        assert len(entries) == len(want)
        assert set(entries) == want


@pytest.mark.parametrize("batch", KERNEL_BATCHES)
@pytest.mark.parametrize("degree", range(jets.MAX_DEGREE + 1))
@pytest.mark.parametrize("nvars", range(1, jets.MAX_NVARS + 1))
def test_product_kernels_agree(nvars, degree, batch):
    """Both kernels, every space, both sides of the switch, mixed operands.

    The layered and reduceat kernels may round a target's sum differently,
    so they are compared to 1e-14 of the sum of the absolute terms, the
    scale of that rounding."""
    sp = jet_space(nvars, degree)
    rng = np.random.default_rng(1000 * nvars + 10 * degree + batch)
    ca = rng.standard_normal((sp.ncoeffs, batch))
    cb = rng.standard_normal((sp.ncoeffs, batch))
    kernel = jets._cauchy_layered if batch >= LAYERED else jets._cauchy_reduceat
    for x, y in [(ca, cb), (ca[:, :1], cb), (ca, cb[:, :1])]:
        a = Jet(sp, x[:, 0] if x.shape[1] == 1 else x)
        b = Jet(sp, y[:, 0] if y.shape[1] == 1 else y)
        got = (a * b).coeffs
        assert got.shape == (sp.ncoeffs, batch)
        assert np.array_equal(got, kernel(sp, x, y))
        want = _reduceat_by_columns(sp, x, y)
        scale = _reduceat_by_columns(sp, np.abs(x), np.abs(y))
        assert np.all(np.abs(jets._cauchy_layered(sp, x, y) - want) <= 1e-14 * scale)


def _wide_range(rng, shape):
    """Coefficients over twelve decades, so that any other order of summation
    shows, with some signed zeros."""
    c = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    c[rng.random(shape) < 0.1] = -0.0
    return c


@pytest.mark.parametrize("batch", [1, LAYERED, 353, 1024])
@pytest.mark.parametrize("degree", range(jets.MAX_DEGREE + 1))
@pytest.mark.parametrize("nvars", range(1, jets.MAX_NVARS + 1))
def test_layered_kernel_is_bit_identical_to_the_scatter_layers(nvars, degree, batch):
    """Same pairs, same order of addition: equal values and sign bits, with
    one-column operands on either side."""
    sp = jet_space(nvars, degree)
    rng = np.random.default_rng(1000 * nvars + 10 * degree + batch)
    ca, cb = (_wide_range(rng, (sp.ncoeffs, batch)) for _ in range(2))
    for x, y in [(ca, cb), (ca[:, :1], cb), (ca, cb[:, :1])]:
        assert_same_bits(jets._cauchy_layered(sp, x, y), reference_layered(sp, x, y))


@pytest.mark.parametrize("batch", [None, 1, LAYERED - 1, LAYERED, LAYERED + 1])
def test_product_switches_kernel_at_threshold(batch):
    sp = jet_space(5, 3)
    rng = np.random.default_rng(7)
    shape = (sp.ncoeffs,) if batch is None else (sp.ncoeffs, batch)
    a = Jet(sp, rng.standard_normal(shape))
    b = Jet(sp, rng.standard_normal(shape))
    ca, cb = jets._align(a.coeffs, b.coeffs)
    large = batch is not None and batch >= LAYERED
    kernel = jets._cauchy_layered if large else jets._cauchy_reduceat
    assert np.array_equal((a * b).coeffs, kernel(sp, ca, cb))


def _dot_operand(rng, nvars, degree, batch):
    shape = (jet_space(nvars, degree).ncoeffs,) + (() if batch is None else (batch,))
    return Jet(jet_space(nvars, degree), _wide_range(rng, shape))


def _signs(m):
    """The sign patterns of m terms: all +, all -, alternating, and mixed
    (every third term +)."""
    return [[False] * m, [True] * m, [t % 2 == 1 for t in range(m)], [t % 3 != 0 for t in range(m)]]


def _sign_patterns(rng, rows):
    """(rows, negate) for each of ``_signs``; under the mixed pattern every
    row's first negated x is an all-zero operand with -0 in its value row."""
    *plain, mixed = _signs(len(rows[0][0]))
    for negate in plain:
        yield rows, negate

    def zero(x):
        c = np.where(rng.random(x.coeffs.shape) < 0.5, 0.0, -0.0)
        c.flat[0] = -0.0
        return Jet(x.space, c)

    t = mixed.index(True)
    yield [(xs[:t] + [zero(xs[t])] + xs[t + 1 :], ys, s) for xs, ys, s in rows], mixed


def _reference_signed_dot(xs, ys, start, negate):
    """The loop of products and additions with the xs marked in ``negate``
    (None for none) negated by hand."""
    negate = negate or [False] * len(xs)
    return reference_dot([-x if s else x for x, s in zip(xs, negate, strict=True)], ys, start)


@pytest.mark.parametrize("batch", [None, 1, 8, 9, LAYERED - 1, LAYERED, 1024])
@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("nvars", range(1, 6))
def test_dot_is_bit_identical_to_the_loop(nvars, degree, batch):
    rng = np.random.default_rng(100 * nvars + 10 * degree + (batch or 0))
    # more terms than one reduceat stacks below the layered threshold
    m = 16 if batch is None or batch < LAYERED else 3
    uniform = [[_dot_operand(rng, nvars, degree, batch) for _ in range(m)] for _ in range(2)]
    # every third x and every second y unbatched, so some terms are both, and
    # every second operand a degree deeper
    mixed = [
        [_dot_operand(rng, nvars, degree + i % 2, None if i % p == 0 else batch) for i in range(m)]
        for p in (3, 2)
    ]
    # no start, one at the operands' batch and an unbatched one
    starts = [None] + [_dot_operand(rng, nvars, degree + 2, b) for b in {batch: 0, None: 0}]
    # every sign pattern against the loop with those xs negated by hand
    for (xs0, ys), start in itertools.product((uniform, mixed), starts):
        for [(xs, _, _)], negate in _sign_patterns(rng, [(xs0, ys, start)]):
            got = dot(xs, ys, start, negate)
            want = _reference_signed_dot(xs, ys, start, negate)
            assert got.degree == degree and got.batch == want.batch
            assert_same_bits(got.coeffs, want.coeffs)


@pytest.mark.parametrize("batch", [None, 1, 8])
def test_dot_negates_eight_terms_of_one_coefficient(batch):
    """Degree-0 rows of eight terms: in the stacked layout one term's
    coefficients are eight values apart, the stride at which numpy 2.4's
    in-place np.negative of a strided view reads the wrong elements."""
    rng = np.random.default_rng(8)
    rows = [
        ([_dot_operand(rng, 3, 0, batch) for _ in range(8)],
         [_dot_operand(rng, 3, 0, batch) for _ in range(8)], None)
        for _ in range(3)
    ]
    for negate in _signs(8):
        for g, (xs, ys, _) in zip(dot_rows(rows, negate), rows, strict=True):
            assert_same_bits(g.coeffs, _reference_signed_dot(xs, ys, None, negate).coeffs)


def test_dot_rejects_mismatched_operands():
    a = seed_variable(jet_space(2, 2), 0, 0.3)
    b = seed_variable(jet_space(3, 2), 0, 0.3)
    with pytest.raises(JetError, match="different variables"):
        dot([a], [b])
    with pytest.raises(JetError, match="different variables"):
        dot([a], [a], start=b)
    p, q = Jet(a.space, np.ones((a.space.ncoeffs, 4))), Jet(a.space, np.ones((a.space.ncoeffs, 5)))
    with pytest.raises(JetError, match="batch sizes differ"):
        dot([p, a], [a, q])
    with pytest.raises(JetError, match="batch sizes differ"):
        dot([p], [p], start=q)
    with pytest.raises(JetError, match="as many xs as ys"):
        dot([a, a], [a])
    with pytest.raises(JetError, match="as many xs as ys"):
        dot([], [])


def _dot_rows_operands(rng, nvars, degree, batch, count, mixed, starts, m=4):
    """``count`` rows of m terms.  ``mixed``: every third x and every second y
    unbatched, every second operand a degree deeper, and the last row a
    degree deeper throughout.  ``starts``: "none", "all", or "some" (every
    second row, alternately batched and unbatched)."""
    rows = []
    for r in range(count):
        base = degree + (mixed and r == count - 1 and count > 1)

        def operand(i, p):
            deeper = mixed and (i + r) % 2
            return _dot_operand(rng, nvars, base + deeper, None if mixed and i % p == 0 else batch)

        xs = [operand(i, 3) for i in range(m)]
        ys = [operand(i, 2) for i in range(m)]
        start = None
        if starts == "all" or (starts == "some" and r % 2):
            start = _dot_operand(rng, nvars, base + 2, None if r % 4 == 3 else batch)
        rows.append((xs, ys, start))
    return rows


def _assert_rows_match_dot_loop(rng, rows):
    """The rows of one ``dot_rows`` call under each of ``_sign_patterns``,
    against the loop row by row."""
    for signed, negate in _sign_patterns(rng, rows):
        got = dot_rows(iter(signed), negate)
        assert len(got) == len(signed)
        for g, (xs, ys, start) in zip(got, signed):
            want = _reference_signed_dot(xs, ys, start, negate)
            assert g.degree == want.degree and g.batch == want.batch
            assert_same_bits(g.coeffs, want.coeffs)


@pytest.mark.parametrize("batch", [None, 1, 9, LAYERED - 1, LAYERED, 1024])
@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("nvars", range(1, 6))
def test_dot_rows_is_bit_identical_to_the_loop_row_by_row(nvars, degree, batch, monkeypatch):
    """Rows given as a generator, 1 or 3 of them at the real stack bound, and
    below the layered threshold 5 at a bound of two rows per chunk or of
    three products per gather, so that chunks and a row's gathers split."""
    rng = np.random.default_rng(100 * nvars + 10 * degree + (batch or 0))
    m, pairs = 4, jet_space(nvars, degree).mul_table()[0].size
    bounds = [(jets._STACK_ELEMENTS, 1), (jets._STACK_ELEMENTS, 3)]
    if (batch or 1) < LAYERED:
        bounds += [(pairs * (batch or 1) * m * 2, 5), (pairs * (batch or 1) * 3, 5)]
    for (bound, count), mixed, starts in itertools.product(
        bounds, (False, True), ("none", "all", "some")
    ):
        monkeypatch.setattr(jets, "_STACK_ELEMENTS", bound)
        rows = _dot_rows_operands(rng, nvars, degree, batch, count, mixed, starts, m)
        _assert_rows_match_dot_loop(rng, rows)


def test_dot_rows_crosses_a_chunk_at_the_real_bound():
    rng = np.random.default_rng(5)
    sp, batch, m = jet_space(4, 2), 9, 4
    per_chunk, per_gather = jets._stack_plan(sp, batch, m)
    assert per_chunk > 1 and per_gather == m
    for mixed, starts in itertools.product((False, True), ("none", "some")):
        rows = _dot_rows_operands(rng, 4, 2, batch, per_chunk + 2, mixed, starts, m)
        _assert_rows_match_dot_loop(rng, rows)


def test_stack_plan_bounds_the_gathered_array():
    for nvars, degree, batch, m in itertools.product((2, 5), (0, 2, 4), (1, 8, 127), (1, 10, 25)):
        sp = jet_space(nvars, degree)
        pairs = sp.mul_table()[0].size
        per_chunk, per_gather = jets._stack_plan(sp, batch, m)
        assert 1 <= per_gather <= m and per_chunk >= 1
        if per_chunk > 1:
            assert per_gather == m and pairs * per_chunk * m * batch <= jets._STACK_ELEMENTS
        assert pairs * per_gather * batch <= max(jets._STACK_ELEMENTS, pairs * batch)


def test_dot_rows_rejects_mismatched_rows():
    a = seed_variable(jet_space(2, 2), 0, 0.3)
    b = seed_variable(jet_space(3, 2), 0, 0.3)
    p, q = Jet(a.space, np.ones((a.space.ncoeffs, 4))), Jet(a.space, np.ones((a.space.ncoeffs, 5)))
    assert dot_rows([]) == []
    with pytest.raises(JetError, match="rows of one length"):
        dot_rows([([a], [a], None), ([a, a], [a, a], None)])
    with pytest.raises(JetError, match="different variables"):
        dot_rows([([a], [a], None), ([a], [b], None)])
    with pytest.raises(JetError, match="different variables"):
        dot_rows(([a], [a], s) for s in (None, b))
    with pytest.raises(JetError, match="batch sizes differ"):
        dot_rows([([p], [p], None), ([p, a], [a, q], None)][1:])
    with pytest.raises(JetError, match="batch sizes differ"):
        dot_rows([([p], [a], None), ([p], [p], q)])
    with pytest.raises(JetError, match="as many xs as ys"):
        dot_rows([([a], [a, a], None)])
    with pytest.raises(JetError, match="one sign per term"):
        dot_rows([([a, a], [a, a], None)], (True,))
    with pytest.raises(JetError, match="one sign per term"):
        dot([a], [a], None, (False, True))


def _layered_calls(monkeypatch):
    calls = [0]
    kernel = jets._cauchy_layered

    def counted(space, ca, cb):
        calls[0] += 1
        return kernel(space, ca, cb)

    monkeypatch.setattr(jets, "_cauchy_layered", counted)
    return calls


def _zero_operand(rng, sp, kind, batch):
    """A jet in ``sp`` (or one degree deeper, nonzero past ``sp``) that is all
    zero in ``sp``: "+0" and "-0" unbatched, "mixed" batched with both signs,
    "deeper" batched with both signs and one degree deeper."""
    deeper = jet_space(sp.nvars, sp.degree + 1)
    if kind in ("+0", "-0"):
        return Jet(sp, np.full(sp.ncoeffs, 0.0 if kind == "+0" else -0.0))
    c = np.where(rng.random((deeper.ncoeffs, batch)) < 0.5, 0.0, -0.0)
    if kind == "mixed":
        return Jet(sp, c[: sp.ncoeffs])
    c[sp.ncoeffs :] = rng.standard_normal((deeper.ncoeffs - sp.ncoeffs, batch))
    return Jet(deeper, c)


def _vanishing_row(rng, sp, batch, start, vanishing):
    """A row of 6 terms, those at ``vanishing`` with a zero x (even places)
    or y (odd places) of each kind in turn, and its start: None, "batched",
    "unbatched" or "-0" (-0 everywhere)."""
    kinds = ("+0", "-0", "mixed", "deeper")
    xs = [_dot_operand(rng, sp.nvars, sp.degree, batch) for _ in range(6)]
    ys = [
        _dot_operand(rng, sp.nvars, sp.degree + t % 2, batch if t % 3 else None) for t in range(6)
    ]
    for n, t in enumerate(vanishing):
        (xs if t % 2 == 0 else ys)[t] = _zero_operand(rng, sp, kinds[n % 4], batch)
    if start == "-0":
        start = Jet(sp, np.full((sp.ncoeffs, batch), -0.0))
    elif start is not None:
        start = _dot_operand(rng, sp.nvars, sp.degree + 1, batch if start == "batched" else None)
    return xs, ys, start


def _assert_dot_is_the_loop(xs, ys, start, negate, calls):
    """The dot's coefficients, checked against the loop, and the number of
    products it made, counted by ``calls`` (``_layered_calls``)."""
    calls[0] = 0
    got = dot(xs, ys, start, negate)
    made = calls[0]
    want = _reference_signed_dot(xs, ys, start, negate)
    assert got.degree == want.degree and got.batch == want.batch
    assert_same_bits(got.coeffs, want.coeffs)
    return got.coeffs, made


def _holds_minus_zero(c):
    return bool((np.signbit(c) & (c == 0)).any())


@pytest.mark.parametrize("vanishing", [(), (1,), (0, 3, 4, 5), tuple(range(6))])
@pytest.mark.parametrize("start", [None, "batched", "unbatched", "-0"])
@pytest.mark.parametrize("batch", [LAYERED, 1024])
def test_dot_leaves_out_vanishing_terms_bit_for_bit(batch, start, vanishing, monkeypatch):
    """Zero xs and ys of every kind, with and without a start, under each
    sign pattern (the mixed one negates the zero xs at places 2 and 4 where
    there are some): the loop's values and sign bits, and one product per
    kept term wherever the sum of the kept terms holds no -0."""
    rng = np.random.default_rng(batch + len(vanishing))
    sp = jet_space(4, 2)
    xs, ys, first = _vanishing_row(rng, sp, batch, start, vanishing)
    kept = [t for t in range(6) if t not in vanishing]
    calls = _layered_calls(monkeypatch)
    for negate in _signs(6):
        made = _assert_dot_is_the_loop(xs, ys, first, negate, calls)[1]
        sx = [-xs[t] if negate[t] else xs[t] for t in kept]
        partial = reference_dot(sx, [ys[t] for t in kept], first) if kept or first else None
        exact = partial is not None and not _holds_minus_zero(partial.coeffs[: sp.ncoeffs])
        # a left-out product of two unbatched operands is made by reduceat
        assert made == len(kept) if exact else len(kept) <= made <= 6


def _positive(sp, batch, seed=1):
    return Jet(sp, np.random.default_rng(seed).uniform(0.5, 1.5, (sp.ncoeffs, batch)))


def _signed_zero_terms(sp, batch):
    """(x, y) terms whose products are +0 and -0 everywhere: a +0 and a -0
    unbatched x against a y of positive coefficients."""
    pos = _positive(sp, batch)
    return (Jet(sp, np.zeros(sp.ncoeffs)), pos), (Jet(sp, np.full(sp.ncoeffs, -0.0)), pos)


@pytest.mark.parametrize("batch", [LAYERED, 1024])
def test_dot_settles_each_kind_of_row_by_its_own_path(batch, monkeypatch):
    """Rows whose kept terms leave no -0, rows mended by a +0 term, and rows
    with no +0 term, whose left-out products are made after all."""
    sp = jet_space(5, 2)
    plus, minus = _signed_zero_terms(sp, batch)
    pos = plus[1]
    neg_start = Jet(sp, np.full((sp.ncoeffs, batch), -0.0))
    calls = _layered_calls(monkeypatch)

    def check(terms, start, negate, products):
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        got, made = _assert_dot_is_the_loop(xs, ys, start, negate, calls)
        assert made == products
        return got

    # no -0 left: the vanishing terms are never made
    check([minus, plus, minus], pos, None, 0)
    check([(pos, pos), minus, plus], None, None, 1)
    # the +0 fix-up: a -0 sum turns +0 through the +0 term alone; a
    # negated -0 x makes the +0 term, and each term reads its own sign
    assert not np.signbit(check([minus, plus, minus], neg_start, None, 0)).any()
    assert not np.signbit(check([minus, plus], None, None, 0)).any()
    assert not np.signbit(check([plus, minus], neg_start, (True, True), 0)).any()
    assert not np.signbit(check([minus, minus], neg_start, (False, True), 0)).any()
    assert not np.signbit(check([plus, plus], None, (True, False), 0)).any()
    # no +0 term: the left-out products are made after all
    assert np.signbit(check([minus, minus], neg_start, None, 2)).all()
    assert np.signbit(check([plus, plus], None, (True, True), 2)).all()
    assert np.signbit(check([minus, plus], neg_start, (False, True), 2)).all()
    # a zero y against an x of both signs: +0 at some places, -0 at others
    mixed = (_dot_operand(np.random.default_rng(2), 5, 2, batch), plus[0])
    got = check([minus, mixed], neg_start, None, 2)
    assert np.signbit(got).any() and not np.signbit(got).all()


@pytest.mark.parametrize("batch", [LAYERED, 1024])
def test_dot_keeps_a_zero_times_inf_or_nan(batch, monkeypatch):
    """A zero against an operand holding inf or NaN is made: 0 * inf is NaN.
    The other term's operands are positive, so the sum needs no fix-up."""
    sp = jet_space(4, 2)
    bad, live = _positive(sp, batch, 3), _positive(sp, batch, 4)
    bad.coeffs[3, 5], bad.coeffs[0, 7] = np.inf, np.nan
    zero = Jet(sp, np.zeros(sp.ncoeffs))
    calls = _layered_calls(monkeypatch)
    for xs, ys in (([zero, live], [bad, live]), ([bad, live], [zero, live])):
        with np.errstate(invalid="ignore"):  # 0 * inf
            got, made = _assert_dot_is_the_loop(xs, ys, None, None, calls)
        assert np.isnan(got).any() and made == 2


@pytest.mark.parametrize("batch", [LAYERED, 1024])
def test_dot_rows_checks_an_operand_at_each_truncation(batch):
    """An operand zero through degree 2 but not at degree 3 vanishes in a
    row over degree 2 and not in one over degree 3 of the same call.  The
    starts are positive, so neither sum needs a fix-up."""
    rng = np.random.default_rng(4)
    sp2 = jet_space(4, 2)
    late = _zero_operand(rng, sp2, "deeper", batch)
    rows = [
        ([late], [_dot_operand(rng, 4, d, batch)], _positive(jet_space(4, d), batch))
        for d in (2, 3)
    ]
    for order in (rows, rows[::-1]):
        for got, (xs, ys, start) in zip(dot_rows(order), order, strict=True):
            assert_same_bits(got.coeffs, reference_dot(xs, ys, start).coeffs)


def test_total_q4_chunk_does_not_depend_on_leaving_out_vanishing_terms(monkeypatch):
    """The total-Q4 integrand on one chunk of the default rule's points of
    GRAPH(T4_IN_PERT_T5): the same bits when no term is ever left out."""
    from extrinsicq import operators as ops
    from extrinsicq.geometry import DegreePlan, jet_values
    from extrinsicq.scenarios import parse_scenario
    from extrinsicq.verify import Quadrature, VerifyConfig

    cfg, scn = VerifyConfig(), parse_scenario("GRAPH(T4_IN_PERT_T5)")
    field = ops.integrand_i1() + ops.integrand_i2() + ops.integrand_i3()
    pts = Quadrature(scn.chart, cfg.nodes, cfg.gauss_nodes).points[:, :LAYERED]
    vanishing, left_out = jets._vanishing, [0]

    def counted(*args):
        out = vanishing(*args)
        left_out[0] += len(out)
        return out

    def values():
        ctx = scn.context(pts, cfg.degree, DegreePlan(cfg.degree))
        return jet_values(field(ctx, 0), ctx.nbatch)

    monkeypatch.setattr(jets, "_vanishing", counted)
    got = values()
    assert left_out[0] > 0
    monkeypatch.setattr(jets, "_vanishing", lambda *args: [])
    assert_same_bits(got, values())


@pytest.mark.parametrize("batch", [None, 1, 9, LAYERED, 1024])
def test_substitute_sums_each_outer_as_the_loop_does(batch):
    """One contraction over the used monomials against the loop of +=, bit
    for bit: batched, unbatched and one-column args and coefficients, signed
    zeros among both, and unused monomials.  Outer 0 has only -0
    coefficients; over positive args every product is -0, and the loop,
    which starts from +0, still sums them to +0 past the constant term."""
    rng = np.random.default_rng(batch or 0)
    sp = jet_space(3, 3)
    nmono = sp.ncoeffs  # 3 outer variables, degree 3
    for arg_batches in ((batch,) * 3, (None, batch, None), (None,) * 3):
        signed = [_wide_range(rng, (sp.ncoeffs,) + ((b,) if b else ())) for b in arg_batches]
        for cs in (signed, [np.abs(c) for c in signed]):
            args = [Jet(sp, c) for c in cs]
            for cb in {batch, None}:
                C = _wide_range(rng, (nmono, 6) + ((cb,) if cb else ()))
                C[1::3] = 0.0  # monomials no outer uses
                C[:, 0] = -0.0
                got = jets._substitute(args, sp, C)
                assert_same_bits(got, reference_substitute(args, sp, C))
                assert not np.signbit(got[0, 1:]).any()


def _offset_operands(batch, degree=4):
    """Operands at ``batch`` points in (0.5, 1.5) whose offsets have the same
    bits at every point: a chart coordinate, 0.3 x1 + x2, and a dense random
    offset whose products round."""
    sp = jet_space(2, degree)
    rng = np.random.default_rng(batch)
    x1, x2 = (seed_variable(sp, v, rng.uniform(0.5, 1.5, batch)) for v in range(2))
    dense = _wide_range(rng, sp.ncoeffs)
    dense[0] = 0.0
    return [x1, 0.3 * x1 + x2, Jet(sp, x2.coeffs[:1] + dense[:, None])]


@pytest.mark.parametrize("batch", [LAYERED - 1, LAYERED, 1024])
def test_offsets_equal_at_every_point_give_the_full_batch_bits(batch, monkeypatch):
    """Series and a compose of uniform and varying args, against the
    substitution that builds every monomial over the whole batch."""
    operands = _offset_operands(batch)
    x1, lin, _ = operands
    varying = jets.exp(x1 * lin)  # its offsets differ from point to point
    rng = np.random.default_rng(7)
    outer_sp = jet_space(3, 4)
    outers = [_random_jet(rng, outer_sp, b) for b in (None, batch, None)]

    def run():
        vals = [SERIES_FUNCTIONS[n](a).coeffs for n in sorted(SERIES_FUNCTIONS) for a in operands]
        mixes = ([x1, varying, lin], [varying, x1, varying], [lin, x1, lin])
        return vals + [j.coeffs for args in mixes for j in compose(outers, args)]

    got = run()
    monkeypatch.setattr(jets, "_substitute", reference_substitute)
    for g, w in zip(got, run(), strict=True):
        assert_same_bits(g, w)


def _layered_operand_shapes(monkeypatch):
    shapes = []
    kernel = jets._cauchy_layered

    def spy(space, ca, cb):
        shapes.append((ca.shape[1:], cb.shape[1:]))
        return kernel(space, ca, cb)

    monkeypatch.setattr(jets, "_cauchy_layered", spy)
    return shapes


def test_sin_of_a_coordinate_builds_its_monomials_on_one_column(monkeypatch):
    x1 = _offset_operands(1024)[0]
    shapes = _layered_operand_shapes(monkeypatch)
    jets.sin(x1)
    assert shapes and set(shapes) == {((), ())}


def test_offsets_differing_in_the_sign_of_a_zero_stay_batched(monkeypatch):
    a = _offset_operands(1024)[0]
    a.coeffs[a.space.index[(0, 1)], ::2] = -0.0  # +0.0 at the other points
    got = jets.sin(a).coeffs
    shapes = _layered_operand_shapes(monkeypatch)
    assert_same_bits(got, jets.sin(a).coeffs)
    assert shapes and all(((1024,), (1024,)) == s for s in shapes)
    monkeypatch.setattr(jets, "_substitute", reference_substitute)
    assert_same_bits(got, jets.sin(a).coeffs)


SP23 = jet_space(2, 3)
_coeff_lists = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    min_size=SP23.ncoeffs,
    max_size=SP23.ncoeffs,
)
jets_23 = st.builds(lambda c: Jet(SP23, np.asarray(c)), _coeff_lists)


def _spread(c, seed):
    """A 353-point batch around the drawn coefficients (zeros stay zero)."""
    rng = np.random.default_rng(seed)
    return Jet(SP23, np.asarray(c)[:, None] * rng.uniform(0.5, 1.5, (SP23.ncoeffs, 353)))


# unbatched, or batched above the layered kernel's threshold; two draws mix both
jets_23_any = jets_23 | st.builds(_spread, _coeff_lists, st.integers(0, 2**32 - 1))


@given(jets_23_any, jets_23_any)
def test_product_commutes(a, b):
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, rtol=1e-12, atol=1e-12)


@given(jets_23, jets_23, jets_23)
def test_product_associates(a, b, c):
    np.testing.assert_allclose(
        ((a * b) * c).coeffs, (a * (b * c)).coeffs, rtol=1e-9, atol=1e-9
    )


@given(jets_23_any, jets_23_any)
def test_partial_satisfies_leibniz(a, b):
    got = (a * b).partial(0)
    want = a.partial(0) * b + a * b.partial(0)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-9, atol=1e-9)


@given(jets_23, jets_23)
def test_exp_turns_sums_into_products(a, b):
    got = jets.exp(a + b)
    want = jets.exp(a) * jets.exp(b)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-7, atol=1e-7)
