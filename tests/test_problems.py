"""Benchmark oracle checks: optimal values, convexity, gradient consistency."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bundlegs.problems import (
    EvaluationError,
    GradientMode,
    ObjectiveOracle,
    catalog,
    gradient,
    make_problem,
)
from helpers import reference_problem

SCALABLE = ["TiltedNorm", "MXHILB", "ChainedLQ", "ChainedCB3I", "ChainedCB3II",
            "MAXQ-gen", "MAXL-gen", "PartlySmooth"]
FIXED = ["QL", "Mifflin1", "MAXQ", "Goffin", "Rosen"]

# documented minimizers
MINIMIZERS = {
    "TiltedNorm": lambda n: np.zeros(n),
    "MXHILB": lambda n: np.zeros(n),
    "ChainedLQ": lambda n: np.full(n, 2 ** -0.5),
    "ChainedCB3I": lambda n: np.ones(n),
    "ChainedCB3II": lambda n: np.ones(n),
    "MAXQ-gen": lambda n: np.zeros(n),
    "MAXL-gen": lambda n: np.zeros(n),
    "PartlySmooth": lambda n: np.zeros(n),
    "QL": lambda n: np.array([1.2, 2.4]),
    "Mifflin1": lambda n: np.array([1.0, 0.0]),
    "MAXQ": lambda n: np.zeros(20),
    "Goffin": lambda n: np.zeros(50),
    "Rosen": lambda n: np.array([0.0, 1.0, 2.0, -1.0]),
}


def all_oracles():
    for name in SCALABLE:
        for n in (10, 50):
            yield make_problem(name, n)
    for name in FIXED:
        yield make_problem(name)


@pytest.mark.parametrize("oracle", list(all_oracles()), ids=lambda o: f"{o.name}-{o.dimension}")
def test_value_at_known_minimizer(oracle):
    xstar = MINIMIZERS[oracle.name](oracle.dimension)
    assert abs(oracle.f(xstar) - oracle.f_star) <= 1e-10 * (1.0 + abs(oracle.f_star))


@pytest.mark.parametrize("oracle", list(all_oracles()), ids=lambda o: f"{o.name}-{o.dimension}")
def test_never_below_f_star(oracle):
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 10.0):
        for _ in range(50):
            x = rng.standard_normal(oracle.dimension) * scale
            assert oracle.f(x) >= oracle.f_star - 1e-12


@pytest.mark.parametrize("oracle", list(all_oracles()), ids=lambda o: f"{o.name}-{o.dimension}")
def test_subgradient_inequality(oracle):
    # f(y) >= f(x) + <g(x), y - x> - slack at random pairs, including kinks
    rng = np.random.default_rng(11)
    for _ in range(60):
        x = rng.standard_normal(oracle.dimension) * rng.choice([0.3, 1.0, 3.0])
        y = rng.standard_normal(oracle.dimension) * rng.choice([0.3, 1.0, 3.0])
        fx = oracle.f(x)
        gx = oracle.grad(x)
        slack = 1e-8 * (1.0 + abs(fx))
        assert oracle.f(y) >= fx + gx @ (y - x) - slack


@pytest.mark.parametrize("oracle", list(all_oracles()), ids=lambda o: f"{o.name}-{o.dimension}")
def test_linearization_errors_nonnegative(oracle):
    from bundlegs.bgs import linearization_error

    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.standard_normal(oracle.dimension)
        s = x + 0.5 * rng.standard_normal(oracle.dimension)
        e = linearization_error(oracle.f(x), oracle.f(s), oracle.grad(s), x, s)
        assert e >= -1e-10


@pytest.mark.parametrize("oracle", list(all_oracles()), ids=lambda o: f"{o.name}-{o.dimension}")
def test_gradient_matches_central_differences(oracle):
    # relative tolerance 1e-4 with h = 1e-6 at randomly sampled smooth points
    rng = np.random.default_rng(23)
    h = 1e-6
    checked = 0
    tries = 0
    while checked < 100 and tries < 1000:
        tries += 1
        x = rng.standard_normal(oracle.dimension)
        if not oracle.differentiable_at(x):
            continue
        g = oracle.grad(x)
        cd = np.empty_like(g)
        ok = True
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            if not (oracle.differentiable_at(xp) and oracle.differentiable_at(xm)):
                ok = False
                break
            cd[i] = (oracle.f(xp) - oracle.f(xm)) / (2.0 * h)
        if not ok:
            continue
        checked += 1
        assert np.linalg.norm(cd - g) <= 1e-4 * (1.0 + np.linalg.norm(g))
    assert checked == 100


@pytest.mark.parametrize("name", SCALABLE)
def test_exact_vs_forward_difference(name):
    oracle = make_problem(name, 10)
    rng = np.random.default_rng(29)
    fwd = GradientMode.forward(1e-7)
    checked = 0
    while checked < 100:
        x = rng.uniform(-0.5, 0.5, 10)
        if not oracle.differentiable_at(x):
            continue
        g = gradient(oracle, GradientMode.exact(), x)
        gf = gradient(oracle, fwd, x)
        if not oracle.differentiable_at(x + 1e-7 * np.ones(10)):
            continue
        checked += 1
        assert np.linalg.norm(gf - g) <= 1e-4 * (1.0 + np.linalg.norm(g))


def test_maxq_gradient_example():
    oracle = make_problem("MAXQ-gen", 3)
    g = gradient(oracle, GradientMode.exact(), np.array([1.0, 3.0, 2.0]))
    np.testing.assert_allclose(g, [0.0, 6.0, 0.0])


def test_abs_forward_difference_example():
    from helpers import abs_oracle

    g = gradient(abs_oracle(), GradientMode.forward(1e-9), np.array([2.0]))
    assert abs(g[0] - 1.0) <= 1e-7


def test_goffin_forward_vs_exact():
    oracle = make_problem("Goffin")
    rng = np.random.default_rng(31)
    fwd = GradientMode.forward(1e-9)
    checked = 0
    while checked < 100:
        x = rng.uniform(-0.5, 0.5, 50)
        s = np.sort(x)
        if s[-1] - s[-2] < 1e-7:  # forward step must not cross the kink
            continue
        checked += 1
        diff = gradient(oracle, fwd, x) - gradient(oracle, GradientMode.exact(), x)
        assert np.abs(diff).max() <= 1e-5


def test_table_values():
    assert make_problem("MAXQ", 20).f(np.zeros(20)) == 0.0
    lq = make_problem("ChainedLQ", 50)
    assert abs(lq.f_star - (-49.0 * np.sqrt(2.0))) < 1e-12
    assert abs(lq.f(np.full(50, 2 ** -0.5)) - lq.f_star) < 1e-10
    assert make_problem("Rosen").f_star == -44.0
    assert make_problem("QL").f_star == 7.2
    assert make_problem("ChainedCB3I", 13).f_star == 24.0


def test_registry_errors():
    with pytest.raises(ValueError):
        make_problem("NoSuchProblem", 5)
    with pytest.raises(ValueError):
        make_problem("MAXQ", 21)  # fixed dimension is 20
    with pytest.raises(ValueError):
        make_problem("ChainedLQ")  # scalable needs n
    with pytest.raises(ValueError):
        make_problem("ChainedLQ", 1)


def test_aliases_and_catalog():
    assert make_problem("3", 10).name == "ChainedLQ"
    assert make_problem("chained-lq", 10).name == "ChainedLQ"
    assert make_problem("11").name == "MAXQ"
    cat = catalog()
    assert len(cat) == 13
    assert {c["index"] for c in cat} == set(range(1, 14))
    goffin = next(c for c in cat if c["name"] == "Goffin")
    assert goffin["n"] == 50 and goffin["f_star"] == 0.0


def test_gradient_mode_validation():
    with pytest.raises(ValueError):
        GradientMode("forward", h=0.0)
    with pytest.raises(ValueError):
        GradientMode("sideways")


FD_STEP = 1e-9
NON_FINITE = {
    "nan": [1.0, np.nan, 0.0],
    "+inf": [np.inf, 1.0, 0.0],
    "-inf": [0.0, 1.0, -np.inf],
    "inf/-inf": [np.inf, -np.inf, 1.0],
}


def _oracle_with_gradient(g):
    """f and its gradient at the origin give `g` in exact and forward mode.

    f(h e_i) is g_i * h for finite g_i; an infinite g_i becomes a finite jump
    of +-1e300 that overflows when divided by h, and a NaN g_i a NaN value.
    """
    g = np.asarray(g, dtype=float)
    jumps = np.where(np.isinf(g), np.sign(g) * 1e300, g * FD_STEP)

    def eval_f(x):
        return float(sum(jumps[i] for i in np.flatnonzero(x)))

    return ObjectiveOracle(name="bad", dimension=g.size, f_star=0.0, x0=np.zeros(g.size),
                           eval_f=eval_f, eval_grad=lambda x: g.copy())


# the finite-sum fast path sums inf and -inf before the elementwise test
# decides, and numpy warns
@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize("mode", [GradientMode.exact(), GradientMode.forward(FD_STEP)],
                         ids=["exact", "forward"])
@pytest.mark.parametrize("bad", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_gradient_raises(bad, mode):
    with pytest.raises(EvaluationError, match="non-finite"):
        gradient(_oracle_with_gradient(bad), mode, np.zeros(3))


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize("mode", [GradientMode.exact(), GradientMode.forward(FD_STEP)],
                         ids=["exact", "forward"])
def test_finite_gradient_with_overflowing_sum_accepted(mode):
    # every entry is finite, only their sum overflows
    want = [1e308, 1e308, 0.0]
    g = gradient(_oracle_with_gradient(want), mode, np.zeros(3))
    assert np.all(np.isfinite(g))
    np.testing.assert_allclose(g, want, rtol=1e-6)


# ---------------------------------------------------------------------------
# byte equality with the reference bodies
# ---------------------------------------------------------------------------


# points where pieces of Rosen and QL tie exactly, with the gradient of the
# lowest-numbered tied piece
ROSEN_TIES = [
    ([0.0, 1.0, 2.0, -1.0], [-5.0, -3.0, -13.0, 5.0]),  # pieces 1, 2, 4 tie: 1
    ([0.0, 0.0, 2.0, -2.0], [5.0, -15.0, 37.0, -47.0]),  # pieces 2, 3 tie: 2
    ([1.0, 2.0, 2.0, -1.0], [7.0, 79.0, 27.0, -45.0]),  # pieces 3, 4 tie: 3
]
QL_TIES = [
    ([0.25, 3.0], [0.5, 6.0]),  # pieces 1, 2 tie: 1
    ([2.0, 2.0], [4.0, 4.0]),  # pieces 1, 3 tie: 1
    ([0.0, 2.0], [-40.0, -6.0]),  # pieces 2, 3 tie: 2
]


def _cb3_pair_pieces(a, b):
    x = np.array([a, b])
    return ((x[:-1] ** 4 + x[1:] ** 2)[0], ((2.0 - x[:-1]) ** 2 + (2.0 - x[1:]) ** 2)[0],
            (2.0 * np.exp(x[1:] - x[:-1]))[0])


def _cb3_tie_of_pieces_2_and_3():
    # a pair (a, b) with t2 == t3 > t1 in floating point: bisect t2 - t3 over
    # b, then look at the floats around the crossing
    for a in np.linspace(-0.5, 0.5, 41).tolist():
        def gap(b):
            _, t2, t3 = _cb3_pair_pieces(a, b)
            return t2 - t3
        lo, hi = a - 3.0, 2.0  # gap > 0 at lo and < 0 at hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        for b in (lo + k * math.ulp(lo) for k in range(-20, 21)):
            t1, t2, t3 = _cb3_pair_pieces(a, b)
            if t2 == t3 > t1:
                return a, b
    raise AssertionError("no exact tie of pieces 2 and 3 found")


def _sizes():
    for name in SCALABLE:
        for n in (2, 10, 50, 500):
            yield name, n
    for name in FIXED:
        yield name, None


def _guard_points(oracle):
    n = oracle.dimension
    rng = np.random.default_rng(41)
    points = [oracle.x0, MINIMIZERS[oracle.name](n)]
    for scale in 10.0 ** np.arange(-9, 4):
        for _ in range(20):
            points.append(scale * rng.standard_normal(n))
            points.append(oracle.x0 + scale * rng.standard_normal(n))
    # ties: equal neighbours (all CB3 pieces tie at ones), and pairs on LQ's
    # unit circle
    for c in (1.0, -1.0, 0.0, -0.0, 2.0, 3.0, 0.5):
        points.append(np.full(n, c))
    points.append(np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n])
    for pair in ([1.0, 0.0], [0.0, -1.0], [0.6, 0.8]):
        points.append(np.resize(pair, n))
    # gradient entries of -0.0: CB3's second piece at x_i = 2, its first
    # piece at x_{i+1} = -0.0
    for pair in ([2.0, -4.0], [-3.0, -0.0]):
        points.append(np.resize(pair, n))
    # the exact ties of the tie-rule tests
    points.append(np.resize([1.5, -0.203125], n))
    points.append(np.resize(_cb3_tie_of_pieces_2_and_3(), n))
    if oracle.name == "Rosen":
        points.extend(np.array(x) for x, _ in ROSEN_TIES)
    return points


def _overflow_points(n):
    rng = np.random.default_rng(43)
    points = [np.full(n, 1e80), np.full(n, -1e80), np.resize([1e80, -1e80], n),
              np.resize([-1e308, 1.0], n)]  # Rosen: f1 = inf, the fourth piece NaN
    for scale in (1e80, 1e160, 1e307):
        points.extend(scale * rng.standard_normal(n) for _ in range(10))
    return points


def _same_value(a, b):
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _grad_or_error(oracle, x):
    try:
        return oracle.grad(x)
    except EvaluationError:
        return None


@pytest.mark.parametrize("name,n", list(_sizes()), ids=lambda v: str(v))
def test_bodies_byte_equal_to_reference(name, n):
    new, ref = make_problem(name, n), reference_problem(name, n)
    # CB3's exp overflows at the large seeded points too; both bodies warn
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _guard_points(new):
            assert _same_value(new.eval_f(x), ref.eval_f(x)), x
            assert _same_array(new.eval_grad(x), ref.eval_grad(x)), x
        # overflow: both oracles refuse the gradient, or both gradients agree
        # byte for byte (a refused gradient's entries may differ)
        for x in _overflow_points(new.dimension):
            assert _same_value(new.eval_f(x), ref.eval_f(x)), x
            g_new, g_ref = _grad_or_error(new, x), _grad_or_error(ref, x)
            assert (g_new is None) == (g_ref is None), x
            if g_ref is not None:
                assert _same_array(g_new, g_ref), x


@pytest.mark.parametrize("name", ["TiltedNorm", "PartlySmooth"])
def test_norm_bodies_byte_equal_on_strided_points(name):
    # a strided x is copied before its dot, as np.linalg.norm does; BLAS sums
    # a strided dot in another order
    new, ref = make_problem(name, 50), reference_problem(name, 50)
    rng = np.random.default_rng(47)
    for scale in 10.0 ** np.arange(-9, 4):
        cols = scale * rng.standard_normal((50, 3))
        x = cols[:, 1]
        assert _same_value(new.eval_f(x), ref.eval_f(x)), x
        assert _same_array(new.eval_grad(x), ref.eval_grad(x)), x


# the finite check shared with the QP instance never warns: under warnings
# as errors a finite gradient whose sum overflows is still returned, and
# inf next to -inf is still an EvaluationError
@pytest.mark.parametrize("mode", [GradientMode.exact(), GradientMode.forward(FD_STEP)],
                         ids=["exact", "forward"])
def test_gradient_finite_check_never_warns(mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gradient(_oracle_with_gradient([1e308, 1e308]), mode, np.zeros(2))
        with pytest.raises(EvaluationError, match="non-finite"):
            gradient(_oracle_with_gradient([np.inf, -np.inf]), mode, np.zeros(2))
        with pytest.raises(EvaluationError, match="non-finite"):
            gradient(_oracle_with_gradient([1e308, np.nan]), mode, np.zeros(2))
    np.testing.assert_allclose(g, [1e308, 1e308], rtol=1e-6)


def test_oracle_grad_and_grad_rows_never_warn():
    oracle = _identity_gradient_oracle(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_array(oracle.grad(np.array([1e308, 1e308])), np.array([1e308, 1e308]))
        with pytest.raises(EvaluationError, match="non-finite gradient at x="):
            oracle.grad(np.array([np.inf, -np.inf]))
        X = np.array([[1e308, 1e308], [1.0, 2.0]])
        assert _same_array(oracle.grad_rows(X), X)
        with pytest.raises(EvaluationError, match="at row 1 of a block of 2"):
            oracle.grad_rows(np.array([[1e308, 1e308], [np.inf, -np.inf]]))


# ---------------------------------------------------------------------------
# gradient blocks: grad_rows is grad, row by row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,n", list(_sizes()), ids=lambda v: str(v))
def test_grad_rows_byte_equal_to_grad(name, n):
    oracle = make_problem(name, n)
    with np.errstate(over="ignore", invalid="ignore"):
        accepted, refused = [], []
        for x in _guard_points(oracle):
            (accepted if _grad_or_error(oracle, x) is not None else refused).append(x)
        G = oracle.grad_rows(np.array(accepted))
        assert G.shape == (len(accepted), oracle.dimension)
        for x, row in zip(accepted, G):
            assert _same_array(row, oracle.grad(x)), x
        # a point whose gradient grad refuses fails its whole block
        for x in refused:
            with pytest.raises(EvaluationError, match="non-finite gradient at row 1"):
                oracle.grad_rows(np.array([oracle.x0, x]))


def test_grad_rows_calls_eval_grad_once_per_row():
    oracle = make_problem("ChainedCB3I", 10)
    calls = []

    def counted(x):
        calls.append(x.copy())
        return oracle.eval_grad(x)

    X = np.random.default_rng(5).standard_normal((21, 10))
    G = replace(oracle, eval_grad=counted).grad_rows(X)
    assert len(calls) == 21
    np.testing.assert_array_equal(np.array(calls), X)
    assert _same_array(G, np.array([oracle.grad(x) for x in X]))


def _identity_gradient_oracle(n):
    # the gradient at x is x itself, so a block's gradients are its points
    return ObjectiveOracle(name="identity", dimension=n, f_star=0.0, x0=np.zeros(n),
                           eval_f=lambda x: 0.5 * float(x @ x), eval_grad=lambda x: x.copy())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_grad_rows_non_finite_row_raises(bad):
    X = np.ones((5, 3))
    X[3, 1] = bad
    with pytest.raises(EvaluationError, match=r"identity: non-finite gradient at row 3 of a block of 5"):
        _identity_gradient_oracle(3).grad_rows(X)


def test_grad_rows_inf_and_minus_inf_rows_raise():
    # their sum is NaN; no warning escapes the check
    X = np.array([[1.0, np.inf], [1.0, -np.inf]])
    with pytest.raises(EvaluationError, match="at row 0"):
        _identity_gradient_oracle(2).grad_rows(X)


def test_grad_rows_finite_block_with_overflowing_sum_accepted():
    # every entry is finite, only the block's sum overflows
    X = np.array([[1e308, 1e308], [1e308, -1e308], [1e308, 0.0]])
    G = _identity_gradient_oracle(2).grad_rows(X)
    assert _same_array(G, X)


# ---------------------------------------------------------------------------
# tie rule: where pieces tie, the lowest-numbered piece gives the gradient
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ChainedCB3I", "ChainedCB3II"])
def test_cb3_ties_take_the_lowest_piece(name):
    # at ones all three pieces of every pair equal 2: piece 1 for all pairs
    g = make_problem(name, 6).grad(np.ones(6))
    np.testing.assert_array_equal(g, [4.0, 6.0, 6.0, 6.0, 6.0, 2.0])
    # t1 == t2 == 5.103759765625 > t3 exactly: piece 1, (4 a^3, 2 b)
    oracle = make_problem(name, 2)
    t1, t2, t3 = _cb3_pair_pieces(1.5, -0.203125)
    assert t1 == t2 > t3
    np.testing.assert_array_equal(oracle.grad(np.array([1.5, -0.203125])), [13.5, -0.40625])
    # t2 == t3 > t1: piece 2, (-2 (2 - a), -2 (2 - b))
    a, b = _cb3_tie_of_pieces_2_and_3()
    np.testing.assert_array_equal(oracle.grad(np.array([a, b])),
                                  [-2.0 * (2.0 - a), -2.0 * (2.0 - b)])


@pytest.mark.parametrize("x,want", ROSEN_TIES, ids=["1-2-4", "2-3", "3-4"])
def test_rosen_ties_take_the_lowest_piece(x, want):
    np.testing.assert_array_equal(make_problem("Rosen").grad(np.array(x)), want)


@pytest.mark.parametrize("x,want", QL_TIES, ids=["1-2", "1-3", "2-3"])
def test_ql_ties_take_the_lowest_piece(x, want):
    np.testing.assert_array_equal(make_problem("QL").grad(np.array(x)), want)
