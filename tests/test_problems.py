"""Benchmark oracle checks: optimal values, convexity, gradient consistency."""

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
