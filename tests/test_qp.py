"""Simplex QP solver: frozen examples, grid-oracle equivalence, KKT certificates."""

import warnings

import numpy as np
import pytest
from helpers import grid_min_objective, reference_instance_arrays, reference_solve_simplex_qp

from bundlegs import bgs, qp
from bundlegs.qp import QpFailureError, SimplexQpInstance, min_norm_point, solve_simplex_qp

SOLUTION_FIELDS = ("lam", "g_tilde", "e_tilde", "w", "kkt_residual", "iterations", "converged")


def _objective(lam, inst):
    g = lam @ inst.atoms
    return 0.5 * float(g @ g) + inst.penalty_scale * float(lam @ inst.errors)


def random_instance(rng, max_atoms=4, max_dim=5):
    p = int(rng.integers(1, max_atoms + 1))
    n = int(rng.integers(1, max_dim + 1))
    return SimplexQpInstance(
        rng.standard_normal((p, n)) * rng.choice([0.5, 1.0, 2.0]),
        rng.uniform(0.0, 1.0, p),
        float(rng.choice([0.1, 1.0, 10.0])),
    )


def test_singleton():
    g = np.array([[2.0, -1.0]])
    sol = solve_simplex_qp(SimplexQpInstance(g, [0.0], 3.0))
    np.testing.assert_allclose(sol.lam, [1.0])
    np.testing.assert_allclose(sol.g_tilde, g[0])
    assert abs(sol.w - 0.5 * 5.0) < 1e-12


def test_symmetric_pair_cancels():
    sol = solve_simplex_qp(SimplexQpInstance(np.array([[1.0], [-1.0]]), [0.0, 0.0], 1.0))
    np.testing.assert_allclose(sol.lam, [0.5, 0.5], atol=1e-10)
    assert abs(sol.w) < 1e-12
    assert np.abs(sol.g_tilde).max() < 1e-10


def test_two_atom_example():
    # stationarity of 0.5*(9 t^2 + (1-t)^2) gives t = 0.1
    sol = solve_simplex_qp(SimplexQpInstance(np.array([[3.0, 0.0], [0.0, 1.0]]), [0.0, 0.0], 1.0))
    np.testing.assert_allclose(sol.lam, [0.1, 0.9], atol=1e-9)
    np.testing.assert_allclose(sol.g_tilde, [0.3, 0.9], atol=1e-9)
    assert abs(sol.w - 0.45) < 1e-10
    grid = grid_min_objective(np.array([[3.0, 0.0], [0.0, 1.0]]), np.zeros(2), 1.0, step=1e-4)
    assert abs(sol.w - grid) < 1e-6


def test_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        inst = random_instance(rng)
        sol = solve_simplex_qp(inst)
        grid = grid_min_objective(inst.atoms, inst.errors, inst.penalty_scale)
        assert sol.converged
        assert -1e-9 <= grid - sol.w <= 1e-4


def test_solution_invariants():
    rng = np.random.default_rng(1)
    for _ in range(100):
        inst = random_instance(rng)
        sol = solve_simplex_qp(inst)
        assert sol.lam.min() >= 0.0
        assert abs(sol.lam.sum() - 1.0) <= 1e-10
        w_expected = 0.5 * float(sol.g_tilde @ sol.g_tilde) + inst.penalty_scale * sol.e_tilde
        assert abs(sol.w - w_expected) <= 1e-10
        assert sol.kkt_residual <= 1e-9 * max(1.0, abs(sol.w))


def assert_kkt_certificate(inst, sol):
    # every atom's multiplier-gradient is >= the common support value
    grad = inst.atoms @ sol.g_tilde + inst.penalty_scale * inst.errors
    mu = float(sol.lam @ grad)
    assert grad.min() >= mu - 1e-8
    support = sol.lam > 1e-10
    assert np.abs(grad[support] - mu).max() <= 1e-8


def test_kkt_certificate():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        assert_kkt_certificate(inst, solve_simplex_qp(inst))


def test_perturbation_never_improves():
    rng = np.random.default_rng(9)
    for _ in range(30):
        inst = random_instance(rng)
        sol = solve_simplex_qp(inst)
        base = _objective(sol.lam, inst)
        for _ in range(20):
            d = rng.standard_normal(sol.lam.size)
            d -= d.mean()  # feasible direction of the equality constraint
            nd = np.linalg.norm(d)
            if nd == 0:
                continue
            lam2 = np.clip(sol.lam + 1e-4 * d / nd, 0.0, None)
            lam2 /= lam2.sum()
            assert _objective(lam2, inst) >= base - 1e-8


def test_error_scaling_consistency():
    rng = np.random.default_rng(13)
    for c in (0.5, 2.0, 8.0):
        inst = random_instance(rng, max_atoms=4)
        scaled = SimplexQpInstance(inst.atoms, c * inst.errors, inst.penalty_scale / c)
        a = solve_simplex_qp(inst)
        b = solve_simplex_qp(scaled)
        np.testing.assert_allclose(a.lam, b.lam, atol=1e-9)


def test_duplicate_atom_keeps_objective():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = random_instance(rng)
        j = int(rng.integers(inst.n_atoms))
        dup = SimplexQpInstance(
            np.vstack([inst.atoms, inst.atoms[j]]),
            np.concatenate([inst.errors, [inst.errors[j]]]),
            inst.penalty_scale,
        )
        assert abs(solve_simplex_qp(inst).w - solve_simplex_qp(dup).w) <= 1e-9


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(21)
    for _ in range(30):
        inst = random_instance(rng)
        cold = solve_simplex_qp(inst)
        warm0 = rng.uniform(0.0, 1.0, inst.n_atoms)
        warm = solve_simplex_qp(inst, warm_start=warm0)
        assert abs(cold.w - warm.w) <= 1e-8
        np.testing.assert_allclose(cold.g_tilde, warm.g_tilde, atol=1e-6)


def test_input_validation():
    with pytest.raises(ValueError):
        SimplexQpInstance(np.empty((0, 2)), [], 1.0)
    with pytest.raises(ValueError):
        SimplexQpInstance(np.ones((2, 2)), [0.0], 1.0)
    with pytest.raises(ValueError):
        SimplexQpInstance(np.ones((1, 2)), [np.nan], 1.0)
    with pytest.raises(ValueError):
        SimplexQpInstance(np.ones((1, 2)), [np.inf], 1.0)
    with pytest.raises(ValueError):
        SimplexQpInstance(np.ones((1, 2)), [-1e-6], 1.0)
    with pytest.raises(ValueError):
        SimplexQpInstance(np.ones((1, 2)), [0.0], 0.0)
    with pytest.raises(ValueError, match="penalty_scale must be finite"):
        SimplexQpInstance(np.ones((1, 2)), [0.0], np.inf)
    # tiny negative errors are clamped to zero
    inst = SimplexQpInstance(np.ones((1, 2)), [-1e-13], 1.0)
    assert inst.errors[0] == 0.0


def test_text_dump_roundtrip(tmp_path):
    inst = SimplexQpInstance(np.array([[1.5, -2.0], [0.25, 3.0]]), [0.0, 0.125], 4.0)
    path = tmp_path / "instance.txt"
    path.write_text(inst.to_text())
    sol = solve_simplex_qp(inst)
    parsed = SimplexQpInstance.from_text(path.read_text())
    np.testing.assert_array_equal(parsed.atoms, inst.atoms)
    np.testing.assert_array_equal(parsed.errors, inst.errors)
    assert parsed.penalty_scale == inst.penalty_scale
    assert abs(solve_simplex_qp(parsed).w - sol.w) < 1e-12


# the finite-sum fast path sums inf and -inf (or finite entries past the
# largest double) before the elementwise test decides, and numpy warns
@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf]],
                         ids=["nan", "+inf", "-inf", "inf/-inf"])
def test_non_finite_atom_rejected(bad):
    atoms = np.ones((3, 2))
    atoms[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SimplexQpInstance(atoms, np.zeros(3), 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
def test_finite_atoms_with_overflowing_sum_accepted():
    # the sum of these entries overflows, but every entry is finite
    atoms = np.array([[1e308, 1e308], [-1e308, -1e308]])
    inst = SimplexQpInstance(atoms, [0.0, 0.0], 1.0)
    np.testing.assert_array_equal(inst.atoms, atoms)


# finite atoms of norm past about 1.3e154 overflow G G'; both kernels must
# raise their typed error before LAPACK prints to stdout and fails untyped.
# So must a finite penalty term penalty_scale * e_j that overflows, and
# without numpy's overflow warning.
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("kernel, atoms, errors, scale, match", [
    pytest.param(kernel, atoms, np.zeros(len(atoms)), 1.0, "Gram matrix overflows",
                 id=prefix + name)
    for prefix, kernel in (("", "qp"), ("nearest-", "nearest"))
    for name, atoms in (("one", [[1e155, 0.0]]), ("two", [[1e155, 0.0], [0.0, 1.0]]))] + [
    pytest.param("qp", [[1.0, 0.0], [0.0, 1.0]], [0.0, 1e300], 1e10, "penalty terms overflow",
                 id="penalty")])
def test_overflowing_gram_raises_typed_error(kernel, atoms, errors, scale, match, capfd):
    inst = SimplexQpInstance(atoms, errors, scale)
    with pytest.raises(QpFailureError, match=match):
        if kernel == "qp":
            solve_simplex_qp(inst)
        else:
            min_norm_point(inst.atoms)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out and "DLASCL" not in err
    # the bundle solver and the harness catch it under its old name
    assert bgs.QpFailureError is QpFailureError


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the reference kernel in tests/helpers.py
# ---------------------------------------------------------------------------


def assert_same_solution(inst, warm_start=None, max_iter=None):
    # `max_iter` goes to the reference only: a test that sets it patches
    # qp._max_pivots to the same limit
    got = solve_simplex_qp(inst, warm_start=warm_start)
    want = reference_solve_simplex_qp(inst, warm_start=warm_start, max_iter=max_iter)
    for name in SOLUTION_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        else:
            assert type(a) is type(b) and a == b, name
    return got


def _hull(rng, p, n, pieces):
    # gradients of a max of `pieces` affine functions at sampled points:
    # exact duplicates of a few vectors, plus a smooth-looking spread
    base = rng.standard_normal((pieces, n))
    atoms = base[rng.integers(0, pieces, p)]
    spread = rng.standard_normal((p, n)) * 1e-3
    return np.where(rng.uniform(size=(p, 1)) < 0.5, atoms, atoms + spread)


def test_matches_reference_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(200):
        inst = random_instance(rng, max_atoms=8, max_dim=6)
        assert_same_solution(inst)
        assert_same_solution(inst, warm_start=rng.uniform(0.0, 1.0, inst.n_atoms))


def test_matches_reference_on_duplicate_atoms():
    rng = np.random.default_rng(102)
    for _ in range(100):
        p, n = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        base = rng.standard_normal((int(rng.integers(1, 4)), n))
        atoms = base[rng.integers(0, base.shape[0], p)]
        errors = rng.choice([0.0, 0.5], p)
        inst = SimplexQpInstance(atoms, errors, float(rng.choice([0.1, 1.0, 10.0])))
        assert_same_solution(inst)
        assert_same_solution(inst, warm_start=np.ones(p))


def test_matches_reference_on_near_identical_clouds():
    rng = np.random.default_rng(103)
    for _ in range(100):
        p, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        atoms = rng.standard_normal(n) + 1e-9 * rng.standard_normal((p, n))
        errors = rng.uniform(0.0, 1e-9, p)
        inst = SimplexQpInstance(atoms, errors, float(rng.choice([0.1, 1.0, 1e4])))
        assert_same_solution(inst)
        assert_same_solution(inst, warm_start=rng.uniform(0.0, 1.0, p))


def test_matches_reference_on_warm_starts():
    rng = np.random.default_rng(104)
    for _ in range(100):
        inst = random_instance(rng, max_atoms=10, max_dim=6)
        p = inst.n_atoms
        sparse = rng.uniform(0.0, 1.0, p) * (rng.uniform(size=p) < 0.5)
        for warm in (sparse, np.zeros(p), np.ones(p + 1), np.full(p, np.nan), -np.ones(p)):
            assert_same_solution(inst, warm_start=warm)


def test_matches_reference_on_gradient_sampling_hulls():
    # the GS baseline's shape: 101 sampled gradients in n=50, zero errors
    rng = np.random.default_rng(105)
    for pieces in (2, 5, 20, 101):
        inst = SimplexQpInstance(_hull(rng, 101, 50, pieces), np.zeros(101), 1.0)
        assert_same_solution(inst)


def test_matches_reference_on_large_bundles():
    # the large-scale bundle's shape: 51 atoms in n=500
    rng = np.random.default_rng(106)
    for pieces in (3, 51):
        inst = SimplexQpInstance(_hull(rng, 51, 500, pieces), rng.uniform(0.0, 1e-3, 51), 30.0)
        assert_same_solution(inst)
        assert_same_solution(inst, warm_start=rng.uniform(0.0, 1.0, 51))


def test_matches_reference_with_one_pivot(monkeypatch):
    monkeypatch.setattr(qp, "_max_pivots", lambda p: 1)
    rng = np.random.default_rng(107)
    for _ in range(30):
        inst = random_instance(rng, max_atoms=6, max_dim=4)
        assert_same_solution(inst, max_iter=1)


# ---------------------------------------------------------------------------
# fallback paths
# ---------------------------------------------------------------------------


def _three_corners():
    # the minimum-norm point is interior to the hull, so a cold start needs
    # more than one pivot to reach it
    return SimplexQpInstance(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                             [0.0, 0.1, 0.2], 1.0)


def test_projected_gradient_polish(monkeypatch):
    inst = _three_corners()
    assert solve_simplex_qp(inst).iterations > 1
    monkeypatch.setattr(qp, "_max_pivots", lambda p: 1)
    sol = assert_same_solution(inst, max_iter=1)
    # one active-set pivot, then the FISTA polish's own iterations
    assert sol.iterations > 1
    assert sol.converged
    assert_kkt_certificate(inst, sol)


def assert_pivots_recover(kernel, monkeypatch, patched_solve):
    # Both kernels pivot through the same solve and fall back to least
    # squares; the bundle kernel must still match the reference bit for bit,
    # and the nearest-point kernel must still find the reference's hull point.
    inst = _three_corners()
    if kernel == "nearest":
        inst = SimplexQpInstance(inst.atoms, np.zeros(inst.n_atoms), 1.0)
        want = reference_solve_simplex_qp(inst)
    monkeypatch.setattr(np.linalg, "solve", patched_solve)
    if kernel == "qp":
        sol = assert_same_solution(inst)
        assert sol.converged
        assert_kkt_certificate(inst, sol)
    else:
        sol = min_norm_point(inst.atoms)
        assert sol.converged
        np.testing.assert_allclose(sol.g_tilde, want.g_tilde, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kernel", ["qp", "nearest"])
def test_singular_bordered_matrix_falls_back_to_lstsq(kernel, monkeypatch):
    # With delta * I on the H block, LAPACK finds no exactly zero pivot for
    # any finite instance whose Gram matrix does not overflow, so the
    # singular report it gives for one is simulated here.
    calls = []

    def singular(a, b):
        calls.append(a.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    assert_pivots_recover(kernel, monkeypatch, singular)
    assert calls


@pytest.mark.parametrize("kernel", ["qp", "nearest"])
def test_non_finite_restricted_solution_falls_back_to_lstsq(kernel, monkeypatch):
    # a non-finite weight, which a pivot would otherwise take as it is
    real_solve = np.linalg.solve
    calls = []

    def blown_up(a, b):
        calls.append(a.shape)
        y = real_solve(a, b)
        y[0] = np.inf
        return y

    assert_pivots_recover(kernel, monkeypatch, blown_up)
    assert calls


def test_polish_of_a_hull_whose_gram_norm_overflows():
    # H is finite, but the square of its Frobenius norm overflows; the polish
    # still finds a Lipschitz bound, without numpy's overflow warning (an
    # error in this suite).  The atom norms span 1e200, so neither kernel
    # reaches the tolerance.
    G = np.array([[-0.1, 0.6], [1e99, -5e99], [4e-101, 1.3e-100], [9e99, -7e99]])
    assert not solve_simplex_qp(SimplexQpInstance(G, np.zeros(4), 1.0)).converged
    assert not min_norm_point(G).converged


# ---------------------------------------------------------------------------
# nearest-point kernel of the gradient-sampling baseline
# ---------------------------------------------------------------------------
# `min_norm_point` rounds differently from `solve_simplex_qp`, so only the
# unique hull point is compared: its norm to 1e-12 of the largest atom, and
# the certificate min_j <g_j, x> >= ||x||^2 of a minimum-norm point.  With
# `scale`, the kernel solves the hull scale * G and its point is checked,
# divided by `scale`, against the reference on G: the reference's stopping
# rule is absolute below unit scale, so it would not vouch for a short hull.


def assert_nearest_point(G, grid=False, scale=1.0):
    G = np.asarray(G, dtype=float)
    sol = min_norm_point(scale * G)
    want = reference_solve_simplex_qp(SimplexQpInstance(G, np.zeros(len(G)), 1.0))
    assert sol.converged
    x = sol.g_tilde / scale
    g_max = float(np.linalg.norm(G, axis=1).max())
    assert abs(np.linalg.norm(x) - np.linalg.norm(want.g_tilde)) <= 1e-12 * g_max
    assert (G @ x).min() >= x @ x - 1e-10 * max(1.0, g_max * g_max)
    assert sol.lam.min() >= 0.0 and abs(sol.lam.sum() - 1.0) <= 1e-12
    assert sol.e_tilde == 0.0 and sol.w == 0.5 * float(sol.g_tilde @ sol.g_tilde)
    if grid:
        assert -1e-9 <= grid_min_objective(G, np.zeros(len(G)), 1.0) - sol.w / scale**2 <= 1e-4
    return sol


def test_nearest_point_on_gradient_sampling_hulls():
    rng = np.random.default_rng(201)
    for pieces in (2, 5, 20, 101):
        for _ in range(3):
            assert_nearest_point(_hull(rng, 101, 50, pieces))


def test_nearest_point_on_duplicate_atoms():
    rng = np.random.default_rng(202)
    for _ in range(100):
        p, n = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        base = rng.standard_normal((int(rng.integers(1, 4)), n))
        assert_nearest_point(base[rng.integers(0, base.shape[0], p)], grid=p <= 4)


def test_nearest_point_on_near_identical_clouds():
    rng = np.random.default_rng(203)
    for _ in range(100):
        p, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        assert_nearest_point(rng.standard_normal(n) + 1e-9 * rng.standard_normal((p, n)),
                             grid=p <= 4)


def test_nearest_point_with_more_atoms_than_dimensions():
    # p > n + 1: every working set past n + 1 atoms is affinely dependent
    rng = np.random.default_rng(204)
    for _ in range(150):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(n + 2, 40))
        offset = rng.standard_normal(n) * rng.choice([0.0, 0.5, 2.0])
        assert_nearest_point(rng.standard_normal((p, n)) + offset, grid=p <= 4)


def test_nearest_point_of_hull_containing_origin():
    rng = np.random.default_rng(205)
    assert np.linalg.norm(assert_nearest_point([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.1]],
                                               grid=True).g_tilde) <= 1e-8
    for _ in range(20):
        n = int(rng.integers(2, 6))
        G = rng.standard_normal((int(rng.integers(n + 1, 30)), n))
        G = np.vstack([G, -G.mean(axis=0) * G.shape[0]])  # the centroid is 0
        assert np.linalg.norm(assert_nearest_point(G).g_tilde) <= 1e-7


def test_nearest_point_of_singleton():
    sol = assert_nearest_point([[2.0, -1.0]], grid=True)
    np.testing.assert_array_equal(sol.lam, [1.0])
    np.testing.assert_array_equal(sol.g_tilde, [2.0, -1.0])
    assert sol.iterations == 1 and sol.kkt_residual == 0.0


@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150])
def test_nearest_point_across_atom_scales(scale):
    rng = np.random.default_rng(206)
    for pieces in (3, 30):
        assert_nearest_point(_hull(rng, 31, 10, pieces), scale=scale)
    assert_nearest_point(rng.standard_normal((4, 2)), grid=True, scale=scale)


def test_nearest_point_scales_short_hulls_exactly():
    # a hull of atoms shorter than 1 is solved at a power-of-two scale, so
    # scaling it by another power of two scales the result exactly
    G = np.random.default_rng(208).standard_normal((31, 10))
    base = min_norm_point(np.ldexp(G, -3))
    for k in (-4, -40, -400, -1000):
        sol = min_norm_point(np.ldexp(G, k))
        np.testing.assert_array_equal(sol.lam, base.lam)
        np.testing.assert_array_equal(sol.g_tilde, np.ldexp(base.g_tilde, k + 3))
        assert sol.iterations == base.iterations


def test_nearest_point_one_pivot_is_not_converged(monkeypatch):
    G = _three_corners().atoms
    assert min_norm_point(G).iterations > 1
    monkeypatch.setattr(qp, "_max_pivots", lambda p: 1)
    sol = min_norm_point(G)
    assert sol.iterations == 1
    assert not sol.converged


def test_nearest_point_polishes_a_stalled_active_set(monkeypatch):
    # atom norms spread over 1e+-4: delta = 1e-14 * max ||g||^2 swamps the
    # short atoms, the active set stalls with only members violating, and
    # the projected-gradient polish reaches the tolerance
    rng = np.random.default_rng(35)
    n = int(rng.integers(2, 5))
    p = int(rng.integers(n + 2, 20))
    G = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-4, 4, (p, 1))
    polished = []
    real = qp._projected_gradient
    monkeypatch.setattr(qp, "_projected_gradient",
                        lambda *args: polished.append(1) or real(*args))
    assert_nearest_point(G)
    assert polished


def test_nearest_point_enters_one_atom_after_a_whole_block_leaves(monkeypatch):
    # In exact arithmetic one atom of an entering block always keeps positive
    # weight (Wolfe's argument), and no instance of the tests above lets a
    # whole block leave.  Round-off that did is simulated here: the first
    # solve after a block of atoms enters returns negative weights, so the
    # block leaves on a zero step and the working set is back where it was.
    # The same block is then about to enter again, and only its most
    # violating atom may.
    real_solve = np.linalg.solve
    sizes = []  # working-set size of every pivot
    flipped_at = []

    def flipped(a, b):
        sizes.append(a.shape[0] - 1)
        y = real_solve(a, b)
        if not flipped_at and len(sizes) >= 2 and sizes[-1] >= sizes[-2] + 2:
            flipped_at.append(len(sizes) - 1)
            y[:-1] = -1.0
        return y

    rng = np.random.default_rng(207)
    G = rng.standard_normal((20, 5)) + 0.5
    monkeypatch.setattr(np.linalg, "solve", flipped)
    sol = min_norm_point(G)
    monkeypatch.undo()
    i = flipped_at[0]
    assert sizes[i + 1] == sizes[i - 1] and sizes[i + 2] == sizes[i - 1] + 1
    assert sol.converged
    want = reference_solve_simplex_qp(SimplexQpInstance(G, np.zeros(len(G)), 1.0))
    g_max = float(np.linalg.norm(G, axis=1).max())
    assert abs(np.linalg.norm(sol.g_tilde) - np.linalg.norm(want.g_tilde)) <= 1e-12 * g_max


# ---------------------------------------------------------------------------
# instance fast path: the same stored bytes and the same refusals as the
# conversion it skips (tests/helpers.py keeps the old input handling)
# ---------------------------------------------------------------------------


def _instance_inputs():
    rng = np.random.default_rng(108)
    G = rng.standard_normal((5, 8))
    e = rng.uniform(0.0, 1.0, 5)
    wide = np.abs(rng.standard_normal((10, 17)))
    yield "arrays", G, e, 2.0
    yield "lists", G.tolist(), e.tolist(), 2.0
    yield "ints", [[1, 2], [3, 4]], [0, 1], 3
    yield "float32", G.astype(np.float32), e.astype(np.float32), np.float32(0.5)
    yield "1-D atoms", G[0], e[:1], 1.0
    yield "2-D errors", G, e[:, None], 1.0
    yield "row errors", G, e[None, :], 1.0
    yield "strided views", wide[::2, 1:-1:2], wide[::2, -1], 1.0
    yield "Fortran atoms", np.asfortranarray(G), e, 1.0
    yield "big-endian", G.astype(">f8"), e.astype(">f8"), 1.0
    yield "-0.0 errors", G, np.array([0.0, -0.0, 1.0, -0.0, 0.5]), 1.0
    yield "-1e-13 errors", G, np.array([0.0, -1e-13, 1.0, -0.0, -1e-12]), 1.0
    yield "scalar error", [[1.0, 2.0]], 0.25, 1.0


@pytest.mark.parametrize("atoms,errors,scale", [a[1:] for a in _instance_inputs()],
                         ids=[a[0] for a in _instance_inputs()])
def test_instance_stores_the_old_bytes(atoms, errors, scale):
    want_atoms, want_errors, want_scale = reference_instance_arrays(atoms, errors, scale)
    inst = SimplexQpInstance(atoms, errors, scale)
    for got, want in ((inst.atoms, want_atoms), (inst.errors, want_errors)):
        assert type(got) is np.ndarray and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
    # a float64 matrix is kept as given; the errors are always a fresh copy
    assert (inst.atoms is atoms) == (want_atoms is atoms)
    assert not np.shares_memory(inst.errors, np.asarray(errors))
    assert type(inst.penalty_scale) is float and inst.penalty_scale == want_scale


def _refused_inputs():
    G = np.ones((3, 2))
    yield "no atoms", np.empty((0, 2)), np.empty(0), 1.0
    yield "no atoms, list", [], [], 1.0
    yield "length mismatch", G, np.zeros(2), 1.0
    yield "length mismatch, 2-D errors", G, np.zeros((2, 2)), 1.0
    yield "nan atom", np.where(np.eye(3, 2) > 0, np.nan, G), np.zeros(3), 1.0
    yield "inf error", G, [0.0, np.inf, 0.0], 1.0
    yield "inf and -inf atoms", [[np.inf, -np.inf]] * 3, np.zeros(3), 1.0
    yield "negative error", G, [0.0, -1e-11, 0.0], 1.0
    yield "negative error, list", G.tolist(), [0.0, -2.0, -3.0], 1.0
    yield "zero scale", G, np.zeros(3), 0.0
    yield "nan scale", G, np.zeros(3), float("nan")
    yield "negative error and zero scale", G, [-1.0, 0.0, 0.0], 0.0
    yield "non-finite error and zero scale", G, [np.nan, 0.0, 0.0], 0.0


@pytest.mark.parametrize("atoms,errors,scale", [a[1:] for a in _refused_inputs()],
                         ids=[a[0] for a in _refused_inputs()])
def test_instance_refuses_what_the_old_one_refused(atoms, errors, scale):
    with pytest.raises(ValueError) as want:
        reference_instance_arrays(atoms, errors, scale)
    with pytest.raises(ValueError) as got:
        SimplexQpInstance(atoms, errors, scale)
    assert str(got.value) == str(want.value)


def test_matches_reference_on_warm_starts_of_any_form():
    # the float64 vector fast path and the conversion give the same weights
    rng = np.random.default_rng(109)
    for _ in range(50):
        inst = random_instance(rng, max_atoms=8, max_dim=5)
        p = inst.n_atoms
        warm = rng.uniform(0.0, 1.0, p)
        wide = np.zeros(2 * p)
        wide[::2] = warm
        for form in (warm, warm.tolist(), warm.astype(np.float32), warm[:, None],
                     wide[::2], np.array([-0.0] * p), np.full(p, np.inf)):
            assert_same_solution(inst, warm_start=form)


# ---------------------------------------------------------------------------
# finite checks under warnings as errors
# ---------------------------------------------------------------------------


def test_finite_check_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ([1e308, 1e308], [[1e308, -1e308], [1e308, 1e308]], [1.0, 2.0], []):
            assert qp._all_finite(np.array(a, dtype=float))
        for a in ([np.inf, -np.inf], [np.nan, 1.0], [[1.0], [-np.inf]], [1e308, np.nan]):
            assert not qp._all_finite(np.array(a, dtype=float))
        # a strided view is tested on its own elements
        a = np.array([1.0, np.inf, 2.0, np.nan, 3.0])
        assert qp._all_finite(a[::2]) and not qp._all_finite(a[1::2])


def test_warm_start_whose_sum_overflows_falls_back_to_the_cold_start():
    inst = SimplexQpInstance([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [0.0, 0.5, 0.25], 1.0)
    cold = solve_simplex_qp(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for warm in ([1e308, 1e308, 0.0], [1e308, 1e308, 1e308], [8e307, 8e307, -1.0],
                     [np.nan, 1.0, 1.0], [np.inf, 1.0, 0.0]):
            got = solve_simplex_qp(inst, warm_start=np.array(warm))
            assert got.lam.tobytes() == cold.lam.tobytes(), warm
            assert got.iterations == cold.iterations, warm
        # a large warm start whose sum is finite is still used
        big = solve_simplex_qp(inst, warm_start=np.array([1e307, 0.0, 1e307]))
    assert big.lam.tobytes() == reference_solve_simplex_qp(
        inst, warm_start=np.array([1e307, 0.0, 1e307])).lam.tobytes()


def test_instance_with_overflowing_sum_accepted_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = SimplexQpInstance([[1e308, 1e308]], [0.0], 1.0)
        with pytest.raises(ValueError, match="non-finite input"):
            SimplexQpInstance([[np.inf, -np.inf]], [0.0], 1.0)
    np.testing.assert_array_equal(inst.atoms, [[1e308, 1e308]])
    # G G' overflows: the solve, not the instance, refuses it, with its typed
    # error (numpy's own matmul warning is not what is tested here)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "overflow encountered in matmul", RuntimeWarning)
        with pytest.raises(QpFailureError, match="Gram matrix overflows"):
            solve_simplex_qp(inst)
