import dataclasses

import numpy as np
import pointwise_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscompare.fields import as_point
from viscompare.hamiltonians import (
    GameHamiltonian,
    HamiltonianDomainError,
    MinConvexHamiltonian,
    PowerHamiltonian,
    SignedScalarHamiltonian,
    check_A4,
    check_H1_convexity,
    check_H2_bounds,
    check_H2prime,
    check_H3_homogeneity,
    check_H4_modulus,
    compute_gamma,
    estimate_C0,
    estimate_delta,
    hamiltonian_slope,
    on_grid,
)


def make_game(sigmas, taus, n=1):
    """Game form over explicit per-index constant matrices."""
    alpha_set = tuple(range(len(sigmas)))
    beta_set = tuple(range(len(sigmas[0])))
    sig = lambda x, a, b: np.atleast_2d(np.asarray(sigmas[a][b], dtype=float))
    tau = lambda x, a, b: np.atleast_2d(np.asarray(taus[a][b], dtype=float))
    return GameHamiltonian(alpha_set, beta_set, sig, tau)


class Shifted:
    """Convex quadratic (xi_0 - c)^2 with no analytic slope and no grid form."""

    def __init__(self, c):
        self.c = c
        self.q = 2.0

    def __call__(self, x, xi):
        return (float(np.atleast_1d(xi)[0]) - self.c) ** 2


def brute_force_game(H, x, xi):
    """Independent oracle: direct min-max enumeration of the oracle's terms."""
    vals_b = []
    for b in H.beta_set:
        vals_b.append(max(oracle.game_term(H, x, xi, a, b) for a in H.alpha_set))
    return min(vals_b)


def test_power_eval():
    H = PowerHamiltonian(A=np.eye(2), q=2.0)
    assert H(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_power_domain_error_names_point():
    H = PowerHamiltonian(A=-np.eye(1), q=3.0)
    with pytest.raises(HamiltonianDomainError) as err:
        H(np.array([0.7]), np.array([1.0]))
    assert "0.7" in str(err.value)


def test_power_negative_base_integer_exponent_ok():
    # q/2 integer: negative quadratic form is allowed
    H = PowerHamiltonian(A=-np.eye(1), q=2.0)
    assert H(np.zeros(1), np.array([2.0])) == pytest.approx(-4.0)


def test_game_two_sigmas():
    # singleton beta, alpha in {sigma=1, sigma=2}, tau = 0, xi = 1 -> 4
    H = make_game([[1.0], [2.0]], [[0.0], [0.0]])
    x, xi = np.zeros(1), np.ones(1)
    assert H(x, xi) == pytest.approx(4.0)
    assert brute_force_game(H, x, xi) == pytest.approx(4.0)


def test_game_sigma_equals_tau_is_zero():
    H = make_game([[1.3], [0.4]], [[1.3], [0.4]])
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert H(rng.normal(size=1), rng.normal(size=1)) == pytest.approx(0.0, abs=1e-14)


def test_game_brute_force_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(200):
        na, nb = rng.integers(1, 5), rng.integers(1, 5)
        N = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        sigmas = [[rng.normal(size=(N, n)) for _ in range(nb)] for _ in range(na)]
        taus = [[rng.normal(size=(N, n)) for _ in range(nb)] for _ in range(na)]
        H = make_game(sigmas, taus)
        x, xi = rng.normal(size=N), rng.normal(size=N)
        assert H(x, xi) == pytest.approx(brute_force_game(H, x, xi), abs=1e-12)


def test_game_orthogonal_invariance():
    rng = np.random.default_rng(2)
    for _ in range(25):
        N, n = 2, 3
        S = [[rng.normal(size=(N, n)) for _ in range(2)] for _ in range(2)]
        T = [[rng.normal(size=(N, n)) for _ in range(2)] for _ in range(2)]
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Qt, _ = np.linalg.qr(rng.normal(size=(n, n)))
        H = make_game(S, T)
        H_rot = make_game(
            [[S[a][b] @ Q for b in range(2)] for a in range(2)],
            [[T[a][b] @ Qt for b in range(2)] for a in range(2)],
        )
        x, xi = rng.normal(size=N), rng.normal(size=N)
        assert H(x, xi) == pytest.approx(H_rot(x, xi), abs=1e-10)


def test_game_decoupled_identity():
    # sigma depends only on beta, tau only on alpha:
    # H = min_b |sigma_b^T xi|^2 - min_a |tau_a^T xi|^2
    rng = np.random.default_rng(3)
    for _ in range(200):
        na, nb = rng.integers(1, 5), rng.integers(1, 5)
        N, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sig_b = [rng.normal(size=(N, n)) for _ in range(nb)]
        tau_a = [rng.normal(size=(N, n)) for _ in range(na)]
        sigmas = [[sig_b[b] for b in range(nb)] for _ in range(na)]
        taus = [[tau_a[a] for _ in range(nb)] for a in range(na)]
        H = make_game(sigmas, taus)
        x, xi = rng.normal(size=N), rng.normal(size=N)
        direct = min(np.dot(s.T @ xi, s.T @ xi) for s in sig_b) - min(
            np.dot(t.T @ xi, t.T @ xi) for t in tau_a
        )
        assert H(x, xi) == pytest.approx(direct, abs=1e-12)


def test_H1_power_passes():
    H = PowerHamiltonian(A=np.array([[2.0, 0.5], [0.5, 1.0]]), q=2.0)
    xs = [np.zeros(2), np.ones(2)]
    pairs = [(np.array([1.0, 0.0]), np.array([-1.0, 2.0]))]
    rep = check_H1_convexity(H, xs, pairs, (0.25, 0.5, 0.75))
    assert rep.passed


def test_H1_concave_signed_fails_with_witness():
    H = SignedScalarHamiltonian(a=-1.0, q=2.0)
    e1 = np.array([1.0])
    rep = check_H1_convexity(H, [np.zeros(1)], [(e1, -e1)], (0.5,))
    assert not rep.passed
    # midpoint 0 gives H=0 > average -1
    assert rep.worst == pytest.approx(1.0)
    assert rep.witness is not None


def test_H1_min_of_crossing_convex_components_fails():
    # two crossing convex quadratics (xi -+ 1)^2; their min is W-shaped.
    # located by 1-d scan: worst midpoint violation at xi1 = -xi2 = 1
    H = MinConvexHamiltonian(components=(Shifted(1.0), Shifted(-1.0)), q=2.0)
    grid = np.linspace(-2, 2, 81)
    worst_scan = max(
        H(np.zeros(1), np.array([0.5 * (a + b)]))
        - 0.5 * (H(np.zeros(1), np.array([a])) + H(np.zeros(1), np.array([b])))
        for a in grid
        for b in grid
    )
    assert worst_scan > 0.5  # genuine violation exists
    rep = check_H1_convexity(
        H, [np.zeros(1)], [(np.array([1.0]), np.array([-1.0]))], (0.5,)
    )
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0)  # min at 0 is 1, endpoints are 0


def test_H2_identity_power_zero_slack():
    H = PowerHamiltonian(A=np.eye(2), q=2.0)
    samples = [(np.zeros(2), np.array([1.0, 2.0])), (np.ones(2), np.array([-3.0, 0.5]))]
    rep = check_H2_bounds(H, 1.0, 1.0, samples)
    assert rep.passed
    assert rep.worst == pytest.approx(0.0, abs=1e-12)


def test_H2_variable_diagonal_window():
    # A(x) = diag(1, 1+x1^2) on |x| <= 2: eigenvalues in [1, 5]
    H = PowerHamiltonian(A=lambda x: np.diag([1.0, 1.0 + float(x[0]) ** 2]), q=2.0)
    rng = np.random.default_rng(4)
    samples = [(rng.uniform(-2, 2, 2), rng.normal(size=2)) for _ in range(100)]
    rep = check_H2_bounds(H, 1.0, 5.0, samples)
    assert rep.passed


def test_H2_sign_changing_fails():
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    samples = [(np.array([-1.0]), np.array([1.0]))]
    with pytest.raises(ValueError):
        # delta must be positive on samples
        check_H2_bounds(H, lambda x: float(x[0]), 1.0, samples)
    rep = check_H2_bounds(H, 0.5, 1.0, samples)
    assert not rep.passed


def test_H3_zero_theta():
    H = PowerHamiltonian(A=np.eye(1), q=2.0)
    rep = check_H3_homogeneity(H, [(np.zeros(1), np.array([2.0]))], (0.0,))
    assert rep.passed  # H(x, 0) = 0


def test_H3_power_factor_four():
    H = PowerHamiltonian(A=np.eye(2), q=2.0)
    xi = np.array([1.0, -2.0])
    assert H(np.zeros(2), 2.0 * xi) == pytest.approx(4.0 * H(np.zeros(2), xi))


def test_H3_game_factor_nine():
    rng = np.random.default_rng(5)
    H = make_game(
        [[rng.normal(size=(2, 2)) for _ in range(2)] for _ in range(2)],
        [[rng.normal(size=(2, 2)) for _ in range(2)] for _ in range(2)],
    )
    for _ in range(20):
        x, xi = rng.normal(size=2), rng.normal(size=2)
        assert H(x, 3.0 * xi) == pytest.approx(9.0 * brute_force_game(H, x, xi), rel=1e-12)


def test_H3_exact_for_all_forms():
    rng = np.random.default_rng(6)
    game = make_game([[1.0], [2.0]], [[0.5], [0.3]])
    forms = [
        PowerHamiltonian(A=np.array([[2.0, 0.3], [0.3, 1.0]]), q=3.0),
        SignedScalarHamiltonian(a=lambda x: float(x[0]), q=1.5),
        MinConvexHamiltonian(
            components=(PowerHamiltonian(A=np.eye(2), q=2.0),
                        PowerHamiltonian(A=4.0 * np.eye(2), q=2.0)),
            q=2.0,
        ),
    ]
    for H in forms:
        samples = [(rng.uniform(-2, 2, 2), rng.normal(size=2)) for _ in range(10)]
        assert check_H3_homogeneity(H, samples, (0.0, 0.5, 2.0, 3.0)).passed
    samples1 = [(rng.uniform(-2, 2, 1), rng.normal(size=1)) for _ in range(10)]
    assert check_H3_homogeneity(game, samples1, (0.0, 0.5, 2.0, 3.0)).passed


def test_H4_constant_in_x():
    H = PowerHamiltonian(A=np.eye(1), q=2.0)
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1), rng.normal(size=1))
             for _ in range(200)]
    rep = check_H4_modulus(H, 3.0, pairs)
    assert rep.passed
    assert max(v for v in rep.values if not np.isnan(v)) == pytest.approx(0.0, abs=1e-12)


def test_H4_linear_coefficient_bins_track_width():
    # a(x) = x, q = 2: |H(x,xi)-H(y,xi)|/|xi|^2 = |x - y| exactly
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    rng = np.random.default_rng(8)
    pairs = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1), rng.normal(size=1))
             for _ in range(400)]
    rep = check_H4_modulus(H, 3.0, pairs)
    assert rep.passed
    edges = np.asarray(rep.bin_edges)
    for i, v in enumerate(rep.values):
        if not np.isnan(v):
            assert v <= edges[i + 1] + 1e-12
            assert v >= edges[i] - 1e-12


def test_H4_lipschitz_power_bounded_by_matrix_lipschitz():
    H = PowerHamiltonian(A=lambda x: np.array([[1.0 + 0.5 * np.sin(float(x[0]))]]), q=2.0)
    rng = np.random.default_rng(9)
    pairs = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1), rng.normal(size=1))
             for _ in range(400)]
    # sampled matrix Lipschitz bound on the same pairs
    lip = max(
        abs(0.5 * (np.sin(float(x[0])) - np.sin(float(y[0])))) / abs(float(x[0]) - float(y[0]))
        for x, y, _ in pairs
        if abs(float(x[0]) - float(y[0])) > 1e-12
    )
    rep = check_H4_modulus(H, 3.0, pairs)
    edges = np.asarray(rep.bin_edges)
    for i, v in enumerate(rep.values):
        if not np.isnan(v):
            assert v <= lip * edges[i + 1] + 1e-9


def test_H2prime_identity_pass():
    H = make_game([[np.eye(2)], [np.eye(2)]], [[np.zeros((2, 2))], [np.zeros((2, 2))]], n=2)
    rep = check_H2prime(H, 1.0, 1.0, [np.zeros(2), np.ones(2)])
    assert rep.passed


def test_H2prime_sigma_equals_tau_fails():
    H = make_game([[np.eye(1)], [2.0 * np.eye(1)]], [[np.eye(1)], [2.0 * np.eye(1)]])
    rep = check_H2prime(H, 0.1, 10.0, [np.zeros(1)])
    assert not rep.passed
    assert rep.witness[0] == "(ii)"


def test_H2prime_witness_enumeration():
    # N=1, S in {2, 0.5} over alpha, T = 0.25: alpha witness is the S=2 index
    H = make_game(
        [[np.array([[np.sqrt(2.0)]])], [np.array([[np.sqrt(0.5)]])]],
        [[np.array([[0.5]])], [np.array([[0.5]])]],
    )
    rep = check_H2prime(H, 0.25, 2.0, [np.zeros(1)])
    assert rep.passed
    assert rep.extra["alpha_witnesses"][(0, 0)] == 0
    # oracle: enumerate the 2x1 index grid
    S_minus_T = [H.S(np.zeros(1), a, 0) - H.T(np.zeros(1), a, 0) for a in (0, 1)]
    assert S_minus_T[0][0, 0] == pytest.approx(1.75)
    assert S_minus_T[1][0, 0] == pytest.approx(0.25)


def test_H2prime_implies_H2_bounds_on_samples():
    H = make_game(
        [[np.array([[1.5]]), np.array([[1.2]])], [np.array([[1.0]]), np.array([[2.0]])]],
        [[np.array([[0.3]]), np.array([[0.2]])], [np.array([[0.1]]), np.array([[0.4]])]],
    )
    xs = [np.zeros(1), np.ones(1)]
    delta, C0 = 0.5, 4.5
    rep = check_H2prime(H, delta, C0, xs)
    assert rep.passed
    rng = np.random.default_rng(10)
    for x in xs:
        for _ in range(50):
            xi = rng.normal(size=1)
            v = H(x, xi)
            assert v >= delta * np.dot(xi, xi) - 1e-12
            assert v <= C0 * np.dot(xi, xi) + 1e-12


def test_min_convex_witness_invariant():
    comps = (PowerHamiltonian(A=np.eye(1), q=2.0),
             PowerHamiltonian(A=4.0 * np.eye(1), q=2.0))
    H = MinConvexHamiltonian(components=comps, q=2.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, xi = rng.normal(size=1), rng.normal(size=1)
        v, k = oracle.min_convex_value_with_witness(H, x, xi)
        assert all(v <= comps[j](x, xi) + 1e-14 for j in range(2))
        assert v == pytest.approx(comps[k](x, xi))
        assert H(x, xi) == v


def test_compute_gamma_linear():
    grid = np.linspace(-1, 1, 21)
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    part = compute_gamma(H, grid)
    assert part.gamma_points.shape == (1, 1)
    assert part.gamma_points[0, 0] == pytest.approx(0.0)
    assert (part.omega_plus > 0).all() and (part.omega_minus < 0).all()
    assert part.covers(21)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_compute_gamma_puts_non_finite_a_in_no_part(bad):
    # a(x) = x up to 0.5, not finite beyond: the tolerance comes from the
    # finite values, so the zero at x = 0 stays in Gamma and the partition
    # misses exactly the six non-finite points
    grid = np.linspace(-1, 1, 21)
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]) if x[0] <= 0.5 else bad, q=2.0)
    part = compute_gamma(H, grid)
    assert np.array_equal(part.gamma_points, grid[10:11].reshape(-1, 1))
    assert part.tol == compute_gamma(SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0),
                                     grid[:16]).tol
    assert len(part.omega_plus) == 5 and len(part.omega_minus) == 10
    assert not part.covers(21)


def test_compute_gamma_positive_constant():
    H = SignedScalarHamiltonian(a=1.0, q=2.0)
    part = compute_gamma(H, np.linspace(-1, 1, 11))
    assert len(part.gamma_points) == 0
    assert len(part.omega_plus) == 11


def test_compute_gamma_quadratic_roots():
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]) ** 2 - 1.0, q=2.0)
    grid = np.linspace(-2, 2, 161)  # contains +-1 exactly
    part = compute_gamma(H, grid)
    roots = sorted(float(p[0]) for p in part.gamma_points)
    assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_compute_gamma_and_A4_on_one_2d_point():
    # a (1, 2) array is one point in 2-d, not two points in 1-d
    H = SignedScalarHamiltonian(a=lambda x: float(as_point(x, 2)[0]) ** 3, q=2.0)
    point = np.array([[0.0, 0.5]])
    part = compute_gamma(H, point)
    assert np.array_equal(part.gamma_points, point)
    rep = check_A4(H, point, r=1.0, C1_candidate=10.0)
    assert rep.passed
    assert rep.witness[0].shape == (2,)


def test_A4_linear_a_fails():
    # |a(x)| = |x| against C1 |x|^2: ratio 1/|x| blows up near Gamma
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0)
    rep = check_A4(H, np.array([[0.0]]), r=1.0, C1_candidate=1.0)
    assert not rep.passed
    assert rep.extra["C1_required"] > 100.0


def test_A4_quadratic_a_passes_with_C1_one():
    H = SignedScalarHamiltonian(a=lambda x: float(x[0]) ** 2, q=2.0)
    rep = check_A4(H, np.array([[0.0]]), r=1.0, C1_candidate=1.0)
    assert rep.passed
    assert rep.extra["C1_required"] == pytest.approx(1.0, rel=1e-9)


def test_A4_sine_squared_passes():
    H = SignedScalarHamiltonian(a=lambda x: np.sin(float(x[0])) ** 2, q=2.0)
    rep = check_A4(H, np.array([[0.0]]), r=0.5, C1_candidate=1.0 + 1e-6)
    assert rep.passed


def test_estimate_delta_and_C0():
    H = PowerHamiltonian(A=lambda x: np.diag([1.0, 1.0 + float(x[0]) ** 2]), q=2.0)
    xs = [np.array([v, 0.0]) for v in np.linspace(-2, 2, 9)]
    assert estimate_delta(H, xs) == pytest.approx(1.0)
    assert estimate_C0(H, xs) == pytest.approx(5.0)


def test_slope_matches_fd():
    rng = np.random.default_rng(12)
    forms = [
        PowerHamiltonian(A=np.array([[2.0, 0.3], [0.3, 1.0]]), q=2.0),
        PowerHamiltonian(A=np.eye(2), q=3.0),
        SignedScalarHamiltonian(a=lambda x: float(x[0]), q=2.0),
    ]
    for H in forms:
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            xi = rng.uniform(0.2, 2.0, 2)
            s = H.slope(x, xi)
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1e-6
                fd = (H(x, xi + e) - H(x, xi - e)) / 2e-6
                assert s[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_generic_slope_fd_dispatch():
    H = lambda x, xi: float(np.dot(xi, xi)) ** 1.5
    s = hamiltonian_slope(H, np.zeros(2), np.array([1.0, 0.0]))
    assert s[0] == pytest.approx(3.0, rel=1e-5)


# ---------------------------------------------------------------------------
# grid evaluators against the pointwise oracle (tests/pointwise_oracle.py)


def grid_inputs(N, n=60, seed=0):
    """Nodes and gradients with zero gradients and an exact tie row."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(n, N))
    G = rng.normal(scale=1.5, size=(n, N))
    G[:4] = 0.0
    G[4:8] = 1.0  # diag(1,2) vs diag(2,1) forms tie at (1, 1)
    G[8] = -0.0
    return points, G


def assert_grid_matches_pointwise(H, points, G):
    """The grid and the one-node calls H(x, g), hamiltonian_slope(H, x, g)
    equal the pointwise oracle at every node."""
    grid = on_grid(H, points)
    want_v = np.array([oracle.value(H, x, g) for x, g in zip(points, G)])
    want_s = np.array([oracle.slope(H, x, g) for x, g in zip(points, G)])
    got_v, got_s = grid.values(G), grid.slopes(G)
    assert np.array_equal(got_v, want_v)
    assert np.array_equal(got_s, want_s)
    assert np.array_equal([H(x, g) for x, g in zip(points, G)], want_v)
    assert np.array_equal([hamiltonian_slope(H, x, g) for x, g in zip(points, G)], want_s)
    return got_v, got_s


def poly_matrix(N):
    # symmetric positive definite A(x) with x-dependent entries
    def A(x):
        x = np.atleast_1d(x)
        M = np.diag(0.5 + 0.1 * x**2)
        if N == 2:
            M[0, 1] = M[1, 0] = 0.05 * x[0] * x[1] / (1.0 + x[0] ** 2 + x[1] ** 2)
        return M
    return A


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("q", [2.0, 1.5, 3.0, 2.5, 4.0])
def test_power_grid_matches_pointwise(N, q):
    points, G = grid_inputs(N, seed=int(10 * q) + N)
    assert_grid_matches_pointwise(PowerHamiltonian(A=poly_matrix(N), q=q), points, G)
    assert_grid_matches_pointwise(PowerHamiltonian(A=2.0 * np.eye(N), q=q), points, G)


@pytest.mark.parametrize("N", [1, 2])
def test_power_grid_indefinite_even_power(N):
    # q = 4: q/2 is an integer, so negative <A xi, xi> is allowed
    points, G = grid_inputs(N, seed=3)
    A = np.diag([1.0, -1.0][:N]) if N == 2 else -np.eye(1)
    v, _ = assert_grid_matches_pointwise(PowerHamiltonian(A=A, q=4.0), points, G)
    assert (v < 0).any()


def test_power_grid_domain_error_names_first_node():
    points, G = grid_inputs(2, seed=5)
    H = PowerHamiltonian(A=np.diag([1.0, -1.0]), q=3.0)
    s = G[:, 0] ** 2 - G[:, 1] ** 2
    first = int(np.flatnonzero(s < 0)[0])
    with pytest.raises(HamiltonianDomainError) as pointwise:
        oracle.power_value(H, points[first], G[first])
    with pytest.raises(HamiltonianDomainError) as grid:
        on_grid(H, points).values(G)
    assert str(grid.value) == str(pointwise.value)
    with pytest.raises(HamiltonianDomainError) as one_node:
        H(points[first], G[first])
    assert str(one_node.value) == str(pointwise.value)
    assert f"at x = {points[first]}" in str(grid.value)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
def test_signed_grid_matches_pointwise(N, q):
    points, G = grid_inputs(N, seed=int(10 * q) + 7 * N)
    H = SignedScalarHamiltonian(a=lambda x: float(np.atleast_1d(x)[0]) ** 3, q=q)
    assert_grid_matches_pointwise(H, points, G)
    assert_grid_matches_pointwise(SignedScalarHamiltonian(a=-0.5, q=q), points, G)


@pytest.mark.parametrize("N", [1, 2])
def test_minconvex_grid_matches_pointwise_lowest_index_on_ties(N):
    points, G = grid_inputs(N, seed=11)
    if N == 1:
        comps = (PowerHamiltonian(A=np.eye(1), q=2.0), PowerHamiltonian(A=np.eye(1), q=2.0),
                 PowerHamiltonian(A=4.0 * np.eye(1), q=2.0))
    else:
        comps = (PowerHamiltonian(A=np.diag([1.0, 2.0]), q=2.0),
                 PowerHamiltonian(A=np.diag([2.0, 1.0]), q=2.0),
                 SignedScalarHamiltonian(a=3.0, q=2.0))
    H = MinConvexHamiltonian(components=comps, q=2.0)
    _, slopes = assert_grid_matches_pointwise(H, points, G)
    if N == 2:
        # at xi = (1, 1) the first two components tie; component 0 wins
        assert np.array_equal(slopes[4], [2.0, 4.0])


def test_minconvex_grid_nodewise_component():
    points, G = grid_inputs(1, seed=13)
    G[10:14] = 0.0  # Shifted(1) and Shifted(-1) tie at xi = 0
    H = MinConvexHamiltonian(components=(Shifted(1.0), PowerHamiltonian(A=np.eye(1), q=2.0),
                                         Shifted(-1.0)), q=2.0)
    assert_grid_matches_pointwise(H, points, G)


def x_dependent_game():
    return GameHamiltonian((0, 1), (0, 1, 2),
                           lambda x, a, b: np.diag(1.0 + 0.1 * (a + 1) * np.abs(x) + 0.05 * b),
                           lambda x, a, b: 0.2 * np.diag(np.cos(x + a - b)))


@pytest.mark.parametrize("N", [1, 2])
def test_game_grid_matches_pointwise_lowest_index_on_ties(N):
    points, G = grid_inputs(N, seed=17)
    I = np.eye(N)
    if N == 1:
        sigmas = [[1.0 * I, 1.2 * I], [1.0 * I, 1.5 * I]]  # alpha rows tie for beta 0
        taus = [[0.25 * I, 0.1 * I], [0.25 * I, 0.2 * I]]
    else:
        sigmas = [[np.diag([1.0, 2.0]), 3.0 * I], [np.diag([2.0, 1.0]), np.diag([3.0, 2.5])]]
        taus = [[0.25 * I, 0.1 * I], [0.25 * I, np.diag([0.2, 0.3])]]
    H = make_game(sigmas, taus)
    _, slopes = assert_grid_matches_pointwise(H, points, G)
    if N == 2:
        # at xi = (1, 1) alpha = 0 and alpha = 1 tie under beta = 0; alpha 0 wins
        want = 2.0 * (np.diag([1.0, 4.0]) - 0.0625 * I) @ np.ones(2)
        assert np.array_equal(slopes[4], want)
    # x-dependent sigma through the whole stack
    assert_grid_matches_pointwise(x_dependent_game(), points, G)


def test_nodewise_and_zero_grids():
    points, G = grid_inputs(2, seed=19)
    assert_grid_matches_pointwise(Shifted(0.5), points, G)
    zero = on_grid(None, points)
    assert np.array_equal(zero.values(G), np.zeros(len(points)))
    assert np.array_equal(zero.slopes(G), np.zeros_like(G))


SHAPES = {
    "power": lambda N: PowerHamiltonian(A=poly_matrix(N), q=3.0),
    "signed": lambda N: SignedScalarHamiltonian(a=lambda x: float(x[0]) ** 3 - 0.5, q=1.5),
    "min_convex": lambda N: MinConvexHamiltonian(
        components=(PowerHamiltonian(A=poly_matrix(N), q=2.0),
                    SignedScalarHamiltonian(a=0.75, q=2.0)), q=2.0),
    "game": lambda N: x_dependent_game(),
}
coordinate = st.floats(-2.0, 2.0)
gradient = st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)
nodes = st.lists(st.tuples(st.tuples(coordinate, coordinate), st.tuples(gradient, gradient)),
                 min_size=1, max_size=4)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(nodes=nodes)
@example(nodes=[((0.5, -1.0), (0.0, 0.0)), ((0.5, -1.0), (-0.0, -0.0)), ((0.0, 0.0), (-0.0, 1.0))])
def test_one_node_calls_and_grids_equal_the_oracle_bit_for_bit(shape, N, nodes):
    """H(x, xi), H.slope(x, xi) and the grid's values and slopes over all the
    nodes at once equal the pointwise oracle, signed zeros included."""
    H = SHAPES[shape](N)
    points = np.array([x[:N] for x, _ in nodes])
    G = np.array([g[:N] for _, g in nodes])
    want_v = [oracle.value(H, x, g) for x, g in zip(points, G)]
    want_s = [oracle.slope(H, x, g) for x, g in zip(points, G)]
    assert bits([H(x, g) for x, g in zip(points, G)]) == bits(want_v)
    assert bits([H.slope(x, g) for x, g in zip(points, G)]) == bits(want_s)
    grid = on_grid(H, points)
    assert bits(grid.values(G)) == bits(want_v)
    assert bits(grid.slopes(G)) == bits(want_s)


# ---------------------------------------------------------------------------
# the sampled checkers evaluate H on one grid per sample set


@dataclasses.dataclass(frozen=True)
class GridCounting(PowerHamiltonian):
    """A power form that records the node count of every grid it builds."""

    grids: list = dataclasses.field(default_factory=list, compare=False)

    def on_grid(self, points):
        self.grids.append(len(points))
        return super().on_grid(points)


def test_h_checkers_build_one_grid_per_sample_set():
    H = GridCounting(A=np.diag([1.0, 2.0]), q=2.0)
    xs = [np.full(2, v) for v in (-1.0, 0.0, 1.0)]
    xis = [np.array([1.0, -0.5]), np.array([0.3, 2.0])]
    assert check_H1_convexity(H, xs, [(xis[0], xis[1])], (0.25, 0.5, 0.75)).passed
    assert check_H2_bounds(H, 0.5, 2.5, [(x, xi) for x in xs for xi in xis]).passed
    pairs = [(x, y, xi) for x in xs for y in xs for xi in xis if not np.array_equal(x, y)]
    check_H4_modulus(H, 2.0, pairs)
    check_A4(H, np.zeros((1, 2)), 1.0, 10.0)
    # H1: xi1, xi2 and three mixes per x; H2: one per sample; H4: x and y per
    # pair; A4: 12 radii x 16 directions x 32 gradients around one point
    assert H.grids == [3 * 5, 6, 2 * len(pairs), 12 * 16 * 32]


def test_h1_checks_the_t_samples_before_evaluating_h():
    H = PowerHamiltonian(A=-np.eye(1), q=3.0)  # a domain error at every xi != 0
    with pytest.raises(ValueError, match=r"t samples must lie in \(0,1\), got 1\.5"):
        check_H1_convexity(H, [np.zeros(1)], [(np.ones(1), -np.ones(1))], (0.5, 1.5))


def test_batched_h_checkers_name_the_first_bad_node_in_evaluation_order():
    # A(x) = x: <A xi, xi> < 0 first at x = -0.5 in the order H1 evaluates
    H = PowerHamiltonian(A=lambda x: np.array([[float(x[0])]]), q=3.0)
    xs = [np.array([v]) for v in (0.5, -0.5, -2.0)]
    with pytest.raises(HamiltonianDomainError, match=r"at x = \[-0\.5\]"):
        check_H1_convexity(H, xs, [(np.ones(1), -np.ones(1))], (0.5,))
    with pytest.raises(HamiltonianDomainError, match=r"at x = \[-2\.\]"):
        check_H4_modulus(H, 3.0, [(np.array([1.0]), np.array([-2.0]), np.ones(1))])
