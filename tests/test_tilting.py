import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tiltlab.simplex import Alphabet, Distribution, entropy, kl_divergence, tv_distance
from tiltlab.tilting import (
    InfeasibleConstraintError,
    MomentConstraint,
    MomentFunction,
    SolverError,
    i_project,
    log_partition,
    moment_map,
    solve_moment_equality,
    tilt,
)

RNG = np.random.default_rng(7011)

DIE = Distribution.uniform(Alphabet.of_size(6))
DIE_H = MomentFunction.from_labels(DIE.alphabet)
COIN = Distribution.bernoulli(0.5)
COIN_H = MomentFunction.from_labels(COIN.alphabet)


def random_case(k: int, d: int = 1):
    p = Distribution(Alphabet.of_size(k), RNG.dirichlet(np.ones(k)))
    h = MomentFunction(p.alphabet, RNG.normal(size=(k, d)))
    lam = RNG.normal(size=d)
    return p, h, lam


@st.composite
def solve_cases(draw):
    """A Dirichlet baseline (some masses down to 1e-300), a random k x d value
    table and a target inside the hull, far outside it, or within 1e-8 to
    1e-3 of the segment between two value rows."""
    k, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = rng.dirichlet(np.ones(k))
    tiny = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    tiny[np.argmax(masses)] = False
    masses[tiny] = 10.0 ** -rng.uniform(5, 300, tiny.sum())
    table = rng.normal(size=(k, d))
    span = table.max(axis=0) - table.min(axis=0)
    kind = draw(st.sampled_from(["inside", "outside", "edge"]))
    if kind == "inside":
        alpha = rng.dirichlet(np.ones(k)) @ table
    elif kind == "outside":
        alpha = table.mean(axis=0) + 2 * span * rng.normal(size=d)
    else:
        a, b = rng.choice(k, 2, replace=False)
        t = rng.uniform()
        u = rng.normal(size=d)
        alpha = t * table[a] + (1 - t) * table[b] + 10 ** -rng.uniform(3, 8) * span * u / np.linalg.norm(u)
    p = Distribution(Alphabet.of_size(k), masses / masses.sum())
    return p, MomentFunction(p.alphabet, table), alpha


_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def hull_depth(table: np.ndarray, alpha: np.ndarray) -> float:
    """Signed depth of alpha in the hull of the rows of ``table``, by linprog,
    in units of each coordinate's span: minus the l-inf distance to the hull
    outside it, and inside it the least distance the hull extends from alpha
    along the 2d coordinate directions."""
    k, d = table.shape
    span = table.max(axis=0) - table.min(axis=0)
    weights_sum = np.hstack([np.ones((1, k)), [[0.0]]])
    # Outside: min t subject to |table^T w - alpha| <= t span, w in the simplex.
    res = linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.vstack([np.hstack([table.T, -span[:, None]]), np.hstack([-table.T, -span[:, None]])]),
        b_ub=np.r_[alpha, -alpha],
        A_eq=weights_sum, b_eq=[1.0], bounds=(0, None), method="highs", options=_HIGHS,
    )
    assert res.status == 0, res.message
    if res.fun > 0:
        return -res.fun
    depth = math.inf
    for j in range(d):
        for sign in (-1.0, 1.0):
            # Inside: max t subject to table^T w = alpha + t sign span_j e_j.
            e = np.zeros((d, 1))
            e[j] = sign * span[j]
            res = linprog(
                np.r_[np.zeros(k), -1.0],
                A_eq=np.vstack([np.hstack([table.T, -e]), weights_sum]), b_eq=np.r_[alpha, 1.0],
                bounds=(0, None), method="highs", options=_HIGHS,
            )
            if res.status == 2:  # infeasible: alpha is on the hull's boundary to the LP's tolerance
                return 0.0
            assert res.status == 0, res.message
            depth = min(depth, -res.fun)
    return depth


def solve_verdict(p, h, alpha):
    """(verdict, solution): the solution's status, or "infeasible" when the
    solve refuses the target and "short" when it stops short of its residual,
    with no solution."""
    try:
        sol = solve_moment_equality(p, h, alpha)
    except InfeasibleConstraintError:
        return "infeasible", None
    except SolverError:
        return "short", None
    return sol.status, sol


# ------------------------------------------------------------- construction


def test_constant_moment_function_rejected():
    with pytest.raises(ValueError, match="constant"):
        MomentFunction(Alphabet.of_size(3), np.array([2.0, 2.0, 2.0]))


def test_halfspace_must_be_scalar():
    h = MomentFunction(Alphabet.of_size(3), RNG.normal(size=(3, 2)))
    with pytest.raises(ValueError, match="one-dimensional"):
        MomentConstraint(h, "halfspace", [0.0, 0.0])


def test_window_must_sit_inside_value_range():
    with pytest.raises(ValueError, match="window"):
        MomentConstraint(COIN_H, "equality", [0.9], epsilon=0.2)


def test_holds_tolerance_and_open_window():
    # The die's values reach 6, so the tolerance is 6e-12.
    window = MomentConstraint(DIE_H, "equality", [3.5], epsilon=0.5)
    assert window.holds([3.0, 3.0 + 5e-12, 3.0 + 7e-12, 3.5, 4.0 - 7e-12, 4.0]).tolist() == [
        False, False, True, True, True, False,
    ]
    halfspace = MomentConstraint(DIE_H, "halfspace", [4.0])
    assert halfspace.holds(np.array([[4.0 - 7e-12], [4.0 - 5e-12], [5.0]])).tolist() == [False, True, True]
    pair = MomentFunction(DIE.alphabet, np.column_stack([np.arange(1.0, 7.0), np.arange(1.0, 7.0) ** 2]))
    equality = MomentConstraint(pair, "equality", [3.5, 15.0])
    assert equality.holds([[3.5, 15.0 + 3e-11], [3.5, 15.0 + 4e-11]]).tolist() == [True, False]
    with pytest.raises(ValueError, match="shape"):
        equality.holds([3.5, 15.0])


# ------------------------------------------------------------ log-partition


def test_log_partition_zero_multiplier():
    p, h, _ = random_case(5)
    assert log_partition(p, h, np.zeros(1)) == pytest.approx(0.0, abs=1e-14)


def test_log_partition_die_ln2():
    # sum of (1/6) 2^x over faces = 21, so the value is ln 21.
    assert log_partition(DIE, DIE_H, [math.log(2)]) == pytest.approx(math.log(21), abs=1e-12)


def test_log_partition_coin_unit_multiplier():
    assert log_partition(COIN, COIN_H, [1.0]) == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)


def test_log_partition_requires_positive_baseline():
    p = Distribution(Alphabet.of_size(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        log_partition(p, MomentFunction.from_labels(p.alphabet), [0.1])


# --------------------------------------------------------------------- tilt


def test_zero_tilt_returns_baseline_exactly():
    p, h, _ = random_case(4)
    assert tilt(p, h, np.zeros(1)) is p


def test_coin_tilt_ln3_gives_three_quarters():
    q = tilt(COIN, COIN_H, [math.log(3)])
    np.testing.assert_allclose(q.masses, [0.25, 0.75], atol=1e-14)


def test_tilt_round_trip():
    for _ in range(20):
        p, h, lam = random_case(5)
        back = tilt(tilt(p, h, lam), h, -lam)
        assert tv_distance(back, p) <= 1e-12


def test_tilt_stays_strictly_positive():
    q = tilt(DIE, DIE_H, [200.0])
    assert q.strictly_positive


# --------------------------------------------------------------- moment map


def test_moment_map_die_identity():
    assert moment_map(DIE, DIE_H, [0.0])[0] == pytest.approx(3.5, abs=1e-12)


def test_moment_map_coin_ln3():
    assert moment_map(COIN, COIN_H, [math.log(3)])[0] == pytest.approx(0.75, abs=1e-12)


def test_moment_map_monotone_toward_max():
    values = [moment_map(DIE, DIE_H, [lam])[0] for lam in (0.0, 1.0, 3.0, 10.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 5.99


def test_moment_map_is_gradient_of_log_partition():
    for _ in range(20):
        p, h, lam = random_case(4, d=2)
        grad = moment_map(p, h, lam)
        step = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (log_partition(p, h, lam + e) - log_partition(p, h, lam - e)) / (2 * step)
            assert abs(grad[j] - fd) <= 1e-6


def test_log_partition_midpoint_convexity():
    for _ in range(20):
        p, h, _ = random_case(4)
        l1, l2 = RNG.normal(size=(2, 1))
        mid = log_partition(p, h, (l1 + l2) / 2)
        assert mid <= (log_partition(p, h, l1) + log_partition(p, h, l2)) / 2 + 1e-12


# ----------------------------------------------------------- equality solve


def test_die_mean_45_solution():
    sol = solve_moment_equality(DIE, DIE_H, [4.5])
    assert sol.status == "active"
    assert abs(sol.multiplier[0]) == pytest.approx(0.37105, abs=1e-4)
    assert sol.residual <= 1e-10
    reference = (0.054, 0.079, 0.114, 0.165, 0.240, 0.347)
    np.testing.assert_allclose(sol.tilted.masses, reference, atol=1e-3)
    assert entropy(sol.tilted) == pytest.approx(1.61358, abs=1e-4)
    assert sol.divergence == pytest.approx(math.log(6) - 1.61358, abs=1e-4)


def test_die_mean_35_is_interior():
    sol = solve_moment_equality(DIE, DIE_H, [3.5])
    assert sol.status == "interior"
    assert np.all(sol.multiplier == 0.0)
    assert tv_distance(sol.tilted, DIE) == 0.0


def test_die_mean_65_boundary_infeasible():
    with pytest.raises(InfeasibleConstraintError) as exc:
        solve_moment_equality(DIE, DIE_H, [6.5])
    assert str(exc.value) == (
        "target [6.5] is not reachable by a tilt: it is outside (or on the boundary of) "
        "the convex hull of the moment values"
    )


def test_die_mean_exactly_six_boundary_infeasible():
    with pytest.raises(InfeasibleConstraintError, match="convex hull"):
        solve_moment_equality(DIE, DIE_H, [6.0])


@settings(max_examples=100, deadline=None)
@given(solve_cases())
def test_dual_identity(case):
    p, h, alpha = case
    solved = [(DIE_H, solve_moment_equality(DIE, DIE_H, [target])) for target in (2.0, 3.0, 4.5, 5.5)]
    verdict, random_sol = solve_verdict(p, h, alpha)
    if verdict == "active":
        solved.append((h, random_sol))
    for stat, sol in solved:
        mean = sol.tilted.masses @ stat.table
        lhs = sol.divergence
        rhs = float(sol.multiplier @ mean) - sol.log_partition
        assert abs(lhs - rhs) <= 1e-9


def test_two_dimensional_equality_solve():
    alphabet = Alphabet.of_size(4)
    p = Distribution.uniform(alphabet)
    h = MomentFunction(alphabet, np.column_stack([np.arange(1, 5), np.arange(1, 5) ** 2]))
    sol = solve_moment_equality(p, h, [3.0, 10.0])
    assert sol.status == "active"
    assert sol.residual <= 1e-10
    np.testing.assert_allclose(sol.tilted.masses @ h.table, [3.0, 10.0], atol=1e-10)


def test_random_scalar_targets_converge():
    for _ in range(20):
        p, h, _ = random_case(5)
        lo, hi = h.table[:, 0].min(), h.table[:, 0].max()
        alpha = lo + (hi - lo) * RNG.uniform(0.05, 0.95)
        sol = solve_moment_equality(p, h, [alpha])
        assert sol.status == "active"
        assert sol.residual <= 1e-10


def test_tiny_baseline_mass_solves_in_one_loop():
    # The tilted variance vanishes on the way to lambda ~ -114, so undamped
    # Newton steps blow up; the damped step must still reach the root.
    p = Distribution(Alphabet.of_size(3), np.array([1e-50, 0.5, 0.5]))
    sol = solve_moment_equality(p, MomentFunction.from_labels(p.alphabet), [1.5])
    assert sol.status == "active"
    assert sol.residual <= 1e-10
    assert sol.multiplier[0] == pytest.approx(-114.436, abs=1e-3)


@pytest.mark.parametrize(
    "mass,target,multiplier",
    [(1e-50, (1.51, 2.55), (-280.303, 55.282)), (1e-300, (1.9, 4.0), (-1720.938, 343.910))],
    ids=["1e-50", "1e-300"],
)
def test_near_degenerate_d2_solve(mass, target, multiplier):
    # The target is interior to the hull of (x, x^2) on 1..3, but the tiny
    # first mass puts the multiplier far out, where undamped Newton stalls.
    p = Distribution(Alphabet.of_size(3), np.array([mass, 0.5, 0.5]))
    h = MomentFunction(p.alphabet, np.array([[1.0, 1.0], [2.0, 4.0], [3.0, 9.0]]))
    sol = solve_moment_equality(p, h, target)
    assert sol.status == "active"
    assert sol.residual <= 1e-10
    np.testing.assert_allclose(sol.multiplier, multiplier, rtol=0, atol=1e-3)
    assert issubclass(SolverError, RuntimeError)
    assert not issubclass(SolverError, ValueError)


@pytest.mark.parametrize("eps", [0.0, 1e-8, 3e-8, 1e-7, 1e-5])
def test_targets_just_past_a_slanted_face_are_boundary_infeasible(eps):
    # (0.5 + eps)(1, 1) lies on (eps = 0) or outside the face x + y = 1 of
    # the triangle but inside both coordinate ranges, so only the separating
    # certificate can decide it.  On the face the solve converges, with a
    # multiplier near (34, 34), so the certificate must come first.  A hull
    # test whose feasibility tolerance is wider than the margin (an LP at
    # about 1e-7) takes 1e-8 and 3e-8 for interior points.
    p = Distribution.uniform(Alphabet.of_size(3))
    h = MomentFunction(p.alphabet, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(InfeasibleConstraintError, match="not reachable by a tilt"):
        solve_moment_equality(p, h, (0.5 + eps) * np.ones(2))
    if eps > 0:
        inside = solve_moment_equality(p, h, (0.5 - eps) * np.ones(2))
        assert inside.status == "active"
        assert inside.residual <= 1e-10


# A target 1e-10 off a segment hull: the reference's inner LPs are infeasible.
SEGMENT_CASE = (
    Distribution.uniform(Alphabet.of_size(2)),
    MomentFunction(Alphabet.of_size(2), np.array([[0.0, 0.0], [1.0, 1.0]])),
    np.array([0.5, 0.5 + 1e-10]),
)


@settings(max_examples=150, deadline=None)
@given(solve_cases())
@example(SEGMENT_CASE)
def test_hull_verdicts_match_linprog_reference(case):
    p, h, alpha = case
    depth = hull_depth(h.table, alpha)
    verdict, sol = solve_verdict(p, h, alpha)
    if abs(depth) > 1e-6:
        assert verdict == ("active" if depth > 0 else "infeasible")
    if verdict == "active":
        assert sol.residual <= 1e-10


# ---------------------------------------------------------------- i_project


def test_project_coin_onto_halfspace():
    c = MomentConstraint(COIN_H, "halfspace", [0.75])
    sol = i_project(COIN, c)
    assert sol.status == "active"
    np.testing.assert_allclose(sol.tilted.masses, [0.25, 0.75], atol=1e-10)


def test_project_inactive_halfspace_keeps_baseline():
    p = Distribution.bernoulli(0.9)
    c = MomentConstraint(MomentFunction.from_labels(p.alphabet), "halfspace", [0.75])
    sol = i_project(p, c)
    assert sol.status == "interior"
    assert np.all(sol.multiplier == 0.0)
    assert tv_distance(sol.tilted, p) == 0.0


def test_project_halfspace_equals_equality_solve_when_active():
    c = MomentConstraint(DIE_H, "halfspace", [4.5])
    by_projection = i_project(DIE, c)
    by_equality = solve_moment_equality(DIE, DIE_H, [4.5])
    assert np.array_equal(by_projection.tilted.masses, by_equality.tilted.masses)
    assert np.array_equal(by_projection.multiplier, by_equality.multiplier)


def test_project_window_with_the_baseline_mean_on_its_closed_end_keeps_baseline():
    # The die's mean 3.5 is the lower end of (3.5, 4.5): the closed window
    # holds it, so the projection is the baseline, not a tilt into the window.
    sol = i_project(DIE, MomentConstraint(DIE_H, "equality", [4.0], epsilon=0.5))
    assert sol.status == "interior"
    assert np.all(sol.multiplier == 0.0)
    assert sol.tilted is DIE


@pytest.mark.parametrize("target, end", [(2.5, 3.0), (5.0, 4.5)])
def test_project_window_tilts_to_the_nearest_end(target, end):
    # (2.0, 3.0) lies below the die's mean and (4.5, 5.5) above it.
    sol = i_project(DIE, MomentConstraint(DIE_H, "equality", [target], epsilon=0.5))
    assert sol.status == "active"
    assert np.array_equal(sol.tilted.masses, solve_moment_equality(DIE, DIE_H, [end]).tilted.masses)
    assert abs(float(sol.tilted.masses @ DIE_H.table[:, 0]) - end) <= 1e-10


def test_project_infeasible_halfspace():
    c = MomentConstraint(DIE_H, "halfspace", [6.5])
    with pytest.raises(InfeasibleConstraintError, match="convex hull"):
        i_project(DIE, c)


def test_projection_output_is_feasible():
    for target in (0.55, 0.75, 0.9):
        c = MomentConstraint(COIN_H, "halfspace", [target])
        sol = i_project(COIN, c)
        mean = float(sol.tilted.masses @ COIN_H.table[:, 0])
        assert mean >= target - 1e-10
    for target in (2.5, 4.5):
        sol = i_project(DIE, MomentConstraint(DIE_H, "equality", [target]))
        assert abs(float(sol.tilted.masses @ DIE_H.table[:, 0]) - target) <= 1e-10


def test_pythagorean_inequality_for_active_halfspace():
    c = MomentConstraint(COIN_H, "halfspace", [0.75])
    star = i_project(COIN, c).tilted
    d_star = kl_divergence(star, COIN)
    for q1 in np.linspace(0.75, 0.999, 40):
        q = Distribution.bernoulli(float(q1))
        assert kl_divergence(q, COIN) >= kl_divergence(q, star) + d_star - 1e-8
