from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtrack import local_solver
from dmtrack.errors import SolverFailure
from dmtrack.local_solver import (
    argmin_local,
    inner_tolerance,
    solve_all_from_c,
)
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost

from conftest import box_contains, conjugate_smoothness_check
from test_engine import nondiagonal3


def random_cost_box(rng, p, diagonal):
    if diagonal:
        U = np.diag(rng.uniform(0.5, 4.0, p))
    else:
        M = rng.normal(size=(p, p))
        U = M @ M.T + 0.5 * np.eye(p)
    v = rng.normal(size=p)
    lo = rng.uniform(-2.0, 0.0, p)
    hi = lo + rng.uniform(0.1, 3.0, p)
    return QuadraticCost(U=U, v=v), BoxSet(lower=lo, upper=hi)


def test_diagonal_closed_form():
    cost = QuadraticCost(U=np.diag([2.0, 4.0]), v=np.array([1.0, -1.0]))
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    res = argmin_local(cost, box, np.zeros(2))
    assert np.allclose(res.x, [-0.5, 0.25])
    assert res.kkt_residual == 0.0


def test_active_bound_is_optimal():
    cost = QuadraticCost.scalar(1.0)
    box = BoxSet.interval(-1.0, 1.0)
    res = argmin_local(cost, box, np.array([50.0]))  # pulls far beyond the box
    assert res.x[0] == 1.0
    assert res.kkt_residual == 0.0


def test_pinned_coordinate():
    cost = QuadraticCost.scalar(1.0)
    box = BoxSet.interval(0.7, 0.7)
    res = argmin_local(cost, box, np.array([-3.0]))
    assert res.x[0] == 0.7
    assert res.kkt_residual == 0.0


def test_general_matrix_matches_linear_solve_when_unconstrained():
    U = np.array([[2.0, 0.5], [0.5, 1.5]])
    cost = QuadraticCost(U=U, v=np.array([0.3, -0.8]))
    box = BoxSet(lower=np.full(2, -100.0), upper=np.full(2, 100.0))
    c = np.array([1.0, 2.0])
    res = argmin_local(cost, box, c)
    assert np.allclose(res.x, np.linalg.solve(U, c - cost.v), atol=1e-10)


def test_general_matrix_respects_active_box():
    U = np.array([[2.0, 0.9], [0.9, 2.0]])
    cost = QuadraticCost(U=U, v=np.zeros(2))
    box = BoxSet(lower=np.array([0.5, -5.0]), upper=np.array([5.0, 5.0]))
    res = argmin_local(cost, box, np.array([-1.0, 1.0]))
    # coordinate 0 is forced to its lower bound; coordinate 1 solves exactly
    assert res.x[0] == pytest.approx(0.5, abs=1e-9)
    assert res.x[1] == pytest.approx((1.0 - 0.9 * 0.5) / 2.0, abs=1e-9)
    assert res.kkt_residual <= inner_tolerance(np.array([-1.0, 1.0]))


def test_solver_failure_carries_agent_index():
    U = np.array([[2.0, 0.9], [0.9, 2.0]])
    cost = QuadraticCost(U=U, v=np.zeros(2))
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    ag = AgentSpec(cost=cost, A=np.eye(2), d=np.zeros(2), box=box)
    inst = ProblemInstance(agents=(ag, ag))
    # c chosen so the optimum pins one coordinate at the bound while the
    # other stays interior; the warm start is then suboptimal and one
    # projected-gradient step cannot reach tolerance
    c = np.array([[10.0, 1.0], [10.0, 1.0]])
    with mock.patch.object(local_solver, "MAX_INNER", 1):
        with pytest.raises(SolverFailure, match="agent 0"):
            solve_all_from_c(inst, c)


def test_a_batch_failure_names_every_failing_trial():
    """Every (trial, agent) is tried: c = 5 binds a coordinate in trials 0 and 2,
    which one projected-gradient step cannot reach, and c = 0 is solved at once."""
    U = np.array([[2.0, 0.9], [0.9, 1.0]])
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    ag = AgentSpec(cost=QuadraticCost(U=U, v=np.zeros(2)), A=np.eye(2), d=np.zeros(2), box=box)
    inst = ProblemInstance(agents=(ag, ag))
    c = np.zeros((3, 2, 2))
    c[[0, 2]] = 5.0
    with mock.patch.object(local_solver, "MAX_INNER", 1):
        with pytest.raises(SolverFailure, match="^trial 0, agent 0: projected gradient") as caught:
            solve_all_from_c(inst, c)
    assert caught.value.trials == [0, 2]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_linear_term_fails_before_any_step(bad):
    """A non-diagonal solve given a non-finite c fails at once, naming c, without
    the projected-gradient steps it can never finish."""
    agent = nondiagonal3()[0].agents[1]
    residual = mock.patch.object(
        local_solver, "box_kkt_residual", wraps=local_solver.box_kkt_residual
    )
    pattern = r"^linear term c = \[(inf|nan) +0\.\] is not finite$"
    with residual as counted, pytest.raises(SolverFailure, match=pattern):
        argmin_local(agent.cost, agent.box, np.array([bad, 0.0]))
    assert counted.call_count == 0


def test_shape_validation():
    cost = QuadraticCost.scalar(1.0)
    with pytest.raises(ValueError):
        argmin_local(cost, BoxSet.interval(-1, 1), np.zeros(2))
    with pytest.raises(ValueError):
        argmin_local(cost, BoxSet(lower=-np.ones(2), upper=np.ones(2)), np.zeros(1))


def test_kkt_residual_on_100_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(100):
        p = int(rng.integers(1, 4))
        cost, box = random_cost_box(rng, p, diagonal=bool(trial % 2))
        c = rng.normal(scale=3.0, size=p)
        res = argmin_local(cost, box, c)
        assert res.kkt_residual <= inner_tolerance(c)
        assert box_contains(box, res.x)


def test_conjugate_nonexpansiveness_on_100_random_pairs():
    rng = np.random.default_rng(7)
    for trial in range(100):
        p = int(rng.integers(1, 4))
        cost, box = random_cost_box(rng, p, diagonal=bool(trial % 3))
        A = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
        mu1 = rng.normal(scale=2.0, size=p)
        mu2 = rng.normal(scale=2.0, size=p)
        assert conjugate_smoothness_check(cost, box, mu1, mu2, A)


@settings(max_examples=60, deadline=None)
@given(
    c1=st.floats(min_value=-6, max_value=6),
    c2=st.floats(min_value=-6, max_value=6),
    z1=st.floats(min_value=-1.5, max_value=1.5),
    z2=st.floats(min_value=-1.5, max_value=1.5),
)
def test_argmin_beats_arbitrary_feasible_points(c1, c2, z1, z2):
    U = np.array([[3.0, 1.0], [1.0, 2.0]])
    cost = QuadraticCost(U=U, v=np.array([0.5, -0.5]))
    box = BoxSet(lower=np.full(2, -1.5), upper=np.full(2, 1.5))
    c = np.array([c1, c2])
    x = argmin_local(cost, box, c).x
    z = np.array([z1, z2])
    assert cost.value(x) - c @ x <= cost.value(z) - c @ z + 1e-8


def test_solve_all_matches_per_agent_path():
    rng = np.random.default_rng(3)
    agents = []
    for _ in range(4):
        cost, box = random_cost_box(rng, 1, diagonal=True)
        agents.append(
            AgentSpec(cost=cost, A=np.array([[rng.uniform(0.5, 2.0)]]), d=np.array([0.0]), box=box)
        )
    inst = ProblemInstance(agents=tuple(agents))
    mu = rng.normal(size=(4, 1))
    stacked = solve_all_from_c(inst, np.einsum("imp,im->ip", inst.A, mu))
    for i, a in enumerate(inst.agents):
        expect = argmin_local(a.cost, a.box, a.A.T @ mu[i]).x
        assert np.allclose(stacked[i], expect, atol=1e-12)


def test_solve_all_from_c_consistency():
    # general U: each agent's projected-gradient solve, alone and in a batch of trials
    rng = np.random.default_rng(5)
    agents = []
    for _ in range(3):
        cost, box = random_cost_box(rng, 2, diagonal=False)
        agents.append(AgentSpec(cost=cost, A=np.eye(2), d=np.zeros(2), box=box))
    inst = ProblemInstance(agents=tuple(agents))
    c = rng.normal(size=(2, 3, 2))
    batch = solve_all_from_c(inst, c)
    for t in range(2):
        assert np.array_equal(solve_all_from_c(inst, c[t]), batch[t])
        for i, a in enumerate(inst.agents):
            assert np.array_equal(batch[t, i], argmin_local(a.cost, a.box, c[t, i]).x)
