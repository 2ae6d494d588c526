import numpy as np
import pytest

from dmtrack import oracle
from dmtrack.errors import InfeasibleProblemError, SolverFailure
from dmtrack.harness import PRESETS
from dmtrack.oracle import KKT_TOL, OptSolution, kkt_residual, solve_dual
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost

from conftest import verify_against_grid


def scalar_instance(specs, lo=-8.0, hi=8.0):
    """specs: iterable of (u, v, a, d)."""
    agents = tuple(
        AgentSpec(
            cost=QuadraticCost.scalar(u, v),
            A=np.array([[a]]),
            d=np.array([d]),
            box=BoxSet.interval(lo, hi),
        )
        for u, v, a, d in specs
    )
    return ProblemInstance(agents=agents)


def test_symmetric2_closed_form():
    inst, _ = PRESETS["symmetric2"]()
    sol = solve_dual(inst)
    assert np.allclose(sol.x_star, [[1.0], [1.0]], atol=1e-9)
    assert sol.mu_star[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.gap <= 1e-8
    assert verify_against_grid(inst, sol)
    assert kkt_residual(inst, sol) == 0.0


def test_hand_kkt_closed_form():
    # f1 = x^2, f2 = 2 x^2, total demand 3: stationarity gives mu = 4,
    # x = (2, 1), objective 6
    inst, _ = PRESETS["hand_kkt"]()
    sol = solve_dual(inst)
    assert sol.mu_star[0] == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(sol.x_star, [[2.0], [1.0]], atol=1e-9)
    assert sol.objective == pytest.approx(6.0, abs=1e-9)
    assert verify_against_grid(inst, sol)
    assert kkt_residual(inst, sol) == 0.0


def test_microgrid14_reference_values():
    inst, _ = PRESETS["microgrid14"]()
    sol = solve_dual(inst)
    assert sol.mu_star[0] == pytest.approx(27.731356308823774, rel=1e-9)
    assert sol.objective == pytest.approx(3618.979291396605, rel=1e-9)
    coupled = sum(a.A @ x for a, x in zip(inst.agents, sol.x_star))
    assert coupled[0] == pytest.approx(231.0, abs=1e-6)
    for a, x in zip(inst.agents, sol.x_star):
        assert np.all(x > a.box.lower) and np.all(x < a.box.upper)
    # the grid cannot check 14 agents; the KKT certificate can
    assert kkt_residual(inst, sol) <= KKT_TOL


def test_grid_rejects_perturbed_solution():
    inst, _ = PRESETS["symmetric2"]()
    sol = solve_dual(inst)
    off = OptSolution(
        x_star=sol.x_star + 0.05,
        mu_star=sol.mu_star,
        objective=float(inst.objective(sol.x_star + 0.05)),
        gap=0.0,
        iterations=1,
    )
    assert not verify_against_grid(inst, off)
    # the coupling is off by 0.1 and each agent's gradient by 0.1, over 1 + ||D|| = 3
    assert kkt_residual(inst, off) == pytest.approx(0.1 / 3.0, rel=1e-12)


def test_grid_requires_small_scalar_coupled_problems():
    cost2 = QuadraticCost(U=np.eye(2), v=np.zeros(2))
    box2 = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    ag = AgentSpec(cost=cost2, A=np.eye(2), d=np.zeros(2), box=box2)
    multi = ProblemInstance(agents=(ag,))
    sol = solve_dual(multi)
    with pytest.raises(ValueError):
        verify_against_grid(multi, sol)  # m = 2 unsupported
    assert kkt_residual(multi, sol) <= KKT_TOL

    unbounded = scalar_instance([(1.0, 0.0, 1.0, 1.0)], lo=-np.inf, hi=np.inf)
    with pytest.raises(ValueError):
        verify_against_grid(unbounded, solve_dual(unbounded))


def test_equality_pinned_single_agent():
    # one agent, coupling 2 x = 3, so x is forced to 1.5
    inst = scalar_instance([(1.0, 0.5, 2.0, 3.0)])
    sol = solve_dual(inst)
    assert sol.x_star[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert verify_against_grid(inst, sol)


def test_infeasible_demand_is_detected():
    inst = scalar_instance([(1.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)], lo=0.0, hi=0.4)
    with pytest.raises(InfeasibleProblemError):
        solve_dual(inst)


def test_negative_coefficients_feasible_hull():
    # one negative coupling coefficient flips its interval contribution
    inst = scalar_instance([(1.0, 0.0, 1.0, 0.0), (2.0, 0.5, -1.0, 0.0)])
    sol = solve_dual(inst)
    assert sol.gap <= 1e-8
    assert verify_against_grid(inst, sol)


def test_iteration_budget_is_enforced(monkeypatch):
    inst, _ = PRESETS["microgrid14"]()
    monkeypatch.setattr(oracle, "MAX_OUTER", 2)
    with pytest.raises(SolverFailure):
        solve_dual(inst)


def test_random_instances_agree_with_grid():
    rng = np.random.default_rng(314)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        specs = []
        for _ in range(n):
            u = float(rng.uniform(0.3, 3.0))
            v = float(rng.uniform(-2.0, 2.0))
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
            specs.append((u, v, a, 0.0))
        # pick a demand strictly inside the feasible hull
        reach = sum(abs(s[2]) for s in specs) * 8.0
        d0 = float(rng.uniform(-0.4, 0.4) * reach)
        specs[0] = (specs[0][0], specs[0][1], specs[0][2], d0)
        inst = scalar_instance(specs)
        sol = solve_dual(inst)
        assert sol.gap <= 1e-8
        assert verify_against_grid(inst, sol)
        assert kkt_residual(inst, sol) <= KKT_TOL


def test_active_box_solution_verified():
    # tight boxes force both agents to their caps
    inst = scalar_instance([(1.0, 0.0, 1.0, 1.0), (3.0, 0.0, 1.0, 1.0)], lo=0.0, hi=1.1)
    sol = solve_dual(inst)
    assert sol.x_star.sum() == pytest.approx(2.0, abs=1e-8)
    assert verify_against_grid(inst, sol)
    assert kkt_residual(inst, sol) <= KKT_TOL
    # the cheap agent takes the larger share
    assert sol.x_star[0, 0] > sol.x_star[1, 0]


def test_kkt_residual_flags_a_wrong_price_and_a_suboptimal_split():
    # hand_kkt: gradients 2 x_1 and 4 x_2, mu* = 4, x* = (2, 1) inside [-10, 10], D = 3
    inst, _ = PRESETS["hand_kkt"]()

    def residual(x, mu):
        x = np.array(x, dtype=float).reshape(2, 1)
        sol = OptSolution(x_star=x, mu_star=np.array([mu]), objective=0.0, gap=0.0, iterations=1)
        return kkt_residual(inst, sol)

    # both agents' gradients are off by 0.5
    assert residual([2.0, 1.0], 4.5) == pytest.approx(0.5 / 4.0, rel=1e-12)
    # the coupling holds, but the gradients are 5 - 4 and 2 - 4
    assert residual([2.5, 0.5], 4.0) == pytest.approx(2.0 / 4.0, rel=1e-12)
