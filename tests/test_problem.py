from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtrack.harness import PRESETS
from dmtrack.local_solver import argmin_local, solve_all_from_c
from dmtrack.problem import (
    DIAG_RTOL,
    AgentSpec,
    BoxSet,
    ProblemInstance,
    QuadraticCost,
    moduli,
    shift_adjacent,
)

from conftest import box_contains


def scalar_agent(u=1.0, v=0.0, a=1.0, d=1.0, lo=-10.0, hi=10.0):
    return AgentSpec(
        cost=QuadraticCost.scalar(u, v),
        A=np.array([[a]]),
        d=np.array([d]),
        box=BoxSet.interval(lo, hi),
    )


def test_scalar_cost_stores_double_curvature():
    c = QuadraticCost.scalar(1.5, v=2.0, w=3.0)
    assert c.U[0, 0] == 3.0
    assert c.phi == 3.0 and c.L == 3.0
    assert c.value([2.0]) == pytest.approx(1.5 * 4 + 2.0 * 2 + 3.0)
    assert c.gradient([2.0])[0] == pytest.approx(3.0 * 2 + 2.0)


def test_cost_moduli_are_extreme_eigenvalues():
    U = np.array([[4.0, 1.0], [1.0, 2.0]])
    c = QuadraticCost(U=U, v=np.zeros(2))
    eig = np.linalg.eigvalsh(U)
    assert c.phi == pytest.approx(eig[0])
    assert c.L == pytest.approx(eig[1])


def test_cost_rejects_bad_matrices():
    with pytest.raises(ValueError):
        QuadraticCost(U=np.array([[1.0, 2.0], [0.0, 1.0]]), v=np.zeros(2))  # asymmetric
    with pytest.raises(ValueError):
        QuadraticCost(U=np.array([[1.0, 0.0]]), v=np.zeros(1))  # not square
    with pytest.raises(ValueError):
        QuadraticCost(U=np.array([[0.0]]), v=np.zeros(1))  # not positive definite
    with pytest.raises(ValueError):
        QuadraticCost(U=np.eye(2), v=np.zeros(3))  # dimension mismatch


def test_box_validation_and_projection():
    with pytest.raises(ValueError):
        BoxSet(lower=np.array([1.0]), upper=np.array([0.0]))
    box = BoxSet.interval(-1.0, 2.0)
    assert box.project([5.0])[0] == 2.0
    assert box.project([-5.0])[0] == -1.0
    assert box_contains(box, [0.3])
    assert not box_contains(box, [2.5])
    shifted = box.shifted(np.array([0.5]))
    assert shifted.lower[0] == -0.5 and shifted.upper[0] == 2.5


def test_agent_spec_rejects_rank_deficient_coupling():
    cost2 = QuadraticCost(U=np.eye(2), v=np.zeros(2))
    box2 = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    with pytest.raises(ValueError):
        # p > m makes A^T A singular
        AgentSpec(cost=cost2, A=np.array([[1.0, 0.0]]), d=np.array([0.0]), box=box2)
    with pytest.raises(ValueError):
        scalar_agent(a=0.0)


def test_agent_spec_norms():
    ag = scalar_agent(a=-2.0)
    assert ag.A_norm == 2.0
    assert ag.lamAA_min == 4.0
    assert (ag.m, ag.p) == (1, 1)


def test_agent_spec_takes_one_svd():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    real = np.linalg.svd
    calls = []

    def svd(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cost = QuadraticCost(U=np.eye(2), v=np.zeros(2))
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    with mock.patch.object(np.linalg, "svd", svd):
        ag = AgentSpec(cost=cost, A=A, d=np.zeros(2), box=box)
        norms = [(ag.A_norm, ag.lamAA_min) for _ in range(3)]
    assert len(calls) == 1
    s = real(A, compute_uv=False)
    assert norms == [(s[0], s[-1] ** 2)] * 3


def test_instance_rejects_mixed_dimensions():
    cost2 = QuadraticCost(U=np.eye(2), v=np.zeros(2))
    box2 = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    wide = AgentSpec(cost=cost2, A=np.eye(2), d=np.zeros(2), box=box2)
    with pytest.raises(ValueError):
        ProblemInstance(agents=(scalar_agent(), wide))
    with pytest.raises(ValueError):
        ProblemInstance(agents=())


def test_instance_aggregates():
    inst = ProblemInstance(agents=(scalar_agent(d=1.0), scalar_agent(u=2.0, d=0.5)))
    assert inst.dims == (2, 1, 1)
    assert inst.total_demand[0] == 1.5
    # objective is the plain sum of agent costs
    x = np.array([[2.0], [3.0]])
    assert inst.objective(x) == pytest.approx(4.0 + 2.0 * 9.0)


def test_moduli_symmetric2():
    inst, _ = PRESETS["symmetric2"]()
    assert moduli(inst) == pytest.approx((2.0, 2.0, 1.0, 1.0))


def test_moduli_microgrid14():
    inst, _ = PRESETS["microgrid14"]()
    mod = moduli(inst)
    assert mod.phi_under == pytest.approx(1.0722631691077271, rel=1e-12)
    assert mod.L_bar == pytest.approx(1.9745086277228379, rel=1e-12)
    assert mod.A_norm == pytest.approx(1.152545211122078, rel=1e-12)
    assert mod.lamAA_min == pytest.approx(0.6552997764415665, rel=1e-12)


def test_moduli_take_worst_case_over_agents():
    inst = ProblemInstance(agents=(scalar_agent(u=0.5, a=1.0), scalar_agent(u=3.0, a=-2.0)))
    assert moduli(inst) == pytest.approx((1.0, 6.0, 2.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-5, max_value=5),
    y=st.floats(min_value=-5, max_value=5),
    s1=st.floats(min_value=-2, max_value=2),
    s2=st.floats(min_value=-2, max_value=2),
)
def test_shift_translates_cost_and_box(x, y, s1, s2):
    """The shifted agent satisfies f'(z + delta') = f(z) for every z."""
    U = np.array([[3.0, 0.7], [0.7, 2.0]])
    cost = QuadraticCost(U=U, v=np.array([1.0, -2.0]), w=0.3)
    box = BoxSet(lower=np.array([-4.0, -4.0]), upper=np.array([4.0, 4.0]))
    ag = AgentSpec(
        cost=cost,
        A=np.array([[1.0, 0.5], [0.0, 1.0]]),
        d=np.array([1.0, -0.5]),
        box=box,
    )
    inst = ProblemInstance(agents=(ag, ag))
    delta = np.array([s1, s2])
    shifted = shift_adjacent(inst, 1, delta)

    z = np.array([x, y])
    new = shifted.agents[1]
    assert new.cost.value(z + delta) == pytest.approx(cost.value(z), abs=1e-9)
    assert np.allclose(new.cost.gradient(z + delta), cost.gradient(z), atol=1e-9)
    assert np.allclose(new.box.lower, box.lower + delta)
    assert np.allclose(new.box.upper, box.upper + delta)
    # untouched parts stay identical
    assert shifted.agents[0] is inst.agents[0]
    assert np.array_equal(new.A, ag.A)
    assert np.array_equal(new.d, ag.d)


def test_shift_validates_inputs():
    inst = ProblemInstance(agents=(scalar_agent(), scalar_agent()))
    with pytest.raises(IndexError):
        shift_adjacent(inst, 2, np.array([0.1]))
    with pytest.raises(ValueError):
        shift_adjacent(inst, 0, np.array([0.1, 0.2]))


def general_agent(U, v, lo, hi, A, d):
    return AgentSpec(
        cost=QuadraticCost(U=np.asarray(U, dtype=float), v=np.asarray(v, dtype=float)),
        A=np.asarray(A, dtype=float),
        d=np.asarray(d, dtype=float),
        box=BoxSet(lower=np.asarray(lo, dtype=float), upper=np.asarray(hi, dtype=float)),
    )


def mixed_instance():
    """Agent 0 has a non-diagonal U, agents 1 and 2 diagonal ones."""
    return ProblemInstance(
        agents=(
            general_agent([[3.0, 0.7], [0.7, 2.0]], [1.0, -2.0], [-4, -3], [4, 3], [[1.0, 0.5], [0.0, 1.0]], [1.0, -0.5]),
            general_agent(np.diag([2.0, 5.0]), [0.5, 0.0], [-1, -2], [1, 2], [[2.0, 0.0], [1.0, 1.0]], [0.0, 0.3]),
            general_agent(np.diag([1.0, 1.5]), [0.0, 0.2], [0, -1], [3, 1], np.eye(2), [0.4, 0.0]),
        )
    )


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_instance_stacks_agent_arrays(preset):
    inst, _ = PRESETS[preset]()
    for instance in (inst, mixed_instance()):
        agents = instance.agents
        assert np.array_equal(instance.A, np.stack([a.A for a in agents]))
        assert np.array_equal(instance.v, np.stack([a.cost.v for a in agents]))
        assert np.array_equal(instance.lower, np.stack([a.box.lower for a in agents]))
        assert np.array_equal(instance.upper, np.stack([a.box.upper for a in agents]))
        assert np.array_equal(instance.d, np.stack([a.d for a in agents]))
        assert instance.A.shape == (instance.n, instance.m, instance.p)
    # the presets have scalar, hence diagonal, costs
    assert np.array_equal(inst.diag, np.stack([np.diag(a.cost.U) for a in inst.agents]))


def test_shifted_copy_carries_its_own_stacked_arrays():
    inst = mixed_instance()
    delta = np.array([0.25, -0.5])
    shifted = shift_adjacent(inst, 1, delta)
    moved = shifted.agents[1]
    assert np.array_equal(shifted.v[1], moved.cost.v)
    assert np.array_equal(shifted.v[1], inst.v[1] - inst.agents[1].cost.U @ delta)
    assert np.array_equal(shifted.lower[1], inst.lower[1] + delta)
    assert np.array_equal(shifted.upper[1], inst.upper[1] + delta)
    for arr in ("v", "lower", "upper"):
        assert np.array_equal(getattr(shifted, arr)[[0, 2]], getattr(inst, arr)[[0, 2]])
    assert np.array_equal(shifted.A, inst.A) and np.array_equal(shifted.d, inst.d)
    # the original keeps its own arrays
    assert np.array_equal(inst.v, np.stack([a.cost.v for a in inst.agents]))


def test_mixed_instance_has_no_stacked_diagonal_and_solves_per_agent():
    inst = mixed_instance()
    assert inst.agents[0].cost.diag is None
    assert inst.agents[1].cost.diag is not None and inst.agents[2].cost.diag is not None
    assert inst.diag is None
    rng = np.random.default_rng(4)
    c = rng.normal(scale=3.0, size=(2, inst.n, inst.p))
    x = solve_all_from_c(inst, c)
    for t in range(2):
        for i, a in enumerate(inst.agents):
            assert np.array_equal(x[t, i], argmin_local(a.cost, a.box, c[t, i]).x)


@pytest.mark.parametrize("factor,diagonal", [(0.9, True), (1.0, True), (1.1, False)])
def test_near_diagonal_u_takes_the_closed_form_up_to_diag_rtol(factor, diagonal):
    """Off-diagonal mass up to DIAG_RTOL times the diagonal scale counts as zero."""
    off = factor * DIAG_RTOL * 4.0  # the scale is max(1, largest diagonal entry) = 4
    U = np.array([[2.0, off], [off, 4.0]])
    agents = tuple(
        general_agent(U, [0.3, -0.7], [-1, -1], [1, 0.1], np.eye(2), [0.0, 0.0]) for _ in range(2)
    )
    inst = ProblemInstance(agents=agents)
    cost, box = agents[0].cost, agents[0].box
    assert (cost.diag is not None) == diagonal
    assert (inst.diag is not None) == diagonal
    if not diagonal:
        return
    assert np.array_equal(cost.diag, [2.0, 4.0])
    c = np.array([[1.1, 2.9], [-0.4, -5.0]])
    closed = np.clip((c - cost.v) / np.array([2.0, 4.0]), box.lower, box.upper)
    # the projected-gradient start solves with the off-diagonal entries
    assert not np.array_equal(closed[0], box.project(np.linalg.solve(U, c[0] - cost.v)))
    res = argmin_local(cost, box, c[0])
    assert np.array_equal(res.x, closed[0]) and res.kkt_residual == 0.0
    assert np.array_equal(solve_all_from_c(inst, c), closed)
