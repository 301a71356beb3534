import dataclasses

import numpy as np
import pytest

from jamcom.channel import (CsitModel, au_statistics_uniform_phase, draw_csit_samples,
                            make_deterministic_scenario)
from jamcom.optimizer import (SolveConfig, VariableLayout, _assemble_subproblem,
                              _wmmse_state, build_thresholds, initialize)
from jamcom.solver import (
    AConstraint,
    Affine,
    ConvexSubproblem,
    DiagTerm,
    Objective,
    QConstraint,
    QuadTerm,
    certify,
    eval_constraints,
    eval_objective,
    problem_from_json,
    problem_to_json,
    solve,
)


def quad_objective(Q, lin=None, const=0.0):
    n = Q.shape[0]
    aff = Affine(np.arange(n), lin, const) if lin is not None else Affine.constant(const)
    return Objective((QuadTerm(np.arange(n), Q),), aff)


def active_bound_problem():
    # min x^2  s.t.  x <= -1
    return ConvexSubproblem(
        n_vars=1,
        objective=quad_objective(np.eye(1)),
        a_constraints=[AConstraint(Affine([0], [-1.0], 0.0), 1.0)],
    )


def halfspace_problem():
    # min ||p||^2  s.t.  2 Re(e1^H p) >= 1  (p complex 2-vector, stacked real)
    return ConvexSubproblem(
        n_vars=4,
        objective=quad_objective(np.eye(4)),
        a_constraints=[AConstraint(Affine([0], [2.0], 0.0), 1.0)],
    )


def random_block_problem(seed, with_signs=True):
    rng = np.random.default_rng(seed)
    blocks = [np.arange(0, 5), np.arange(5, 10)]
    quads = []
    q_cons = []
    for cols in blocks:
        A = rng.standard_normal((5, 5))
        quads.append(QuadTerm(cols, A.T @ A / 5.0))
        B = rng.standard_normal((5, 5))
        q_cons.append(QConstraint(
            QuadTerm(cols, B.T @ B / 5.0),
            Affine(cols[:2], rng.standard_normal(2) * 0.1, 1.0)))
    q_cons.append(QConstraint(DiagTerm(np.arange(10), np.ones(10)),
                              Affine.constant(4.0)))
    a_cons = [AConstraint(Affine(blocks[0], rng.standard_normal(5), 0.0), -2.0)]
    sign = np.array([3, 8]) if with_signs else np.zeros(0, dtype=np.int64)
    return ConvexSubproblem(
        n_vars=10,
        objective=Objective(tuple(quads), Affine(np.arange(10),
                                                 rng.standard_normal(10) * 0.5, 0.3)),
        q_constraints=q_cons,
        a_constraints=a_cons,
        sign_constraints=sign,
        blocks=blocks,
    )


class TestReferenceSolutions:
    def test_active_scalar_bound(self):
        res = solve(active_bound_problem(), 1e-9)
        assert res.status == "optimal"
        assert res.primal[0] == pytest.approx(-1.0, abs=1e-7)
        assert res.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_halfspace_closed_form(self):
        res = solve(halfspace_problem(), 1e-9)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.primal, [0.5, 0, 0, 0], atol=1e-7)
        assert res.objective_value == pytest.approx(0.25, abs=1e-8)

    def test_unconstrained_newton(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        lin = np.array([1.0, -2.0])
        prob = ConvexSubproblem(n_vars=2, objective=quad_objective(Q, lin))
        res = solve(prob, 1e-9)
        ref = np.linalg.solve(2 * Q, -lin)
        np.testing.assert_allclose(res.primal, ref, atol=1e-9)


class TestKktAndCertification:
    def test_stationarity_residual_from_scratch(self):
        prob = random_block_problem(3)
        res = solve(prob, 1e-9)
        assert res.status == "optimal"
        # explicit gradient assembly at the returned point
        z, lam = res.primal, res.multipliers
        eps = 1e-6
        grad = np.zeros(z.size)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            lag_p = eval_objective(prob, zp) + lam @ eval_constraints(prob, zp)
            lag_m = eval_objective(prob, zm) + lam @ eval_constraints(prob, zm)
            grad[i] = (lag_p - lag_m) / (2 * eps)
        assert np.max(np.abs(grad)) < 1e-4

    def test_certify_accepts_optimal(self):
        for seed in range(5):
            prob = random_block_problem(seed)
            res = solve(prob, 1e-8)
            assert res.status == "optimal"
            assert certify(prob, res, 1e-6)

    def test_certify_rejects_perturbed(self):
        prob = random_block_problem(1)
        res = solve(prob, 1e-8)
        res.primal[0] += 10 * 1e-2
        assert not certify(prob, res, 1e-6)

    def test_certify_rejects_failed_status(self):
        prob = ConvexSubproblem(
            n_vars=1,
            objective=quad_objective(np.eye(1)),
            a_constraints=[AConstraint(Affine([0], [1.0], 0.0), 1.0),
                           AConstraint(Affine([0], [-1.0], 0.0), 1.0)],
        )
        res = solve(prob, 1e-8, max_iter=50)
        assert res.status in ("infeasible", "max_iter")
        assert res.violations
        assert not certify(prob, res, 1e-6)


class TestDeterminismAndStructure:
    def test_bitwise_repeatability(self):
        prob = random_block_problem(7)
        a = solve(prob, 1e-9)
        b = solve(prob, 1e-9)
        assert np.array_equal(a.primal, b.primal)
        assert a.objective_value == b.objective_value

    def test_blockwise_matches_dense(self):
        prob = random_block_problem(11)
        dense = ConvexSubproblem(
            n_vars=prob.n_vars, objective=prob.objective,
            q_constraints=prob.q_constraints, a_constraints=prob.a_constraints,
            sign_constraints=prob.sign_constraints, blocks=None)
        rb = solve(prob, 1e-9)
        rd = solve(dense, 1e-9)
        assert rb.status == rd.status == "optimal"
        assert rb.objective_value == pytest.approx(rd.objective_value, abs=1e-7)
        np.testing.assert_allclose(rb.primal, rd.primal, atol=1e-5)

    def test_var_scale_preserves_solution(self):
        prob = random_block_problem(13)
        scaled = ConvexSubproblem(
            n_vars=prob.n_vars, objective=prob.objective,
            q_constraints=prob.q_constraints, a_constraints=prob.a_constraints,
            sign_constraints=prob.sign_constraints, blocks=prob.blocks,
            var_scale=np.full(prob.n_vars, 3.0))
        r0 = solve(prob, 1e-9)
        r1 = solve(scaled, 1e-9)
        assert r1.objective_value == pytest.approx(r0.objective_value, abs=1e-6)

    def test_relaxing_affine_constraint_never_hurts(self):
        for seed in range(4):
            prob = random_block_problem(seed)
            res = solve(prob, 1e-8)
            relaxed = ConvexSubproblem(
                n_vars=prob.n_vars, objective=prob.objective,
                q_constraints=prob.q_constraints,
                a_constraints=[AConstraint(c.aff, c.lower - 0.5)
                               for c in prob.a_constraints],
                sign_constraints=prob.sign_constraints, blocks=prob.blocks)
            res_rel = solve(relaxed, 1e-8)
            assert res_rel.objective_value <= res.objective_value + 1e-6

    def test_sign_constraints_hold(self):
        prob = random_block_problem(17)
        res = solve(prob, 1e-8)
        assert np.all(res.primal[prob.sign_constraints] <= 1e-8)

    def test_cross_block_dense_quadratic_rejected(self):
        blocks = [np.arange(2), np.arange(2, 4)]
        spanning = QuadTerm(np.arange(4), np.eye(4))
        in_objective = ConvexSubproblem(
            n_vars=4,
            objective=Objective((spanning,), Affine.constant(0.0)),
            blocks=blocks,
        )
        in_constraint = ConvexSubproblem(
            n_vars=4,
            objective=Objective((QuadTerm(blocks[0], np.eye(2)),
                                 QuadTerm(blocks[1], np.eye(2))), Affine.constant(0.0)),
            q_constraints=[QConstraint(spanning, Affine.constant(1.0))],
            blocks=blocks,
        )
        for bad in (in_objective, in_constraint):
            with pytest.raises(ValueError):
                solve(bad, 1e-8)


def perturbed(prob, eps):
    """The problem with its linear objective scaled by 1 + eps and every
    q-constraint bound tightened by the factor 1 - eps."""
    aff = prob.objective.affine
    return dataclasses.replace(
        prob,
        objective=Objective(prob.objective.quads,
                            Affine(aff.cols, aff.coef * (1 + eps), aff.const)),
        q_constraints=[QConstraint(c.quad, Affine(c.bound.cols, c.bound.coef,
                                                  c.bound.const * (1 - eps)))
                       for c in prob.q_constraints])


class TestWarmStart:
    def test_warm_start_from_neighbouring_solution(self):
        for seed in range(5):
            prev = solve(random_block_problem(seed), 1e-9)
            prob = perturbed(random_block_problem(seed), 1e-2)
            cold = solve(prob, 1e-9)
            warm = solve(prob, 1e-9, start=(prev.primal, prev.multipliers))
            assert cold.status == warm.status == "optimal"
            assert certify(prob, warm, 1e-6)
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-6)
            assert warm.iterations < cold.iterations
            again = solve(prob, 1e-9, start=(prev.primal, prev.multipliers))
            assert np.array_equal(warm.primal, again.primal)
            assert np.array_equal(warm.multipliers, again.multipliers)
            assert warm.objective_value == again.objective_value

    def test_start_outside_budget_with_zero_multipliers(self):
        prob = random_block_problem(4)
        cold = solve(prob, 1e-9)
        start = np.full(prob.n_vars, 3.0)  # ||z||^2 = 90 > 4, and both sign bounds violated
        assert eval_constraints(prob, start).max() > 1.0
        res = solve(prob, 1e-9, start=(start, np.zeros(cold.multipliers.size)))
        assert res.status == "optimal"
        assert certify(prob, res, 1e-6)
        assert res.objective_value == pytest.approx(cold.objective_value, rel=1e-6)

    def test_start_of_wrong_length_rejected(self):
        prob = random_block_problem(2)
        m = solve(prob, 1e-8).multipliers.size
        for bad in ((np.zeros(prob.n_vars + 1), np.zeros(m)),
                    (np.zeros(prob.n_vars), np.zeros(m - 1))):
            with pytest.raises(ValueError):
                solve(prob, 1e-8, start=bad)


class TestSerialization:
    def test_json_round_trip_solves_identically(self):
        prob = random_block_problem(23)
        back = problem_from_json(problem_to_json(prob))
        a = solve(prob, 1e-9)
        b = solve(back, 1e-9)
        assert np.array_equal(a.primal, b.primal)

    def test_assembled_subproblem_round_trips(self):
        # the first RSMA subproblem of a run whose focused-power floors bind
        chan = make_deterministic_scenario(4 * np.pi / 9, 2 * np.pi / 9, 4, 4)
        csit = CsitModel(h_hat=chan.h, sigma_ie2=0.3, alpha=0.6)
        stats = au_statistics_uniform_phase(4 * np.pi / 9, 4, 4, 1, (1, 3))
        config = SolveConfig(P_t=10.0, M=2, thresholds=build_thresholds(stats, 0.9, 10.0))
        samples = draw_csit_samples(csit, 2, 0)
        pre = initialize(csit, stats, config)
        prob = _assemble_subproblem(VariableLayout(4, 4, 2, 1, stats.pilot_idx, rsma=True),
                                    samples, _wmmse_state(samples, pre), pre, stats, config)
        assert len(prob.a_constraints) == 2
        a = solve(prob, 1e-7)
        b = solve(problem_from_json(problem_to_json(prob)), 1e-7)
        assert a.status == "optimal"
        assert np.array_equal(a.primal, b.primal)
        floors = eval_constraints(prob, a.primal)[len(prob.q_constraints):][:2]
        assert np.all(np.abs(floors) < 1e-4)

    def test_infeasible_reports_violating_constraints(self):
        prob = ConvexSubproblem(
            n_vars=2,
            objective=quad_objective(np.eye(2)),
            q_constraints=[QConstraint(DiagTerm(np.arange(2), np.ones(2)),
                                       Affine.constant(0.5))],
            a_constraints=[AConstraint(Affine([0], [1.0], 0.0), 10.0)],
        )
        res = solve(prob, 1e-8, max_iter=60)
        assert res.status in ("infeasible", "max_iter")
        kinds = {kind for _, kind, _ in res.violations}
        assert any(k.startswith("a[") or k.startswith("q[") for k in kinds)

    def test_infeasible_two_block_reports_canonical_order(self):
        # x3 >= 1 (a[0]) contradicts x3 <= 0 (sign[1]); both q-constraints and
        # sign[0] stay slack
        blocks = [np.arange(0, 2), np.arange(2, 4)]
        prob = ConvexSubproblem(
            n_vars=4,
            objective=Objective((QuadTerm(blocks[0], np.eye(2)),
                                 QuadTerm(blocks[1], np.eye(2))), Affine([0], [1.0], 0.0)),
            q_constraints=[QConstraint(QuadTerm(blocks[0], np.eye(2)), Affine.constant(4.0)),
                           QConstraint(DiagTerm(np.arange(4), np.ones(4)),
                                       Affine.constant(9.0))],
            a_constraints=[AConstraint(Affine([3], [1.0], 0.0), 1.0)],
            sign_constraints=np.array([1, 3]),
            blocks=blocks,
        )
        res = solve(prob, 1e-8, max_iter=60)
        assert res.status in ("infeasible", "max_iter")
        assert [(i, kind) for i, kind, _ in res.violations] == [(2, "a[0]"), (4, "sign[1]")]
        c = eval_constraints(prob, res.primal)
        for i, _, value in res.violations:
            assert value == pytest.approx(c[i], abs=1e-12)
        lam = res.multipliers
        assert lam.shape == (5,)  # q[0], q[1], a[0], sign[0], sign[1]
        assert min(lam[2], lam[4]) > 1.0 and max(lam[0], lam[1]) < 0.1
