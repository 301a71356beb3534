import dataclasses
import json
import os

import numpy as np
import pytest

from jamcom.channel import (CsitModel, au_statistics_uniform_phase, draw_csit_samples,
                            make_deterministic_scenario)
from jamcom.optimizer import (SolveConfig, VariableLayout, _assemble_subproblem, _Floors,
                              _sampled_info, _surrogate, build_thresholds, initialize)
from jamcom.solver import (BlockGroup, ConvexSubproblem, SolverError, _BlockStack, certify,
                           problem_from_json, problem_to_json, solve)
from stacked import lower_bound, quad_bound, sign_row, stacked_problem


def active_bound_problem():
    # min x^2  s.t.  x <= -1
    return stacked_problem(1, np.eye(1), [lower_bound(1, [0], [-1.0], 1.0)])


def halfspace_problem():
    # min ||p||^2  s.t.  2 Re(e1^H p) >= 1  (p complex 2-vector, stacked real)
    return stacked_problem(4, np.eye(4), [lower_bound(4, [0], [2.0], 1.0)])


def floor_beyond_budget_problem():
    # min ||x||^2  s.t.  x0 >= 10,  ||x||^2 <= 0.5: infeasible
    return stacked_problem(2, np.eye(2), [lower_bound(2, [0], [1.0], 10.0)],
                           budget=np.ones(2), budget_const=-0.5)


def huge_linear_term_problem(q):
    # min ||z||^2 + q (z0 + z1)  s.t.  z0 + z1 >= 1, with |q| near the float range
    return stacked_problem(2, np.eye(2), [lower_bound(2, [0, 1], [1.0, 1.0], 1.0)],
                           q0=np.full(2, q))


def random_block_problem(seed, with_signs=True, blocks="two", relax=0.0):
    """Two 5-variable blocks, each with a PSD objective and a quadratic bound,
    an affine floor on block 0 (lowered by ``relax``), the sign of z3 and z8,
    and a norm budget coupling the blocks; ``blocks=None`` states the same
    problem as one block."""
    rng = np.random.default_rng(seed)
    parts = [np.arange(0, 5), np.arange(5, 10)]
    H = np.zeros((10, 10))
    rows = []
    for cols in parts:
        A = rng.standard_normal((5, 5))
        H[np.ix_(cols, cols)] = A.T @ A / 5.0
        B = rng.standard_normal((5, 5))
        rows.append(quad_bound(10, cols, B.T @ B / 5.0,
                               cols[:2], rng.standard_normal(2) * 0.1, 1.0))
    rows.append(lower_bound(10, parts[0], rng.standard_normal(5), -2.0 - relax))
    if with_signs:
        rows += [sign_row(10, 3), sign_row(10, 8)]
    return stacked_problem(10, H, rows, q0=rng.standard_normal(10) * 0.5, c0=0.3,
                           blocks=parts if blocks == "two" else blocks,
                           budget=np.ones(10), budget_const=-4.0)


def two_width_problem(groups=None, narrow_H=None):
    """Two blocks of width 3, each with rows (q, q, sign), and two of width 2,
    each with rows (a, q, sign, a), under a norm budget: the widths differ,
    the q rows are not first in every block, and the most q rows (2) and the
    most other rows (3) sit in different blocks.  ``groups`` as in
    ``stacked_problem``; ``narrow_H`` replaces the objective block of z[6:8]."""
    rng = np.random.default_rng(12)
    parts = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 8), np.arange(8, 10)]
    H = np.zeros((10, 10))
    rows = []
    for cols in parts:
        w = cols.size
        A = rng.standard_normal((w, w))
        H[np.ix_(cols, cols)] = A.T @ A / w + 0.1 * np.eye(w)
        quads = [quad_bound(10, cols, B.T @ B / w, cols[:1], [0.2], 1.0)
                 for B in rng.standard_normal((w // 2 + 1, w, w))]
        if w == 3:
            rows += quads + [sign_row(10, cols[2])]
        else:
            rows += [lower_bound(10, cols, [1.0, 0.5], 0.3), quads[0], sign_row(10, cols[1]),
                     lower_bound(10, cols[:1], [1.0], 0.1)]
    if narrow_H is not None:
        H[6:8, 6:8] = narrow_H
    return stacked_problem(10, H, rows, q0=rng.standard_normal(10), c0=0.5, blocks=parts,
                           budget=np.ones(10), budget_const=-6.0, groups=groups)


def row_keys(groups):
    """(block, row in block) of each canonical row of ``two_width_problem``
    under ``groups``, the budget row last."""
    per_block = (3, 3, 4, 4)
    return [(b, i) for group in groups for b in group for i in range(per_block[b])] + ["budget"]


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
        prob = stacked_problem(2, Q, q0=lin)
        res = solve(prob, 1e-9)
        ref = np.linalg.solve(2 * Q, -lin)
        np.testing.assert_allclose(res.primal, ref, atol=1e-9)


class TestBatchedContractions:
    """The batched per-block sums of the IPM against per-row loops; the
    summation order differs, so they agree to a dtype-derived 1e-12."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_gradients_and_hessian_match_per_row_loops(self, seed):
        # a budget row with unequal weights, so each block must read its own
        prob = dataclasses.replace(random_block_problem(seed), budget=np.linspace(0.25, 4.0, 10))
        rng = np.random.default_rng(seed + 100)
        y, lam, dy = (rng.standard_normal(n) for n in (10, prob.m, 10))
        f, grad_f, c, jac = prob.evaluate(y)
        rows = [(g, b, i) for g in prob.groups for b in range(g.cols.shape[0])
                for i in range(len(g.kinds))]
        assert len(rows) == prob.m - 1                 # the budget row is last
        want_c, want_jt, want_jd = np.empty(prob.m), np.zeros(10), np.empty(prob.m)
        want_H = {id(g): g.quad[:, 0].copy() for g in prob.groups}
        want_f, want_grad = prob.q0 @ y + prob.c0, prob.q0.copy()
        for g in prob.groups:
            for b, cols in enumerate(g.cols):
                want_f += y[cols] @ g.quad[b, 0] @ y[cols]
                want_grad[cols] += 2.0 * g.quad[b, 0] @ y[cols]
        for r, (g, b, i) in enumerate(rows):
            yb, Q = y[g.cols[b]], g.quad[b, 1 + i]
            want_c[r] = yb @ Q @ yb + g.lin[b, i] @ yb + g.const[b, i]
            grad = 2.0 * Q @ yb + g.lin[b, i]
            want_jt[g.cols[b]] += lam[r] * grad
            want_jd[r] = grad @ dy[g.cols[b]]
            want_H[id(g)][b] += lam[r] * Q
        want_c[-1] = prob.budget @ (y * y) + prob.budget_const
        want_jt += lam[-1] * 2.0 * prob.budget * y
        want_jd[-1] = 2.0 * prob.budget * y @ dy
        for g in prob.groups:
            for b, cols in enumerate(g.cols):
                want_H[id(g)][b] += np.diag(lam[-1] * prob.budget[cols])
        assert f == pytest.approx(want_f, rel=1e-12, abs=1e-12)
        for got, want in ((grad_f, want_grad), (c, want_c), (prob._jac_t(jac, lam), want_jt),
                          (prob._jac_dot(jac, dy), want_jd)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for g, Hb in zip(prob.groups, prob._hessian(lam)):
            np.testing.assert_allclose(Hb, want_H[id(g)], rtol=1e-12, atol=1e-12)


class TestEntryChecks:
    """min z'z + z0 - z1 s.t. z0 <= 0, whose optimum is [-0.5, 0.5]: a NaN
    tol ran to a no_progress exit, an inf one returned the cold start [0, 0]
    as optimal and certified it, and a cap below one returned the start."""

    @staticmethod
    def problem():
        return stacked_problem(2, np.eye(2), [sign_row(2, 0)], q0=np.array([1.0, -1.0]))

    def test_reference_optimum(self):
        prob = self.problem()
        res = solve(prob, 1e-9)
        assert res.status == "optimal" and certify(prob, res, 1e-6)
        np.testing.assert_allclose(res.primal, [-0.5, 0.5], atol=1e-7)
        assert solve(prob, 1e-9, max_iter=np.int64(100)).iterations == res.iterations

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1e-8])
    def test_bad_tolerance_rejected(self, tol):
        prob = self.problem()
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve(prob, tol)
        cold = solve(prob, 1e-9, max_iter=1)    # the cold start [0, 0], not optimal
        cold.status = "optimal"
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            certify(prob, cold, tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, False, np.float64(3.0), "3"])
    def test_bad_iteration_cap_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            solve(self.problem(), 1e-9, max_iter=max_iter)


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
            lag_p, lag_m = (e[0] + lam @ e[2] for e in map(prob.evaluate, (zp, zm)))
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

    def test_certify_rejecting_branches(self):
        # min ||z||^2 s.t. z0 + z1 >= 1, ||z||^2 <= 4: z = (1/2, 1/2), the floor
        # row's multiplier 1; and the LP min z0 + z1 over the same rows
        rows = [lower_bound(2, [0, 1], [1.0, 1.0], 1.0)]
        prob = stacked_problem(2, np.eye(2), rows, budget=np.ones(2), budget_const=-4.0)
        lp = stacked_problem(2, np.zeros((2, 2)), rows, q0=np.ones(2), budget=np.ones(2),
                             budget_const=-4.0)
        res, lp_res = solve(prob, 1e-9), solve(lp, 1e-9)
        assert certify(prob, res, 1e-6) and certify(lp, lp_res, 1e-6)
        lam = res.multipliers
        for bad in (dict(primal=0.5 * res.primal),          # misses the floor row
                    dict(multipliers=-lam), dict(multipliers=lam[:-1]),
                    dict(multipliers=None), dict(multipliers=3.0 * lam),
                    dict(multipliers=np.zeros_like(lam)), dict(status="max_iter")):
            assert not certify(prob, dataclasses.replace(res, **bad), 1e-6), bad
        # with zero multipliers the LP's Lagrangian is linear: its dual is unbounded
        zero = dataclasses.replace(lp_res, multipliers=np.zeros_like(lp_res.multipliers))
        assert not certify(lp, zero, 1e-6)

    def test_certify_rejects_failed_status(self):
        prob = stacked_problem(1, np.eye(1), [lower_bound(1, [0], [1.0], 1.0),
                                              lower_bound(1, [0], [-1.0], 1.0)])
        res = solve(prob, 1e-8, max_iter=50)
        assert res.status == "infeasible" and res.iterations < 20
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
        dense = random_block_problem(11, blocks=None)
        assert [g.cols.shape for g in dense.groups] == [(1, 10)]
        rb = solve(prob, 1e-9)
        rd = solve(dense, 1e-9)
        assert rb.status == rd.status == "optimal"
        assert rb.objective_value == pytest.approx(rd.objective_value, abs=1e-7)
        np.testing.assert_allclose(rb.primal, rd.primal, atol=1e-5)

    def test_relaxing_affine_constraint_never_hurts(self):
        for seed in range(4):
            prob = random_block_problem(seed)
            res = solve(prob, 1e-8)
            relaxed = random_block_problem(seed, relax=0.5)
            res_rel = solve(relaxed, 1e-8)
            assert res_rel.objective_value <= res.objective_value + 1e-6

    def test_sign_constraints_hold(self):
        prob = random_block_problem(17)
        res = solve(prob, 1e-8)
        assert np.all(res.primal[[3, 8]] <= 1e-8)

    def test_malformed_stacked_form_rejected(self):
        prob = random_block_problem(5)
        g, other = prob.groups
        nb, k, w = g.lin.shape
        for bad in (dict(quad=g.quad[0]), dict(quad=g.quad[:, 1:]), dict(quad=g.quad[:, :, :-1]),
                    dict(lin=g.lin[:, :-1]), dict(const=g.const[:, :-1]), dict(cols=g.cols[0]),
                    dict(kinds=g.kinds[:-1] + ("b",))):
            with pytest.raises(ValueError):
                dataclasses.replace(g, **bad)
        # the blocks must partition the variables: none missing, none twice,
        # none out of range
        moved = dataclasses.replace(other, cols=other.cols + 1)
        for groups in ([g], [g, other, other], [g, moved]):
            with pytest.raises(ValueError):
                dataclasses.replace(prob, groups=groups)
        for bad in (dict(budget=np.ones(3)), dict(q0=np.zeros(11))):
            with pytest.raises(ValueError):
                dataclasses.replace(prob, **bad)
        # the budget row is required: a missing or None budget, a NaN or
        # negative entry, or a non-finite constant is rejected up front
        with pytest.raises(TypeError):
            ConvexSubproblem(groups=prob.groups, q0=prob.q0)
        nan, neg = prob.budget.copy(), prob.budget.copy()
        nan[4], neg[7] = np.nan, -1e-3
        for bad in (dict(budget=None), dict(budget=nan), dict(budget=neg),
                    dict(budget=np.full(10, np.inf)), dict(budget_const=np.nan),
                    dict(budget_const=-np.inf)):
            with pytest.raises(ValueError, match="budget"):
                dataclasses.replace(prob, **bad)
        # every other array is finite: a NaN quad or q0 ended the solve
        # "non_finite" after one iteration, an inf lin warned inside the IPM
        for name in ("quad", "lin", "const"):
            for v in (np.nan, np.inf):
                arr = getattr(g, name).copy()
                arr.flat[1] = v
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    dataclasses.replace(g, **{name: arr})
        q0 = prob.q0.copy()
        q0[2] = np.nan
        for bad in (dict(q0=q0), dict(q0=np.full(prob.n_vars, -np.inf)), dict(c0=np.nan),
                    dict(c0=np.inf)):
            with pytest.raises(ValueError, match="q0 and c0 must be finite"):
                dataclasses.replace(prob, **bad)

    def test_quadratic_on_an_affine_or_sign_row_rejected(self):
        # "a" and "sign" rows are affine: a quadratic on one is refused, on a
        # q row it is the row's own
        g = random_block_problem(5).groups[0]
        assert g.kinds == ("q", "a", "sign")
        for i in (1, 2):
            quad = g.quad.copy()
            quad[0, 1 + i, 0, 0] = 1e-3
            with pytest.raises(ValueError, match='kind "a" or "sign" must have a zero quadratic'):
                dataclasses.replace(g, quad=quad)
        quad = g.quad.copy()
        quad[0, 1, 0, 0] += 1e-3
        dataclasses.replace(g, quad=quad)

    @pytest.mark.parametrize("rows", [[lower_bound(2, [0], [1.0], -1.0)], []],
                             ids=["one_row", "no_rows"])
    def test_indefinite_newton_system_raises(self, rows):
        # with H = -I the Newton matrix is not positive definite, with a row or
        # with the budget row alone: its one Cholesky attempt fails and raises
        prob = stacked_problem(2, -np.eye(2), rows)
        assert prob.m == len(rows) + 1
        with pytest.raises(SolverError, match="could not be factorized"):
            solve(prob, 1e-8)

    def test_huge_linear_term_ends_with_a_named_status(self):
        # the centring ratio mu_aff / mu of this finite problem, cubed as a
        # Python float, raised OverflowError on the first iteration
        res = solve(huge_linear_term_problem(1e300), 1e-7)
        assert res.status in ("optimal", "max_iter", "infeasible", "non_finite")

    def test_non_finite_direction_is_named(self):
        # the first Newton direction overflows to inf: the exit says so
        res = solve(huge_linear_term_problem(1e200), 1e-7)
        assert (res.status, res.iterations) == ("non_finite", 1)


def perturbed(prob, eps):
    """The problem with its linear objective scaled by 1 + eps and every
    quadratic bound, the budget included, tightened by the factor 1 - eps."""
    return dataclasses.replace(
        prob, q0=prob.q0 * (1 + eps), budget_const=prob.budget_const * (1 - eps),
        groups=[dataclasses.replace(g, const=np.where(np.array(g.kinds) == "q",
                                                      g.const * (1 - eps), g.const))
                for g in prob.groups])


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
        assert prob.evaluate(start)[2].max() > 1.0
        res = solve(prob, 1e-9, start=(start, np.zeros(cold.multipliers.size)))
        assert res.status == "optimal"
        assert certify(prob, res, 1e-6)
        assert res.objective_value == pytest.approx(cold.objective_value, rel=1e-6)

    def test_iteration_cap_is_named(self):
        prob = random_block_problem(2)
        res = solve(prob, 1e-9, max_iter=2)
        assert res.status == "max_iter" and res.iterations == 2
        # the cap returns the last iterate tested, with its own residuals
        again = solve(prob, 1e-9, max_iter=3)
        assert not np.array_equal(res.primal, again.primal)
        assert res.objective_value == prob.evaluate(res.primal)[0]

    @pytest.mark.parametrize("tol,max_iter,status", [(1e-9, 100, "optimal"), (1e-9, 3, "max_iter"),
                                                     (1e-16, 100, "optimal"),
                                                     (1e-8, 100, "infeasible")])
    def test_each_iterate_evaluated_once(self, monkeypatch, tol, max_iter, status):
        # one evaluation of the block stack per iterate tested, the start
        # included, and the last one is returned: no exit restores or
        # re-evaluates an earlier point
        prob = floor_beyond_budget_problem() if status == "infeasible" else random_block_problem(2)
        points, evaluate = [], _BlockStack.evaluate
        monkeypatch.setattr(_BlockStack, "evaluate",
                            lambda st, y: points.append(y[st.pos]) or evaluate(st, y))
        res = solve(prob, tol, max_iter=max_iter)
        assert res.status == status
        assert len(points) == res.iterations
        assert len({y.tobytes() for y in points}) == len(points)
        assert np.array_equal(points[-1], res.primal)

    def test_tolerance_at_the_rounding_floor_is_met(self):
        # tol 1e-16 sits at the floating-point floor of this problem's scaled
        # residuals; the regularized IPM still meets it within a few more steps
        prob = random_block_problem(2)
        ref = solve(prob, 1e-9)
        res = solve(prob, 1e-16)
        assert res.status == "optimal" and res.iterations <= ref.iterations + 2
        assert not res.violations and certify(prob, res, 1e-9)
        np.testing.assert_allclose(res.primal, ref.primal, atol=1e-6)
        assert res.objective_value == pytest.approx(ref.objective_value, abs=1e-8)

    def test_primal_never_aliases_the_start(self):
        prob = random_block_problem(6)
        ref = solve(prob, 1e-9)
        for tol in (1e-9, 1e3):    # 1e3 accepts the start itself as the first iterate
            start = ref.primal.copy()
            res = solve(prob, tol, start=(start, ref.multipliers))
            assert not np.shares_memory(res.primal, start)
            assert np.array_equal(start, ref.primal)
        assert res.iterations == 1

    def test_start_of_wrong_length_rejected(self):
        prob = random_block_problem(2)
        m = solve(prob, 1e-8).multipliers.size
        for bad in ((np.zeros(prob.n_vars + 1), np.zeros(m)),
                    (np.zeros(prob.n_vars), np.zeros(m - 1))):
            with pytest.raises(ValueError):
                solve(prob, 1e-8, start=bad)


class TestSerialization:
    def test_json_round_trip_solves_identically(self):
        # the second problem's block z[1:3] carries no row (k = 0), as SDMA's
        # floor-free blocks do: its empty lists must keep their shapes
        row_free = stacked_problem(3, np.eye(3), [sign_row(3, 0)], q0=np.array([1.0, -1.0, 0.5]),
                                   blocks=[[0], [1, 2]])
        assert [g.lin.shape for g in row_free.groups] == [(1, 1, 1), (1, 0, 2)]
        for prob in (random_block_problem(23), row_free):
            back = problem_from_json(problem_to_json(prob))
            assert problem_to_json(back) == problem_to_json(prob)
            for g, h in zip(prob.groups, back.groups):
                for f in ("cols", "quad", "lin", "const"):
                    assert getattr(g, f).shape == getattr(h, f).shape
                    assert getattr(g, f).tobytes() == getattr(h, f).tobytes()
                assert g.kinds == h.kinds
            for f in ("q0", "budget"):
                assert getattr(prob, f).tobytes() == getattr(back, f).tobytes()
            a = solve(prob, 1e-9)
            b = solve(back, 1e-9)
            assert np.array_equal(a.primal, b.primal)
        # older texts carry the arrays' variable scale; the arrays are over y
        prob = random_block_problem(23)
        doc = json.loads(problem_to_json(prob))
        doc["var_scale"] = [3.0] * prob.n_vars
        assert problem_to_json(problem_from_json(json.dumps(doc))) == problem_to_json(prob)

    def test_assembled_subproblem_round_trips(self):
        # the first RSMA subproblem of a run whose focused-power floors bind
        chan = make_deterministic_scenario(4 * np.pi / 9, 2 * np.pi / 9, 4, 4)
        csit = CsitModel(h_hat=chan.h, sigma_ie2=0.3, alpha=0.6)
        stats = au_statistics_uniform_phase(4 * np.pi / 9, 4, 4, 1, (1, 3))
        config = SolveConfig(P_t=10.0, M=2, thresholds=build_thresholds(stats, 0.9, 10.0))
        samples = draw_csit_samples(csit, 2, 0)
        pre = initialize(csit, stats, config)
        prob = _assemble_subproblem(VariableLayout(4, 4, 2, 1, stats.pilot_idx, rsma=True),
                                    _surrogate(samples, pre, _sampled_info(samples, pre)), pre,
                                    _Floors(stats, config.thresholds, config.P_t), config.P_t)
        assert len(prob.a_constraints) == 2
        a = solve(prob, 1e-7)
        b = solve(problem_from_json(problem_to_json(prob)), 1e-7)
        assert a.status == "optimal"
        assert np.array_equal(a.primal, b.primal)
        floors = prob.evaluate(a.primal)[2][prob.a_constraints]
        assert np.all(np.abs(floors) < 1e-4)

    def test_infeasible_reports_violating_constraints(self):
        prob = floor_beyond_budget_problem()
        res = solve(prob, 1e-8, max_iter=60)
        assert res.status == "infeasible" and res.iterations < 20
        kinds = {kind for _, kind, _ in res.violations}
        assert any(k.startswith("a[") or k.startswith("q[") for k in kinds)

    def test_infeasible_two_block_reports_canonical_order(self):
        # x3 >= 1 (a[0]) contradicts x3 <= 0 (sign[1]); both quadratic rows and
        # sign[0] stay slack.  Rows are numbered group by group, block by block,
        # with the budget last.
        blocks = [np.arange(0, 2), np.arange(2, 4)]
        prob = stacked_problem(
            4, np.eye(4),
            [quad_bound(4, blocks[0], np.eye(2), bound_const=4.0), sign_row(4, 1),
             lower_bound(4, [3], [1.0], 1.0), sign_row(4, 3)],
            q0=np.array([1.0, 0.0, 0.0, 0.0]), blocks=blocks,
            budget=np.ones(4), budget_const=-9.0)
        assert prob.labels() == ["q[0]", "sign[0]", "a[0]", "sign[1]", "q[1]"]
        assert [list(r) for r in (prob.q_constraints, prob.a_constraints,
                                  prob.sign_constraints)] == [[0, 4], [2], [1, 3]]
        res = solve(prob, 1e-8, max_iter=60)
        assert res.status == "infeasible" and res.iterations < 20
        assert [(i, kind) for i, kind, _ in res.violations] == [(2, "a[0]"), (3, "sign[1]")]
        c = prob.evaluate(res.primal)[2]
        for i, _, value in res.violations:
            assert value == pytest.approx(c[i], abs=1e-12)
        lam = res.multipliers
        assert lam.shape == (5,)  # q[0], sign[0], a[0], sign[1], q[1]
        assert min(lam[2], lam[3]) > 1.0 and max(lam[0], lam[4]) < 0.1


GROUPINGS = {"one_per_block": [[0], [1], [2], [3]], "merged": [[0, 1], [2, 3]],
             "reversed": [[2, 3], [0, 1]]}


class TestGrouping:
    """One problem with blocks of two widths, stated with every block its own
    group, with same-shape blocks merged, and with the groups reversed: the
    grouping changes only the order of the stack's blocks and rows."""

    @pytest.mark.parametrize("max_iter", [100, 3])
    def test_grouping_does_not_change_a_solve(self, max_iter):
        tol = 1e-9
        out = {}
        for name, groups in GROUPINGS.items():
            prob = two_width_problem(groups)
            assert [g.cols.shape[1] for g in prob.groups] == [3 if group[0] < 2 else 2
                                                              for group in groups]
            res = solve(prob, tol, max_iter=max_iter)
            keys = row_keys(groups)
            out[name] = (prob, res, dict(zip(keys, res.multipliers)),
                         [(keys[i], label.split("[")[0], value)
                          for i, label, value in res.violations])
        (_, ref, ref_lam, ref_viol), *others = out.values()
        assert ref.status == ("optimal" if max_iter == 100 else "max_iter")
        if max_iter == 100:
            assert min(ref.multipliers) < 1e-6 < max(ref.multipliers[:-1])   # some rows bind
        else:
            assert ref_viol    # the capped iterate still violates rows
        for prob, res, lam, viol in others:
            assert (res.status, res.iterations) == (ref.status, ref.iterations)
            np.testing.assert_allclose(res.primal, ref.primal, rtol=0.0, atol=1e-12)
            for key, value in ref_lam.items():
                assert lam[key] == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert [v[:2] for v in viol] == [v[:2] for v in ref_viol]
            np.testing.assert_allclose([v[2] for v in viol], [v[2] for v in ref_viol],
                                       rtol=1e-9, atol=1e-12)
        for prob, res, _, _ in out.values():
            assert certify(prob, res, 10 * tol) == (max_iter == 100)

    @pytest.mark.parametrize("name", GROUPINGS)
    def test_indefinite_narrow_block_raises(self, name):
        # the width-2 blocks sit padded to width 3 in the stack; only their
        # own Newton blocks are factorized, so an indefinite one still raises
        prob = two_width_problem(GROUPINGS[name], narrow_H=-10.0 * np.eye(2))
        with pytest.raises(SolverError, match="could not be factorized"):
            solve(prob, 1e-9)


DESK_CORPUS = os.path.join(os.path.dirname(__file__), "data", "desk_warm_subproblems.npz")


@pytest.mark.parametrize("case", ["rsma_4x25_4x33", "rsma_6x25_2x33", "sdma_4x16_4x24",
                                  "sdma_6x16_2x24"])
def test_warm_desk_subproblem_replays(case):
    # tests/data/desk_warm_subproblems.npz holds one warm-started subproblem of
    # a seed-0 desk benchmark pass per group shape, with the iteration count
    # the IPM took on it before it ran on the block stack (written by
    # tests/data/capture_desk_warm_subproblems.py)
    with np.load(DESK_CORPUS) as data:
        d = {k[len(case) + 1:]: data[k] for k in data.files if k.startswith(case + "_")}
    groups = [BlockGroup(d[f"g{i}_cols"], d[f"g{i}_quad"], d[f"g{i}_lin"], d[f"g{i}_const"],
                         tuple(str(k) for k in d[f"g{i}_kinds"]))
              for i in range(int(d["n_groups"]))]
    assert "x".join(f"{g.cols.shape[0]}x{g.cols.shape[1]}" for g in groups) == case[5:].replace("_", "x")
    prob = ConvexSubproblem(groups=groups, q0=d["q0"], budget=d["budget"],
                            budget_const=float(d["budget_const"]), c0=float(d["c0"]))
    tol = float(d["tol"])
    res = solve(prob, tol, start=(d["start_primal"], d["start_multipliers"]))
    assert str(d["status"]) == res.status == "optimal"
    assert res.iterations == int(d["iterations"])
    assert certify(prob, res, 10 * tol)
