"""Driving the convex subproblem solver directly.

Builds a small quadratically-constrained problem by hand in the solver's
stacked block form, solves it, checks the independent certificate,
round-trips the instance through the JSON debug format so it could be
replayed against an external solver, and re-solves a perturbed copy warm from
the first solution.
"""

import dataclasses

import numpy as np

from jamcom.solver import (
    BlockGroup,
    ConvexSubproblem,
    certify,
    problem_from_json,
    problem_to_json,
    solve,
)

rng = np.random.default_rng(3)

# min z'Hz + q'z  s.t.  ||z||^2 <= 4,  z_0 + z_1 >= 1,  z_4 <= 0
# with two independent variable blocks coupled only by the norm budget.
# Every row reads y'Q y + lin'y + const <= 0 over its block's variables y; the
# two blocks carry different rows, so each is a group of its own.  A group's
# quad stacks its objective quadratic (row 0) and its row quadratics (here the
# affine and sign rows' zeros).
A1 = rng.standard_normal((3, 3))
A2 = rng.standard_normal((3, 3))
halfspace = BlockGroup(                      # block z[0:3]: 1 - z_0 - z_1 <= 0
    cols=np.array([[0, 1, 2]]), quad=np.stack([A1.T @ A1 / 3, np.zeros((3, 3))])[None],
    lin=np.array([[[-1.0, -1.0, 0.0]]]), const=np.array([[1.0]]), kinds=("a",))
sign = BlockGroup(                           # block z[3:6]: z_4 <= 0
    cols=np.array([[3, 4, 5]]), quad=np.stack([A2.T @ A2 / 3, np.zeros((3, 3))])[None],
    lin=np.array([[[0.0, 1.0, 0.0]]]), const=np.array([[0.0]]), kinds=("sign",))
prob = ConvexSubproblem(groups=[halfspace, sign], q0=rng.standard_normal(6) * 0.5,
                        budget=np.ones(6), budget_const=-4.0)

res = solve(prob, tol=1e-9)
print("status        :", res.status)
print("objective     :", res.objective_value)
print("iterations    :", res.iterations)
print("kkt residual  :", f"{res.kkt_residual:.2e}")
print("duality gap   :", f"{res.duality_gap:.2e}")
print("primal        :", np.round(res.primal, 5))
print("certified     :", certify(prob, res, 1e-6))

# The instance serializes to JSON for replay; solving the round-tripped copy
# reproduces the primal bit for bit.
clone = problem_from_json(problem_to_json(prob))
res2 = solve(clone, tol=1e-9)
print("round-trip bitwise equal:", bool(np.array_equal(res.primal, res2.primal)))

# Constraint activity at the optimum.
print("norm budget used:", round(float(res.primal @ res.primal), 6), "of 4")
print("halfspace value :", round(float(res.primal[0] + res.primal[1]), 6), ">= 1")

# A neighbouring problem (objective tilted, budget tightened by 5%) solved
# cold and warm from the first solution's primal and multipliers, the way
# the optimizer chains its per-iteration subproblems.
tilted = dataclasses.replace(prob, q0=prob.q0 * 1.05, budget_const=-3.8)
cold = solve(tilted, tol=1e-9)
warm = solve(tilted, tol=1e-9, start=(res.primal, res.multipliers))
print("perturbed copy, cold:", cold.status, cold.iterations, "iterations")
print("perturbed copy, warm:", warm.status, warm.iterations, "iterations,",
      "certified:", certify(tilted, warm, 1e-6))
print("objectives agree    :", abs(warm.objective_value - cold.objective_value)
      <= 1e-6 * abs(cold.objective_value))
