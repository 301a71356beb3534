"""Driving the convex subproblem solver directly.

Builds a small quadratically-constrained problem by hand, solves it, checks
the independent certificate, round-trips the instance through the JSON debug
format so it could be replayed against an external solver, and re-solves a
perturbed copy warm from the first solution.
"""

import dataclasses

import numpy as np

from jamcom.solver import (
    AConstraint,
    Affine,
    ConvexSubproblem,
    DiagTerm,
    Objective,
    QConstraint,
    QuadTerm,
    certify,
    problem_from_json,
    problem_to_json,
    solve,
)

rng = np.random.default_rng(3)

# min z'Qz + q'z  s.t.  ||z||^2 <= 4,  a'z >= 1,  z_4 <= 0
# with two independent variable blocks coupled only by the norm budget.
blocks = [np.arange(0, 3), np.arange(3, 6)]
A1 = rng.standard_normal((3, 3))
A2 = rng.standard_normal((3, 3))
prob = ConvexSubproblem(
    n_vars=6,
    objective=Objective(
        (QuadTerm(blocks[0], A1.T @ A1 / 3), QuadTerm(blocks[1], A2.T @ A2 / 3)),
        Affine(np.arange(6), rng.standard_normal(6) * 0.5, 0.0)),
    q_constraints=[QConstraint(DiagTerm(np.arange(6), np.ones(6)),
                               Affine.constant(4.0))],
    a_constraints=[AConstraint(Affine(np.array([0, 3]), np.array([1.0, 1.0]), 0.0), 1.0)],
    sign_constraints=np.array([4]),
    blocks=blocks,
)

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
print("halfspace value :", round(float(res.primal[0] + res.primal[3]), 6), ">= 1")

# A neighbouring problem (objective tilted, budget tightened by 5%) solved
# cold and warm from the first solution's primal and multipliers, the way
# the optimizer chains its per-iteration subproblems.
tilted = dataclasses.replace(
    prob,
    objective=Objective(prob.objective.quads,
                        Affine(np.arange(6), prob.objective.affine.coef * 1.05, 0.0)),
    q_constraints=[QConstraint(DiagTerm(np.arange(6), np.ones(6)), Affine.constant(3.8))])
cold = solve(tilted, tol=1e-9)
warm = solve(tilted, tol=1e-9, start=(res.primal, res.multipliers))
print("perturbed copy, cold:", cold.status, cold.iterations, "iterations")
print("perturbed copy, warm:", warm.status, warm.iterations, "iterations,",
      "certified:", certify(tilted, warm, 1e-6))
print("objectives agree    :", abs(warm.objective_value - cold.objective_value)
      <= 1e-6 * abs(cold.objective_value))
