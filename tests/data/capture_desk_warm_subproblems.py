"""Write desk_warm_subproblems.npz: warm-started desk subproblems to replay.

A seed-0 desk benchmark pass (``perfbench.workloads.desk_instances(0)``) runs
with a wrapper on ``jamcom.solver.solve``.  For each of four group shapes,
(blocks, width) per group, the first solve called with a ``start`` is kept:
the subproblem's arrays, its start and the iteration count and status the
solve returned.  Run from the repository root:

    PYTHONPATH=src python tests/data/capture_desk_warm_subproblems.py

The checked-in file was written at commit 3dcd9a2, before the IPM ran on one
padded block stack per subproblem, so its iteration counts are that IPM's.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.getcwd())

from jamcom import optimizer as op  # noqa: E402
from jamcom import solver as sv  # noqa: E402
from perfbench.workloads import desk_instances  # noqa: E402

SHAPES = {
    "rsma_4x25_4x33": ((4, 25), (4, 33)),
    "rsma_6x25_2x33": ((6, 25), (2, 33)),
    "sdma_4x16_4x24": ((4, 16), (4, 24)),
    "sdma_6x16_2x24": ((6, 16), (2, 24)),
}


def main(path=os.path.join(os.path.dirname(__file__), "desk_warm_subproblems.npz")):
    wanted = {shape: name for name, shape in SHAPES.items()}
    out, solve = {}, sv.solve

    def capture(problem, tol=1e-8, max_iter=100, start=None):
        res = solve(problem, tol=tol, max_iter=max_iter, start=start)
        name = wanted.get(tuple(g.cols.shape for g in problem.groups))
        if start is not None and name is not None and name + "_iterations" not in out:
            for i, g in enumerate(problem.groups):
                for f in ("cols", "quad", "lin", "const"):
                    out[f"{name}_g{i}_{f}"] = getattr(g, f)
                out[f"{name}_g{i}_kinds"] = np.array(g.kinds)
            out.update({f"{name}_q0": problem.q0, f"{name}_c0": problem.c0,
                        f"{name}_budget": problem.budget,
                        f"{name}_budget_const": problem.budget_const,
                        f"{name}_n_groups": len(problem.groups),
                        f"{name}_start_primal": start[0], f"{name}_start_multipliers": start[1],
                        f"{name}_tol": tol, f"{name}_iterations": res.iterations,
                        f"{name}_status": res.status})
        return res

    sv.solve = capture
    try:
        for inst in desk_instances(0):
            op.optimize(inst.csit, inst.stats, inst.config)
    finally:
        sv.solve = solve
    missing = [n for n in SHAPES if n + "_iterations" not in out]
    if missing:
        raise SystemExit(f"no warm-started solve of shape {missing}")
    np.savez_compressed(path, **out)
    print(path, os.path.getsize(path), "bytes")


if __name__ == "__main__":
    main()
