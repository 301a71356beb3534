"""Primal-dual interior-point solver for the per-iteration convex subproblems.

A subproblem arrives in the stacked block form the IPM works on:

    minimize    sum_b y_b' H_b y_b + q0' y + c0
    subject to  y_b' Q_bi y_b + lin_bi' y_b + const_bi <= 0   (block b, row i)
                budget' (y * y) + budget_const <= 0            (the budget row)

with every H_b and Q_bi PSD and budget >= 0.  Every subproblem carries the
budget row, so it has at least one row.  The blocks y_b = y[cols_b]
partition the variables.  Blocks of one width that carry the same rows form a
group (BlockGroup) of stacked arrays: cols (nb, w), quad (nb, 1 + k, w, w),
lin (nb, k, w) and const (nb, k), where quad[:, 0] = H_b and quad[:, i] = Q_bi.
Each row has a kind: "q" (quadratic), "a" (affine, Q = 0) or "sign" (y_x <= 0:
Q = 0, lin = e_x, const = 0).  The diagonal budget row is the only row that
spans blocks.  Rows are numbered group by group, block by block, row by row,
with the budget row last; multipliers, warm starts and violations use this
canonical numbering, and a violation names its row by kind and rank among
that kind: "q[i]", "a[j]" or "sign[t]".

With a fixed row count per block, every per-iteration sum over rows is a
batched contraction: the Lagrangian Hessian blocks are H_b + sum_i lam_bi Q_bi,
the Newton blocks add G_b' diag(d_b) G_b over the row gradients G_b (k, w) of
the block, and the budget row's gradient is the one rank-one (Sherman-Morrison)
correction of the blockwise Newton solve.  One product with each group's quad
stack evaluates the objective and every row at a point, once per IPM iterate.
The iteration schedule is fixed and free of randomness, so identical inputs
produce bitwise-identical results.

The Newton step is dual-regularized (Friedlander & Orban, Math. Program.
Comput. 2012): its rows read J dz + ds - δ dlam = -r_p, δ = _DELTA = 1e-8, so
each row scaling lam / (s + δ lam) stays below 1/δ, and a multiplier past 1/δ
on a violated row is the verdict "infeasible".

A solve starts cold, at y = 0 with unit multipliers, or warm from a caller's
(primal, multipliers), typically the solution of a neighbouring problem.  A
warm start keeps the primal point and lifts every multiplier to at least
δ = _WARM_GAP = 1e-2 and every slack to at least δ times the constraint
scale, so the iterate is strictly interior and can still leave a constraint
that was active before (Gondzio & Grothey, "Reoptimization with the
primal-dual interior point method", SIAM J. Optim. 2003; Yildirim & Wright,
"Warm-start strategies in interior-point methods for linear programming",
SIAM J. Optim. 2002).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ._checks import finite_array, integer, real

__all__ = [
    "BlockGroup",
    "ConvexSubproblem",
    "SolverError",
    "SolverResult",
    "certify",
    "problem_from_json",
    "problem_to_json",
    "solve",
]

_KINDS = ("q", "a", "sign")


class SolverError(RuntimeError):
    pass


@dataclass
class BlockGroup:
    """nb blocks of width w, each with the same k rows, stacked; all finite."""

    cols: np.ndarray     # (nb, w) variable columns of each block
    quad: np.ndarray     # (nb, 1 + k, w, w) objective quadratic, then row quadratics
    lin: np.ndarray      # (nb, k, w) row linear parts
    const: np.ndarray    # (nb, k) row constants
    kinds: Tuple[str, ...]   # (k,) the kind of each row, "q" | "a" | "sign"

    def __post_init__(self):
        self.cols = np.asarray(self.cols, dtype=np.int64)
        if self.cols.ndim != 2:
            raise ValueError("cols must be shaped (blocks, width)")
        self.kinds = tuple(self.kinds)
        if not set(self.kinds) <= set(_KINDS):
            raise ValueError(f"row kinds must be among {_KINDS}")
        nb, w = self.cols.shape
        k = len(self.kinds)
        for name, shape in (("quad", (nb, 1 + k, w, w)), ("lin", (nb, k, w)),
                            ("const", (nb, k))):
            setattr(self, name, finite_array(getattr(self, name), name, shape))


@dataclass
class ConvexSubproblem:
    """The stacked form of the module docstring.  ``budget`` and
    ``budget_const`` are required: a budget that is not a finite, nonnegative
    (n_vars,) array, or a non-finite budget_const, q0 or c0, raises ValueError.
    After construction, ``n_vars`` is q0.size, ``m`` the canonical row count (at
    least 1, the budget row), and ``q_constraints``, ``a_constraints`` and
    ``sign_constraints`` the canonical numbers of the rows of each kind."""

    groups: List[BlockGroup]
    q0: np.ndarray
    budget: np.ndarray          # (n,) diagonal of the spanning row
    budget_const: float
    c0: float = 0.0

    def __post_init__(self):
        self.groups = list(self.groups)
        self.q0 = finite_array(self.q0, "q0 and c0").reshape(-1)
        self.c0 = real(self.c0, "q0 and c0", "be finite")
        n = self.n_vars = self.q0.size
        count = np.bincount(np.concatenate([np.zeros(0, dtype=np.int64)]
                                           + [g.cols.ravel() for g in self.groups]),
                            minlength=n)
        if count.size > n or np.any(count != 1):
            raise ValueError("the blocks must partition the n_vars = q0.size variables")
        self.budget = finite_array(self.budget, "budget", (n,), ge=0.0,
                                   rule="be finite and nonnegative")
        self.budget_const = real(self.budget_const, "budget_const", "be finite")
        self._kind = np.concatenate(
            [np.tile(np.array([_KINDS.index(k) for k in g.kinds], dtype=np.int64),
                     g.cols.shape[0]) for g in self.groups]
            + [np.zeros(1, dtype=np.int64)])
        self.m = self._kind.size
        self.q_constraints, self.a_constraints, self.sign_constraints = (
            np.flatnonzero(self._kind == c) for c in range(len(_KINDS)))
        ends = np.cumsum([g.const.size for g in self.groups], dtype=np.int64)
        self._rows = [slice(e - g.const.size, e) for g, e in zip(self.groups, ends)]
        self.feas_scale = 1.0 + max([abs(self.budget_const)]
                                    + [float(np.max(np.abs(g.const), initial=0.0))
                                       for g in self.groups])

    def labels(self) -> List[str]:
        """Each canonical row's kind and rank among its kind, e.g. "a[0]"."""
        rank = np.empty(self.m, dtype=np.int64)
        for c in range(len(_KINDS)):
            at = self._kind == c
            rank[at] = np.arange(np.count_nonzero(at))
        return [f"{_KINDS[c]}[{r}]" for c, r in zip(self._kind, rank)]

    def split(self, v: np.ndarray) -> List[np.ndarray]:
        """The (nb, k) views of a canonical row vector v, one per group."""
        return [v[rows].reshape(g.const.shape) for g, rows in zip(self.groups, self._rows)]

    def evaluate(self, y: np.ndarray):
        """(f, grad, c, jac) at the point y: the objective value and gradient,
        the canonical row values (feasible means <= 0) and the Jacobian, i.e.
        the (nb, k, w) row gradients of each group and the budget row's (n,)
        gradient."""
        f = float(self.q0 @ y) + self.c0
        grad = self.q0.copy()
        c = np.empty(self.m)
        G = []
        for g, rows in zip(self.groups, self._rows):
            yb = y[g.cols]
            nb, k, w = g.lin.shape
            Ay = np.matmul(g.quad.reshape(nb, (1 + k) * w, w), yb[..., None]).reshape(nb, 1 + k, w)
            Hy, Qy = Ay[:, 0], Ay[:, 1:]
            f += float(np.sum(yb * Hy))
            grad[g.cols] += 2.0 * Hy
            c[rows] = (g.const + np.sum(yb[:, None, :] * (Qy + g.lin), axis=2)).ravel()
            G.append(2.0 * Qy + g.lin)
        c[-1] = self.budget_const + self.budget @ (y * y)
        return f, grad, c, (G, 2.0 * self.budget * y)

    def _jac_t(self, jac, v: np.ndarray) -> np.ndarray:
        """J' v."""
        G, grad_b = jac
        out = v[-1] * grad_b
        for g, Gg, vg in zip(self.groups, G, self.split(v)):
            out[g.cols] += np.matmul(vg[:, None, :], Gg)[:, 0]
        return out

    def _jac_dot(self, jac, dy: np.ndarray) -> np.ndarray:
        """J dy."""
        G, grad_b = jac
        out = np.empty(self.m)
        for g, Gg, rows in zip(self.groups, G, self._rows):
            out[rows] = np.matmul(Gg, dy[g.cols][..., None]).ravel()
        out[-1] = grad_b @ dy
        return out

    def _hessian(self, lam: np.ndarray) -> List[np.ndarray]:
        """Per group, the blocks of the Lagrangian's quadratic part at lam."""
        out = []
        for g, lg in zip(self.groups, self.split(lam)):
            nb, k, w = g.lin.shape
            Hb = np.matmul(lg[:, None, :], g.quad[:, 1:].reshape(nb, k, w * w)).reshape(nb, w, w)
            Hb += g.quad[:, 0]
            diag = np.arange(w)
            Hb[:, diag, diag] += lam[-1] * self.budget[g.cols]
            out.append(Hb)
        return out


@dataclass
class SolverResult:
    """The last iterate of a solve; duality_gap is its total complementarity
    max(s'lam, -lam'c) / (1 + |f|), the gap ``certify`` re-derives."""

    primal: np.ndarray
    objective_value: float
    status: str                      # optimal | infeasible | non_finite | max_iter
    kkt_residual: float              # scaled dual-infeasibility at the final iterate
    duality_gap: float               # scaled total complementarity at the final iterate
    iterations: int = 0
    multipliers: Optional[np.ndarray] = None
    violations: List[tuple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the interior-point method


_FTB_MIN = 0.99
_DELTA = 1e-8       # dual regularization of the Newton step
_REG_BASE = 1e-11
_WARM_GAP = 1e-2    # least slack (relative) and multiplier of a warm start


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    mask = dv < 0.0
    return float(np.min(-v[mask] / dv[mask], initial=1.0))


class _BlockKKT:
    """Factorization of blockdiag(M_b) + u u' for one IPM iteration.

    Same-width blocks arrive stacked and are factorized with batched kernels,
    one Cholesky attempt per group (a block that is not positive definite, for
    an H outside the PSD contract, raises SolverError); solves use the
    Sherman-Morrison identity for the rank-one coupling plus one step of
    iterative refinement, which recovers the accuracy lost when the
    complementarity scaling becomes extreme near the solution.
    """

    def __init__(self, cols: List[np.ndarray], Mg: List[np.ndarray], u: np.ndarray):
        self.cols = cols  # per group: (nb, w) columns
        self.Mg = Mg      # per group: stacked (nb, w, w)
        self.Minv = []
        for M in Mg:
            w = M.shape[-1]
            reg = _REG_BASE * (1.0 + np.einsum("bii->b", M) / max(1, w))
            try:
                L = np.linalg.cholesky(M + reg[:, None, None] * np.eye(w))
            except np.linalg.LinAlgError:
                raise SolverError("Newton system could not be factorized") from None
            Li = np.linalg.inv(L)
            self.Minv.append(np.matmul(Li.swapaxes(-1, -2), Li))
        self.u = u  # (n,) already scaled by sqrt(weight)
        self.w = self._block_solve(u[:, None])[:, 0]
        self.cap = 1.0 + float(u @ self.w)

    def _block_solve(self, R: np.ndarray) -> np.ndarray:
        out = np.empty_like(R)
        for cols, Minv in zip(self.cols, self.Minv):
            out[cols] = np.matmul(Minv, R[cols])
        return out

    def _apply(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        xc = x.reshape(-1, 1)
        for cols, M in zip(self.cols, self.Mg):
            out[cols.reshape(-1)] = np.matmul(M, xc[cols]).reshape(-1)
        out += self.u * (self.u @ x)
        return out

    def _solve_once(self, r: np.ndarray) -> np.ndarray:
        y = self._block_solve(r.reshape(-1, 1))[:, 0]
        return y - self.w * (float(self.u @ y) / self.cap)

    def solve(self, r: np.ndarray) -> np.ndarray:
        # one refinement step: it nearly always meets the 1e-13 residual, so
        # a second residual would only confirm it
        x = self._solve_once(r)
        resid = r - self._apply(x)
        if float(np.max(np.abs(resid))) > 1e-13 * (float(np.max(np.abs(r))) + 1e-300):
            x = x + self._solve_once(resid)
        return x


def solve(problem: ConvexSubproblem, tol: float = 1e-8, max_iter: int = 100,
          start: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> SolverResult:
    """Solve the subproblem to the given scaled KKT tolerance.

    The result holds the last iterate, its scaled dual infeasibility
    kkt_residual and total complementarity gap duality_gap = max(s'lam,
    -lam'c) / (1 + |f|), and in ``iterations`` the count of iterates tested,
    the start included.  ``status`` names the exit: "optimal" (scaled
    violation and gap below tol, dual residual below 100 tol); "infeasible"
    (a row violated beyond tol * feas_scale while a multiplier exceeds
    1/_DELTA); "non_finite" (no finite step); or "max_iter".  Each Newton
    matrix is factorized once; one that is not positive definite raises
    SolverError.

    ``start`` = (primal, multipliers), of lengths n_vars and the canonical
    constraint count (as in a SolverResult), warm-starts the IPM at that
    primal point, with slacks max(-c(y), δ * feas_scale) and multipliers
    max(multipliers, δ), δ = _WARM_GAP; the primal point need not be
    feasible.  Other lengths raise ValueError.  Without a start the IPM
    begins at y = 0, with slacks max(1, -c(0)) and unit multipliers.  The
    returned primal is a new array, never the start's.  A tol that is not
    finite and positive, or a max_iter that is not an int >= 1, raises ValueError.
    """
    real(tol, "tol", "be finite and positive", gt=0.0)
    integer(max_iter, "max_iter", 1)
    p = problem
    n, m = p.n_vars, p.m
    cols = [g.cols for g in p.groups]
    z = np.zeros(n)
    if start is not None:
        z, lam0 = (np.array(a, dtype=np.float64).reshape(-1) for a in start)
        if z.size != n or lam0.size != m:
            raise ValueError(f"start has lengths ({z.size}, {lam0.size}), "
                             f"expected ({n}, {m})")

    # fval, gradf, cvals and jac are always at the current z
    fval, gradf, cvals, jac = p.evaluate(z)
    if start is None:
        s = np.maximum(1.0, -cvals)
        lam = np.ones(m)
    else:
        s = np.maximum(-cvals, _WARM_GAP * p.feas_scale)
        lam = np.maximum(lam0, _WARM_GAP)

    status = "max_iter"
    for it in range(1, max_iter + 1):
        r_d = gradf + p._jac_t(jac, lam)
        r_p = cvals + s
        sl = float(s @ lam)
        mu = sl / m

        violated = float(np.max(cvals, initial=0.0)) > tol * p.feas_scale
        kkt_rel = float(np.max(np.abs(r_d))) / (1.0 + float(np.max(np.abs(gradf))))
        # a slack that reads 0 on a row that is slack in truth hides a large
        # multiplier's gap, so the true rows' complementarity -lam'c counts too
        gap_rel = max(sl, -float(lam @ cvals)) / (1.0 + abs(fval))
        # degenerate multipliers can floor the stationarity residual well above
        # the gap/feasibility level; weak duality keeps the certificate sound,
        # so optimality asks a factor-100 looser dual residual
        if not violated and kkt_rel <= 100.0 * tol and gap_rel <= tol:
            status = "optimal"
            break
        # only a row that stays violated drives a multiplier past the bound
        # 1/_DELTA of the row scaling
        if violated and float(np.max(lam)) > 1.0 / _DELTA:
            status = "infeasible"
            break
        if it == max_iter:
            break

        # Newton matrix: Lagrangian Hessian plus G' diag(d) G per block over
        # its row gradients G, plus the budget row's rank-one term; the dual
        # regularization bounds the row scaling d by 1/_DELTA
        d = lam / (s + _DELTA * lam)
        Ms = [2.0 * Hb + np.matmul(G.swapaxes(1, 2) * dg[:, None, :], G)
              for Hb, G, dg in zip(p._hessian(lam), jac[0], p.split(d))]
        kkt = _BlockKKT(cols, Ms, jac[1] * np.sqrt(d[-1]))

        def solve_direction(r_c):
            v = r_p - r_c / lam
            dz = kkt.solve(-r_d - p._jac_t(jac, d * v))
            dlam = d * (p._jac_dot(jac, dz) + v)
            ds = -(r_c + s * dlam) / lam
            return dz, ds, dlam

        # Mehrotra predictor-corrector
        with np.errstate(over="ignore", invalid="ignore"):
            dz_a, ds_a, dlam_a = solve_direction(s * lam)
            mu_aff = float((s + _max_step(s, ds_a) * ds_a)
                           @ (lam + _max_step(lam, dlam_a) * dlam_a)) / m
            # a ratio above 1 gives the cap either way; cubed, it can overflow
            sigma = min(0.999, max(min(mu_aff / mu, 1.0) ** 3, 1e-10))
            dz, ds, dlam = solve_direction(s * lam - sigma * mu + ds_a * dlam_a)
        if not all(np.isfinite(a).all() for a in (dz, ds, dlam)):
            status = "non_finite"
            break

        ftb = min(0.9999, max(_FTB_MIN, 1.0 - mu))
        alpha_p, alpha_d = ftb * _max_step(s, ds), ftb * _max_step(lam, dlam)
        z = z + alpha_p * dz
        s = np.maximum(s + alpha_p * ds, 1e-30)
        lam = np.maximum(lam + alpha_d * dlam, 1e-30)
        fval, gradf, cvals, jac = p.evaluate(z)

    bad = np.flatnonzero(cvals > tol * p.feas_scale)
    labels = p.labels() if bad.size else []
    return SolverResult(primal=z, objective_value=fval, status=status, kkt_residual=kkt_rel,
                        duality_gap=gap_rel, iterations=it, multipliers=lam,
                        violations=[(int(i), labels[i], float(cvals[i])) for i in bad])


# ---------------------------------------------------------------------------
# certification


def certify(problem: ConvexSubproblem, result: SolverResult, tol: float) -> bool:
    """Re-derive feasibility and the duality gap from scratch.

    Evaluates every constraint at the primal point and computes the Lagrangian
    dual value at the returned multipliers by direct minimization; true iff
    the point is feasible, the multipliers are sign-correct, and the gap is
    within tol (scaled by 1 + |objective|).  A tol that is not finite and
    positive raises ValueError.
    """
    real(tol, "tol", "be finite and positive", gt=0.0)
    if result.status != "optimal":
        return False
    p = problem
    lam = result.multipliers
    if lam is None or lam.size != p.m:
        return False
    if np.any(lam < -tol):
        return False

    y = np.asarray(result.primal, dtype=np.float64)
    fval, _, cvals, _ = p.evaluate(y)
    if float(np.max(cvals)) > tol * p.feas_scale:
        return False

    # Lagrangian y'Hy + lin'y + const; its affine part is read off at y = 0
    n = p.n_vars
    f0, lin, c0, jac0 = p.evaluate(np.zeros(n))
    lin = lin + p._jac_t(jac0, lam)
    const = f0 + float(lam @ c0)
    H = np.zeros((n, n))
    for g, Hb in zip(p.groups, p._hessian(lam)):
        H[g.cols[:, :, None], g.cols[:, None, :]] = Hb

    zbar, *_ = np.linalg.lstsq(2.0 * H, -lin, rcond=None)
    resid = float(np.max(np.abs(2.0 * H @ zbar + lin)))
    if resid > 1e-6 * (1.0 + float(np.max(np.abs(lin)))):
        return False  # dual unbounded below in a null direction
    dual_val = float(zbar @ H @ zbar + lin @ zbar + const)
    gap = fval - dual_val
    return gap <= tol * (1.0 + abs(fval))


# ---------------------------------------------------------------------------
# JSON debug format


def problem_to_json(problem: ConvexSubproblem) -> str:
    """Serialize a subproblem so failing instances can be replayed elsewhere;
    floats are written with repr, so the copy is exact.  Each group is written
    as its fields "cols", "quad", "lin", "const" and "kinds"."""
    p = problem
    return json.dumps({
        "groups": [dict({f: getattr(g, f).tolist() for f in ("cols", "quad", "lin", "const")},
                        kinds=list(g.kinds)) for g in p.groups],
        "q0": p.q0.tolist(), "c0": p.c0, "budget": p.budget.tolist(),
        "budget_const": p.budget_const,
    })


def problem_from_json(text: str) -> ConvexSubproblem:
    """Inverse of problem_to_json; unknown keys (such as an older text's
    "var_scale") are ignored.  The arrays are reshaped from the "cols" shape
    (nb, w) and the row count k, so a group with k = 0 keeps its shape."""
    doc = json.loads(text)
    groups = []
    for gd in doc["groups"]:
        cols = np.array(gd["cols"], dtype=np.int64)
        nb, w = cols.shape
        k = len(gd["kinds"])
        groups.append(BlockGroup(cols, np.reshape(gd["quad"], (nb, 1 + k, w, w)),
                                 np.reshape(gd["lin"], (nb, k, w)),
                                 np.reshape(gd["const"], (nb, k)), gd["kinds"]))
    return ConvexSubproblem(groups=groups, q0=np.array(doc["q0"], dtype=np.float64),
                            budget=doc["budget"], budget_const=doc["budget_const"],
                            c0=doc["c0"])
