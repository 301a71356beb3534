"""Primal-dual interior-point solver for the per-iteration convex subproblems.

The canonical problem is

    minimize    z' Q0 z + q0' z + c0
    subject to  z' Qi z  <=  ai' z + bi     (convex quadratic vs affine)
                aj' z    >=  lj             (affine lower bounds)
                z[idx]   <=  0              (sign constraints)

with every quadratic PSD.  Problems may declare disjoint variable blocks;
quadratics and constraint supports must then stay inside one block, except
for diagonal quadratics (the total-power budget), which may couple blocks.
Each problem is compiled once, with var_scale applied, into stacked arrays:
blocks of equal width form a group that holds its objective Hessian blocks
and its block-local constraints as dense quadratics, and block-coupling
constraints are full-length rows whose gradients become a low-rank Woodbury
correction of the blockwise Newton solve.  The IPM, certify and the eval_*
functions all work from this one form.  The iteration schedule is fixed and
free of randomness, so identical inputs produce bitwise-identical results.

A solve starts cold, at z = 0 with unit multipliers, or warm from a caller's
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
from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "AConstraint",
    "Affine",
    "ConvexSubproblem",
    "DiagTerm",
    "Objective",
    "QConstraint",
    "QuadTerm",
    "SolverError",
    "SolverResult",
    "certify",
    "problem_from_json",
    "problem_to_json",
    "solve",
]


class SolverError(RuntimeError):
    pass


def _idx(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64).reshape(-1)


@dataclass(frozen=True)
class QuadTerm:
    """value(z) = z[cols] @ Q @ z[cols] with Q symmetric PSD."""

    cols: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cols", _idx(self.cols))
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=np.float64))
        if self.Q.shape != (self.cols.size, self.cols.size):
            raise ValueError("Q shape does not match cols")


@dataclass(frozen=True)
class DiagTerm:
    """value(z) = sum(d * z[cols]**2) with d >= 0."""

    cols: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cols", _idx(self.cols))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64).reshape(-1))
        if self.d.size != self.cols.size:
            raise ValueError("d length does not match cols")


@dataclass(frozen=True)
class Affine:
    """value(z) = coef @ z[cols] + const."""

    cols: np.ndarray
    coef: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cols", _idx(self.cols))
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=np.float64).reshape(-1))
        if self.coef.size != self.cols.size:
            raise ValueError("coef length does not match cols")

    @staticmethod
    def constant(value: float) -> "Affine":
        return Affine(cols=np.zeros(0, dtype=np.int64), coef=np.zeros(0), const=value)


QuadLike = Union[QuadTerm, DiagTerm]


@dataclass(frozen=True)
class Objective:
    quads: tuple
    affine: Affine

    def __post_init__(self):
        object.__setattr__(self, "quads", tuple(self.quads))


@dataclass(frozen=True)
class QConstraint:
    """quad(z) <= bound(z)."""

    quad: QuadLike
    bound: Affine


@dataclass(frozen=True)
class AConstraint:
    """aff(z) >= lower."""

    aff: Affine
    lower: float


@dataclass
class ConvexSubproblem:
    n_vars: int
    objective: Objective
    q_constraints: List[QConstraint] = field(default_factory=list)
    a_constraints: List[AConstraint] = field(default_factory=list)
    sign_constraints: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    blocks: Optional[List[np.ndarray]] = None
    var_scale: Optional[np.ndarray] = None

    def __post_init__(self):
        self.n_vars = int(self.n_vars)
        self.sign_constraints = _idx(self.sign_constraints)
        if self.blocks is not None:
            self.blocks = [_idx(b) for b in self.blocks]
        if self.var_scale is not None:
            self.var_scale = np.asarray(self.var_scale, dtype=np.float64).reshape(-1)
            if self.var_scale.size != self.n_vars:
                raise ValueError("var_scale length must equal n_vars")
            if np.any(self.var_scale <= 0.0):
                raise ValueError("var_scale entries must be positive")


@dataclass
class SolverResult:
    primal: np.ndarray
    objective_value: float
    status: str                      # optimal | infeasible | max_iter
    kkt_residual: float              # scaled dual-infeasibility at the final iterate
    duality_gap: float               # scaled complementarity gap at the final iterate
    iterations: int = 0
    multipliers: Optional[np.ndarray] = None
    violations: List[tuple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# compiled form


def _dense(idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """Sum vals at idx into a dense vector of the given length."""
    return np.bincount(idx, vals, size).astype(np.float64, copy=False)


@dataclass
class _Group:
    """The blocks of one width, stacked, with the constraints that live inside
    one of them.  Constraints are sorted by block row, so sums over the
    constraints of each block are segment sums."""

    cols: np.ndarray     # (nb, w) variable columns of each block
    H: np.ndarray        # (nb, w, w) objective quadratic
    idx: np.ndarray      # (m,) canonical constraint numbers
    row: np.ndarray      # (m,) block row of each constraint
    Q: np.ndarray        # (m, w, w)
    lin: np.ndarray      # (m, w)

    def __post_init__(self):
        self.rows, self.starts = np.unique(self.row, return_index=True)
        self.diag = np.arange(self.cols.shape[1])

    def block_sum(self, X: np.ndarray) -> np.ndarray:
        """Sum per-constraint arrays X (m, ...) into their blocks (nb, ...)."""
        out = np.zeros(self.cols.shape[:1] + X.shape[1:])
        out[self.rows] = np.add.reduceat(X, self.starts, axis=0)
        return out


class _Compiled:
    """A subproblem in solver form, over the scaled variables y = z / var_scale.

    Constraints are canonical, c_i(y) = y'Q_i y + lin_i'y + const_i <= 0,
    numbered q, then a, then sign.  Those whose support lies in one block are
    stored densely in that block's width group; the others, whose quadratic
    must be diagonal (the total-power budget), are full-length rows.
    Evaluation, the Newton blocks and certify all read these arrays.
    """

    def __init__(self, problem: ConvexSubproblem):
        n = self.n = problem.n_vars
        blocks = problem.blocks if problem.blocks is not None else [np.arange(n)]
        sizes = np.array([cols.size for cols in blocks])
        every = np.concatenate(blocks)
        count = np.bincount(every, minlength=n)
        if np.any(count > 1):
            raise ValueError("blocks must be disjoint")
        if count.size > n or np.any(count == 0):
            raise ValueError("blocks must cover exactly the n_vars variables")
        owner = np.empty(n, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        owner[every] = np.repeat(np.arange(len(blocks)), sizes)
        pos[every] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        scale = self.scale = (problem.var_scale if problem.var_scale is not None
                              else np.ones(n))
        by_width: dict = {}
        for b, cols in enumerate(blocks):
            by_width.setdefault(cols.size, []).append(b)
        widths = sorted(by_width)
        grp = np.empty(len(blocks), dtype=np.int64)    # width group of each block
        row = np.empty(len(blocks), dtype=np.int64)    # its row in that group
        for gi, w in enumerate(widths):
            grp[by_width[w]] = gi
            row[by_width[w]] = np.arange(len(by_width[w]))

        def locate(terms, lt, lc):
            """Block of each term's support (block 0 if empty) and whether the
            support spans several blocks; term i's support is its quadratic's
            columns plus the linear columns lc[lt == i]."""
            quad_cols = [t.cols if t is not None else lc[:0] for t in terms]
            term = np.concatenate([np.repeat(np.arange(len(terms)),
                                             [c.size for c in quad_cols]), lt])
            var = owner[np.concatenate(quad_cols + [lc])]
            blk = np.zeros(len(terms), dtype=np.int64)
            blk[term[::-1]] = var[::-1]
            spans = np.zeros(len(terms), dtype=bool)
            spans[term[var != blk[term]]] = True
            if any(isinstance(terms[i], QuadTerm) for i in np.flatnonzero(spans)):
                raise ValueError("a dense quadratic term may not span multiple blocks")
            return blk, spans

        def add(Q, t):
            """Add the quadratic term t, local to Q's block, into Q."""
            p, sc = pos[t.cols], scale[t.cols]
            if isinstance(t, QuadTerm):
                Q[p[:, None], p] += t.Q * (sc[:, None] * sc)
            else:
                Q[np.diag_indices(Q.shape[0])] += _dense(p, t.d * sc ** 2, Q.shape[0])

        # canonical constraints, q then a then sign, with every linear entry
        # as (constraint lt, column lc, scaled coefficient lv)
        qc, ac, sign = problem.q_constraints, problem.a_constraints, problem.sign_constraints
        self.kinds = ([f"q[{i}]" for i in range(len(qc))] + [f"a[{j}]" for j in range(len(ac))]
                      + [f"sign[{t}]" for t in range(sign.size)])
        m = self.m = len(self.kinds)
        self.const = np.concatenate([[-c.bound.const for c in qc],
                                     [c.lower - c.aff.const for c in ac], np.zeros(sign.size)])
        self.feas_scale = 1.0 + float(np.max(np.abs(self.const), initial=0.0))
        quads = [c.quad for c in qc] + [None] * (m - len(qc))
        affs = [c.bound for c in qc] + [c.aff for c in ac]
        lt = np.repeat(np.arange(m), [a.cols.size for a in affs] + [1] * sign.size)
        lc = np.concatenate([a.cols for a in affs] + [sign])
        lv = np.concatenate([-a.coef for a in affs] + [np.ones(sign.size)]) * scale[lc]
        blk, spans = locate(quads, lt, lc)

        # spanning constraints: full-length diagonal and linear rows
        self.span_idx = np.flatnonzero(spans)
        span_row = np.cumsum(spans) - 1
        self.span_D = np.zeros((self.span_idx.size, n))
        for i in self.span_idx[self.span_idx < len(qc)]:
            t = quads[i]
            self.span_D[span_row[i]] = _dense(t.cols, t.d * scale[t.cols] ** 2, n)
        e = spans[lt]
        self.span_A = _dense(span_row[lt[e]] * n + lc[e], lv[e],
                             self.span_D.size).reshape(-1, n)

        # block-local constraints, ordered by group, block row and number
        local = np.flatnonzero(~spans)
        local = local[np.lexsort((local, row[blk[local]], grp[blk[local]]))]
        local_grp = grp[blk[local]]
        slot = np.empty(m, dtype=np.int64)             # position in its group
        slot[local] = (np.arange(local.size)
                       - np.searchsorted(local_grp, np.arange(len(widths)))[local_grp])
        Q = [np.zeros((np.count_nonzero(local_grp == gi), w, w)) for gi, w in enumerate(widths)]
        for i in local:
            if quads[i] is not None:
                add(Q[grp[blk[i]]][slot[i]], quads[i])

        H = [np.zeros((len(by_width[w]), w, w)) for w in widths]
        obj_diag = np.zeros(n)
        oq = problem.objective.quads
        for t, b, spanning in zip(oq, *locate(oq, lt[:0], lc[:0])):
            if spanning:
                obj_diag += _dense(t.cols, t.d * scale[t.cols] ** 2, n)
            else:
                add(H[grp[b]][row[b]], t)
        aff = problem.objective.affine
        self.q0 = _dense(aff.cols, aff.coef * scale[aff.cols], n)
        self.c0 = float(aff.const)

        self.groups: List[_Group] = []
        for gi, w in enumerate(widths):
            idx = local[local_grp == gi]
            e = ~spans[lt] & (grp[blk[lt]] == gi)
            g = _Group(cols=np.stack([blocks[b] for b in by_width[w]]), H=H[gi], idx=idx,
                       row=row[blk[idx]], Q=Q[gi],
                       lin=_dense(slot[lt[e]] * w + pos[lc[e]], lv[e],
                                  idx.size * w).reshape(-1, w))
            g.H[:, g.diag, g.diag] += obj_diag[g.cols]
            self.groups.append(g)

    def objective(self, y: np.ndarray):
        """Objective value and gradient at y."""
        f = float(self.q0 @ y) + self.c0
        grad = self.q0.copy()
        for g in self.groups:
            yb = y[g.cols]
            Hy = np.matmul(g.H, yb[..., None])[..., 0]
            f += float(np.sum(yb * Hy))
            grad[g.cols] += 2.0 * Hy
        return f, grad

    def constraints(self, y: np.ndarray):
        """Constraint values at y and the Jacobian: one (m, w) array of
        block-local gradients per group, then the spanning rows' gradients."""
        c = self.const.copy()
        jac = []
        for g in self.groups:
            yl = y[g.cols][g.row]
            Qy = np.matmul(g.Q, yl[..., None])[..., 0]
            c[g.idx] += np.sum(yl * (Qy + g.lin), axis=1)
            jac.append(2.0 * Qy + g.lin)
        c[self.span_idx] += self.span_D @ (y * y) + self.span_A @ y
        jac.append(2.0 * self.span_D * y + self.span_A)
        return c, jac

    def jac_t(self, jac, v: np.ndarray) -> np.ndarray:
        """J' v."""
        out = v[self.span_idx] @ jac[-1]
        for g, G in zip(self.groups, jac):
            out[g.cols] += g.block_sum(v[g.idx, None] * G)
        return out

    def jac_dot(self, jac, dy: np.ndarray) -> np.ndarray:
        """J dy."""
        out = np.empty(self.m)
        for g, G in zip(self.groups, jac):
            out[g.idx] = np.sum(G * dy[g.cols][g.row], axis=1)
        out[self.span_idx] = jac[-1] @ dy
        return out

    def hessian(self, lam: np.ndarray):
        """Per group, the blocks of the Lagrangian's quadratic part at lam."""
        diag = lam[self.span_idx] @ self.span_D
        out = []
        for g in self.groups:
            Hb = g.H + g.block_sum(lam[g.idx, None, None] * g.Q)
            Hb[:, g.diag, g.diag] += diag[g.cols]
            out.append(Hb)
        return out


def eval_objective(problem: ConvexSubproblem, z: np.ndarray) -> float:
    comp = _Compiled(problem)
    return comp.objective(np.asarray(z, dtype=np.float64) / comp.scale)[0]


def eval_constraints(problem: ConvexSubproblem, z: np.ndarray) -> np.ndarray:
    """Values of every canonical constraint c_i(z) (feasible means <= 0)."""
    comp = _Compiled(problem)
    return comp.constraints(np.asarray(z, dtype=np.float64) / comp.scale)[0]


# ---------------------------------------------------------------------------
# the interior-point method


_FTB_MIN = 0.99
_CENTER_FLOOR = 1e-2
_REG_BASE = 1e-11
_WARM_GAP = 1e-2    # least slack (relative) and multiplier of a warm start


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    mask = dv < 0.0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(-v[mask] / dv[mask])))


class _BlockKKT:
    """Factorization of blockdiag(M_b) + U U' for one IPM iteration.

    Same-width blocks arrive stacked and are factorized with batched kernels;
    solves use the Woodbury identity for the low-rank coupling plus iterative
    refinement, which recovers the accuracy lost when the complementarity
    scaling becomes extreme near the solution.
    """

    def __init__(self, cols: List[np.ndarray], Mg: List[np.ndarray],
                 U: Optional[np.ndarray]):
        self.cols = cols  # per group: (nb, w) columns
        self.Mg = Mg      # per group: stacked (nb, w, w)
        self.Minv = []
        for M in Mg:
            w = M.shape[-1]
            tr = np.einsum("bii->b", M)
            reg = _REG_BASE * (1.0 + tr / max(1, w))
            eye = np.eye(w)
            for _ in range(4):
                try:
                    L = np.linalg.cholesky(M + reg[:, None, None] * eye)
                    break
                except np.linalg.LinAlgError:
                    reg = reg * 1e3
            else:
                raise SolverError("Newton system could not be factorized")
            Li = np.linalg.inv(L)
            self.Minv.append(np.matmul(Li.swapaxes(-1, -2), Li))
        self.U = U  # (n, G) already scaled by sqrt(weight); may be None
        if U is not None and U.shape[1]:
            W = self._block_solve(U)
            self.cap = np.eye(U.shape[1]) + U.T @ W
            self.W = W
        else:
            self.U = None

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
        if self.U is not None:
            out += self.U @ (self.U.T @ x)
        return out

    def _solve_once(self, r: np.ndarray) -> np.ndarray:
        y = self._block_solve(r.reshape(-1, 1))[:, 0]
        if self.U is None:
            return y
        corr = np.linalg.solve(self.cap, self.U.T @ y)
        return y - self.W @ corr

    def solve(self, r: np.ndarray) -> np.ndarray:
        x = self._solve_once(r)
        scale = float(np.max(np.abs(r))) + 1e-300
        for _ in range(2):
            resid = r - self._apply(x)
            if float(np.max(np.abs(resid))) <= 1e-13 * scale:
                break
            x = x + self._solve_once(resid)
        return x


def _finite(arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def solve(problem: ConvexSubproblem, tol: float = 1e-8, max_iter: int = 100,
          start: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> SolverResult:
    """Solve the subproblem to the given scaled KKT tolerance.

    The returned kkt_residual and duality_gap are the scaled dual
    infeasibility and complementarity gap at the final iterate; an "optimal"
    status means both, and the scaled constraint violation, are below tol.

    ``start`` = (primal, multipliers), of lengths n_vars and the canonical
    constraint count (as in a SolverResult), warm-starts the IPM at that
    primal point, with slacks max(-c(z), δ * feas_scale) and multipliers
    max(multipliers, δ), δ = _WARM_GAP; the primal point need not be
    feasible.  Other lengths raise ValueError.  Without a start the IPM
    begins at z = 0, with slacks max(1, -c(0)) and unit multipliers.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    comp = _Compiled(problem)
    n, m = comp.n, comp.m
    cols = [g.cols for g in comp.groups]
    z = np.zeros(n)
    if start is not None:
        primal, lam0 = (np.asarray(a, dtype=np.float64).reshape(-1) for a in start)
        if primal.size != n or lam0.size != m:
            raise ValueError(f"start has lengths ({primal.size}, {lam0.size}), "
                             f"expected ({n}, {m})")
        z = primal / comp.scale

    if m == 0:
        # unconstrained convex QP: one Newton solve
        z = _BlockKKT(cols, [2.0 * g.H for g in comp.groups], None).solve(-comp.q0)
        return SolverResult(primal=z * comp.scale, objective_value=comp.objective(z)[0],
                            status="optimal", kkt_residual=0.0, duality_gap=0.0,
                            iterations=1, multipliers=np.zeros(0))

    cvals, jac = comp.constraints(z)
    if start is None:
        s = np.maximum(1.0, -cvals)
        lam = np.ones(m)
    else:
        s = np.maximum(-cvals, _WARM_GAP * comp.feas_scale)
        lam = np.maximum(lam0, _WARM_GAP)
    mu0 = float(s @ lam) / m

    status = "max_iter"
    it = 0
    kkt_rel = np.inf
    gap_rel = np.inf
    best = None      # (score, z, lam, kkt_rel, gap_rel)
    stalled = 0
    no_progress = 0

    for it in range(1, max_iter + 1):
        # cvals and jac are always at the current z: evaluated once per iterate
        fval, gradf = comp.objective(z)
        r_d = gradf + comp.jac_t(jac, lam)
        r_p = cvals + s
        mu = float(s @ lam) / m

        pinf = float(np.max(cvals, initial=0.0))
        kkt_rel = float(np.max(np.abs(r_d))) / (1.0 + float(np.max(np.abs(gradf))))
        gap_rel = mu / (1.0 + abs(fval))
        score = max(pinf / comp.feas_scale, kkt_rel, gap_rel)
        if best is None or score < 0.98 * best[0]:
            best = (score, z.copy(), lam.copy(), kkt_rel, gap_rel)
            no_progress = 0
        else:
            no_progress += 1
        # degenerate multipliers can floor the stationarity residual well above
        # the gap/feasibility level; weak duality keeps the certificate sound,
        # so optimality asks a factor-100 looser dual residual
        if (pinf <= tol * comp.feas_scale and kkt_rel <= 100.0 * tol and gap_rel <= tol):
            status = "optimal"
            break
        if stalled >= 2 or (no_progress >= 8 and best[0] <= 1e-4):
            break  # endgame thrash: settle for the best near-optimal iterate

        # Newton matrix: Lagrangian Hessian plus d_i g_i g_i' per constraint;
        # the spanning rows' rank-one terms are the Woodbury columns
        sinv = 1.0 / np.maximum(s, 1e-30)
        d = np.minimum(lam, 1e14 * s) * sinv
        Ms = [2.0 * Hb + g.block_sum(d[g.idx, None, None] * (G[:, :, None] * G[:, None, :]))
              for g, Hb, G in zip(comp.groups, comp.hessian(lam), jac)]
        kkt = _BlockKKT(cols, Ms, (jac[-1] * np.sqrt(d[comp.span_idx])[:, None]).T)

        def solve_direction(r_c):
            w = (-r_c + lam * r_p) * sinv
            dz = kkt.solve(-r_d - comp.jac_t(jac, w))
            ds = -r_p - comp.jac_dot(jac, dz)
            dlam = (-r_c - lam * ds) * sinv
            return dz, ds, dlam

        # Mehrotra predictor-corrector
        with np.errstate(over="ignore", invalid="ignore"):
            dz_a, ds_a, dlam_a = solve_direction(s * lam)
            alpha_p = _max_step(s, ds_a)
            alpha_d = _max_step(lam, dlam_a)
            mu_aff = float((s + alpha_p * ds_a) @ (lam + alpha_d * dlam_a)) / m
            # keep complementarity from outrunning the primal residual: once the
            # multipliers vanish ahead of feasibility, nothing in the Newton
            # system pulls the iterate back (Kojima-Megiddo-Mizuno neighbourhood)
            mu_floor = _CENTER_FLOOR * mu0 * float(np.max(np.abs(r_p))) / comp.feas_scale
            sigma = (min(0.999, max((mu_aff / mu) ** 3, 1e-10, mu_floor / mu))
                     if mu > 0 else 0.1)

            r_c = s * lam - sigma * mu + ds_a * dlam_a
            step = solve_direction(r_c)

        ftb = min(0.9999, max(_FTB_MIN, 1.0 - mu))

        def step_lengths(d):
            return min(1.0, ftb * _max_step(s, d[1])), min(1.0, ftb * _max_step(lam, d[2]))

        finite = _finite(step)
        alpha_p, alpha_d = step_lengths(step) if finite else (0.0, 0.0)
        if not finite or min(alpha_p, alpha_d) < 1e-8:
            # corrector unusable or blocked: fall back to a plain centering step
            # if it is finite and the corrector was not, or if it steps further
            with np.errstate(over="ignore", invalid="ignore"):
                center = solve_direction(s * lam - 0.5 * mu)
            if _finite(center):
                ap2, ad2 = step_lengths(center)
                if not finite or min(ap2, ad2) > min(alpha_p, alpha_d):
                    step, finite, alpha_p, alpha_d = center, True, ap2, ad2
            if not finite:
                break
        dz, ds, dlam = step
        stalled = stalled + 1 if max(alpha_p, alpha_d) < 1e-10 else 0
        z = z + alpha_p * dz
        s = np.maximum(s + alpha_p * ds, 1e-30)
        lam = np.maximum(lam + alpha_d * dlam, 1e-30)
        cvals, jac = comp.constraints(z)

    if status != "optimal" and best is not None:
        _, z, lam, kkt_rel, gap_rel = best
        cvals, _ = comp.constraints(z)
    violations = [(i, comp.kinds[i], float(cvals[i]))
                  for i in range(m) if cvals[i] > tol * comp.feas_scale]
    if status != "optimal" and violations and float(np.max(lam)) > 1e8:
        status = "infeasible"

    return SolverResult(
        primal=z * comp.scale,
        objective_value=comp.objective(z)[0],
        status=status,
        kkt_residual=float(kkt_rel),
        duality_gap=float(gap_rel),
        iterations=it,
        multipliers=lam.copy(),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# certification


def certify(problem: ConvexSubproblem, result: SolverResult, tol: float) -> bool:
    """Re-derive feasibility and the duality gap from scratch.

    Evaluates every constraint at the primal point and computes the Lagrangian
    dual value at the returned multipliers by direct minimization; true iff
    the point is feasible, the multipliers are sign-correct, and the gap is
    within tol (scaled by 1 + |objective|).
    """
    if result.status != "optimal":
        return False
    comp = _Compiled(problem)
    lam = result.multipliers
    if lam is None or lam.size != comp.m:
        return False
    if np.any(lam < -tol):
        return False

    y = np.asarray(result.primal, dtype=np.float64) / comp.scale
    cvals, _ = comp.constraints(y)
    if cvals.size and float(np.max(cvals)) > tol * comp.feas_scale:
        return False

    # Lagrangian y'Hy + lin'y + const; its affine part is read off at y = 0
    n = comp.n
    f0, lin = comp.objective(np.zeros(n))
    c0, jac0 = comp.constraints(np.zeros(n))
    lin = lin + comp.jac_t(jac0, lam)
    const = f0 + float(lam @ c0)
    H = np.zeros((n, n))
    for g, Hb in zip(comp.groups, comp.hessian(lam)):
        H[g.cols[:, :, None], g.cols[:, None, :]] = Hb

    zbar, *_ = np.linalg.lstsq(2.0 * H, -lin, rcond=None)
    resid = float(np.max(np.abs(2.0 * H @ zbar + lin)))
    if resid > 1e-6 * (1.0 + float(np.max(np.abs(lin)))):
        return False  # dual unbounded below in a null direction
    dual_val = float(zbar @ H @ zbar + lin @ zbar + const)
    fval = comp.objective(y)[0]
    gap = fval - dual_val
    return gap <= tol * (1.0 + abs(fval))


# ---------------------------------------------------------------------------
# JSON debug format


def _term_doc(t: QuadLike) -> dict:
    if isinstance(t, QuadTerm):
        return {"type": "dense", "cols": t.cols.tolist(), "Q": t.Q.tolist()}
    return {"type": "diag", "cols": t.cols.tolist(), "d": t.d.tolist()}


def _term_from_doc(doc: dict) -> QuadLike:
    if doc["type"] == "dense":
        return QuadTerm(np.array(doc["cols"]), np.array(doc["Q"]))
    return DiagTerm(np.array(doc["cols"]), np.array(doc["d"]))


def _aff_doc(a: Affine) -> dict:
    return {"cols": a.cols.tolist(), "coef": a.coef.tolist(), "const": a.const}


def _aff_from_doc(doc: dict) -> Affine:
    return Affine(np.array(doc["cols"], dtype=np.int64), np.array(doc["coef"]), doc["const"])


def problem_to_json(problem: ConvexSubproblem) -> str:
    """Serialize a subproblem so failing instances can be replayed elsewhere."""
    doc = {
        "n_vars": problem.n_vars,
        "objective": {
            "quads": [_term_doc(t) for t in problem.objective.quads],
            "affine": _aff_doc(problem.objective.affine),
        },
        "q_constraints": [{"quad": _term_doc(c.quad), "bound": _aff_doc(c.bound)}
                          for c in problem.q_constraints],
        "a_constraints": [{"aff": _aff_doc(c.aff), "lower": c.lower}
                          for c in problem.a_constraints],
        "sign_constraints": problem.sign_constraints.tolist(),
        "blocks": [b.tolist() for b in problem.blocks] if problem.blocks is not None else None,
        "var_scale": problem.var_scale.tolist() if problem.var_scale is not None else None,
    }
    return json.dumps(doc)


def problem_from_json(text: str) -> ConvexSubproblem:
    doc = json.loads(text)
    return ConvexSubproblem(
        n_vars=doc["n_vars"],
        objective=Objective(
            tuple(_term_from_doc(t) for t in doc["objective"]["quads"]),
            _aff_from_doc(doc["objective"]["affine"]),
        ),
        q_constraints=[QConstraint(_term_from_doc(c["quad"]), _aff_from_doc(c["bound"]))
                       for c in doc["q_constraints"]],
        a_constraints=[AConstraint(_aff_from_doc(c["aff"]), c["lower"])
                       for c in doc["a_constraints"]],
        sign_constraints=np.array(doc["sign_constraints"], dtype=np.int64),
        blocks=[np.array(b, dtype=np.int64) for b in doc["blocks"]]
        if doc["blocks"] is not None else None,
        var_scale=np.array(doc["var_scale"]) if doc["var_scale"] is not None else None,
    )
