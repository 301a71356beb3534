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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Union

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
        owner = np.full(n, -1, dtype=np.int64)
        pos = np.full(n, -1, dtype=np.int64)
        for b, cols in enumerate(blocks):
            if np.any(owner[cols] >= 0):
                raise ValueError("blocks must be disjoint")
            owner[cols] = b
            pos[cols] = np.arange(cols.size)
        if np.any(owner < 0):
            raise ValueError("blocks must cover every variable")
        scale = self.scale = (problem.var_scale if problem.var_scale is not None
                              else np.ones(n))
        by_width: dict = {}
        for b, cols in enumerate(blocks):
            by_width.setdefault(cols.size, []).append(b)
        widths = sorted(by_width)
        slot = {b: (gi, r) for gi, w in enumerate(widths) for r, b in enumerate(by_width[w])}

        def place(quad, lcols, lcoef):
            """((group, row), dense quadratic, linear part) on the block holding
            the whole support, else (None, diagonal, linear part) over all of y."""
            qcols = quad.cols if quad is not None else lcols[:0]
            owners = owner[np.concatenate([qcols, lcols])]
            if np.any(owners != owners[:1]):
                if isinstance(quad, QuadTerm):
                    raise ValueError("a dense quadratic term may not span multiple blocks")
                d = (_dense(qcols, quad.d * scale[qcols] ** 2, n)
                     if quad is not None else np.zeros(n))
                return None, d, _dense(lcols, lcoef * scale[lcols], n)
            b = int(owners[0]) if owners.size else 0
            w = blocks[b].size
            Q = np.zeros((w, w))
            p, sc = pos[qcols], scale[qcols]
            if isinstance(quad, QuadTerm):
                Q[p[:, None], p] = quad.Q * np.outer(sc, sc)
            elif quad is not None:
                Q[np.diag_indices(w)] = _dense(p, quad.d * sc ** 2, w)
            return slot[b], Q, _dense(pos[lcols], lcoef * scale[lcols], w)

        sign = problem.sign_constraints
        canon = ([(c.quad, c.bound.cols, -c.bound.coef, -c.bound.const, f"q[{i}]")
                  for i, c in enumerate(problem.q_constraints)]
                 + [(None, c.aff.cols, -c.aff.coef, c.lower - c.aff.const, f"a[{j}]")
                    for j, c in enumerate(problem.a_constraints)]
                 + [(None, sign[t:t + 1], np.ones(1), 0.0, f"sign[{t}]")
                    for t in range(sign.size)])
        self.kinds = [c[4] for c in canon]
        self.m = len(canon)
        self.const = np.array([c[3] for c in canon], dtype=np.float64)
        self.feas_scale = 1.0 + float(np.max(np.abs(self.const), initial=0.0))

        local: List[list] = [[] for _ in widths]
        span = []
        for i, (quad, lcols, lcoef, *_) in enumerate(canon):
            at, Q, lin = place(quad, lcols, lcoef)
            if at is None:
                span.append((i, Q, lin))
            else:
                local[at[0]].append((at[1], i, Q, lin))

        H = [np.zeros((len(by_width[w]), w, w)) for w in widths]
        obj_diag = np.zeros(n)
        empty = np.zeros(0, dtype=np.int64)
        for t in problem.objective.quads:
            at, Q, _ = place(t, empty, np.zeros(0))
            if at is None:
                obj_diag += Q
            else:
                H[at[0]][at[1]] += Q
        aff = problem.objective.affine
        self.q0 = _dense(aff.cols, aff.coef * scale[aff.cols], n)
        self.c0 = float(aff.const)

        self.groups: List[_Group] = []
        for gi, w in enumerate(widths):
            cols = np.stack([blocks[b] for b in by_width[w]])
            recs = sorted(local[gi], key=lambda r: r[0])
            g = _Group(cols=cols, H=H[gi],
                       idx=np.array([r[1] for r in recs], dtype=np.int64),
                       row=np.array([r[0] for r in recs], dtype=np.int64),
                       Q=np.array([r[2] for r in recs]).reshape(-1, w, w),
                       lin=np.array([r[3] for r in recs]).reshape(-1, w))
            g.H[:, g.diag, g.diag] += obj_diag[cols]
            self.groups.append(g)
        self.span_idx = np.array([r[0] for r in span], dtype=np.int64)
        self.span_D = np.array([r[1] for r in span]).reshape(-1, n)
        self.span_A = np.array([r[2] for r in span]).reshape(-1, n)

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


def solve(problem: ConvexSubproblem, tol: float = 1e-8, max_iter: int = 100) -> SolverResult:
    """Solve the subproblem to the given scaled KKT tolerance.

    The returned kkt_residual and duality_gap are the scaled dual
    infeasibility and complementarity gap at the final iterate; an "optimal"
    status means both, and the scaled constraint violation, are below tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    comp = _Compiled(problem)
    n, m = comp.n, comp.m
    cols = [g.cols for g in comp.groups]
    z = np.zeros(n)

    if m == 0:
        # unconstrained convex QP: one Newton solve
        z = _BlockKKT(cols, [2.0 * g.H for g in comp.groups], None).solve(-comp.q0)
        return SolverResult(primal=z * comp.scale, objective_value=comp.objective(z)[0],
                            status="optimal", kkt_residual=0.0, duality_gap=0.0,
                            iterations=1, multipliers=np.zeros(0))

    cvals, _ = comp.constraints(z)
    s = np.maximum(1.0, -cvals)
    lam = np.ones(m)
    mu0 = float(s @ lam) / m

    status = "max_iter"
    it = 0
    kkt_rel = np.inf
    gap_rel = np.inf
    best = None      # (score, z, lam, kkt_rel, gap_rel)
    stalled = 0
    no_progress = 0

    for it in range(1, max_iter + 1):
        cvals, jac = comp.constraints(z)
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
