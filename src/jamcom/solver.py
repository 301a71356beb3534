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
Q = 0, lin = e_x, const = 0); a BlockGroup whose "a" or "sign" row carries a
nonzero Q raises ValueError.  The diagonal budget row is the only row that
spans blocks.  Rows are numbered group by group, block by block, row by row,
with the budget row last; multipliers, warm starts and violations use this
canonical numbering, and a violation names its row by kind and rank among
that kind: "q[i]", "a[j]" or "sign[t]".

The IPM runs on one block stack that the subproblem builds at construction.
Every block is padded to the widest width W, and each padded column gets a
decoupled identity in the objective, so a padded variable stays exactly 0.
The blocks sit contiguous, group by group, in the stack's own variable order.
Each block has the same row slots: its q rows from slot 0, its other rows from
slot kq, where kq is the largest q-row count of a block, so the slot count is
kq plus the largest count of other rows.  Since "a" and "sign" rows have
Q = 0, the stack keeps the quadratics of the objective and the q rows only,
and a map takes each canonical row to its slot.  Every per-iterate product is
then one batched call on the stack: one product with the quadratics evaluates
the objective and every row, J'v and J dv are one product each with the row
gradients G_b (slots, W), the Lagrangian Hessian blocks are H_b + sum_i lam_bi
Q_bi, and the Newton blocks add G_b' diag(d_b) G_b.  The budget row's gradient
is the one rank-one (Sherman-Morrison) correction of the blockwise Newton
solve.  The public side, ``evaluate``, ``labels``, ``split``, ``certify`` and
the JSON format, speaks in the caller's variable order and canonical rows, and
``evaluate`` runs the stack's own code, so it reproduces the IPM's bits.  The
iteration schedule is fixed and free of randomness, so identical inputs
produce bitwise-identical results.

Each group's unpadded leading Newton block M_b is factorized by one Cholesky
factorization of the augmented matrix [[M_b + reg I, I], [I, c I]] with
c = _AUG = 1e30: the lower-left block X of its factor is L^-T for the factor L
of M_b + reg I, so the block inverse is X X'.  The huge c leaves the trailing
block positive definite, so only the leading block can stop the
factorization, and a Newton block that is not positive definite still raises
SolverError.

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
    """nb blocks of width w, each with the same k rows, stacked; all finite,
    and the quadratic of every "a" and "sign" row zero."""

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
        if np.any(self.quad[:, 1:][:, [kind != "q" for kind in self.kinds]]):
            raise ValueError('a row of kind "a" or "sign" must have a zero quadratic')


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
        self._stack = _BlockStack(self)

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
        the canonical row values (feasible means <= 0) and the block stack's
        Jacobian, which ``_jac_t`` and ``_jac_dot`` apply.  The values are the
        stack's own, as the IPM computes them at the same point."""
        st = self._stack
        f, grad, c, jac = st.evaluate(st.embed(y))
        return f, grad[st.pos], c, jac

    def _jac_t(self, jac, v: np.ndarray) -> np.ndarray:
        """J' v, in the caller's variable order."""
        return self._stack.jac_t(jac, v)[self._stack.pos]

    def _jac_dot(self, jac, dy: np.ndarray) -> np.ndarray:
        """J dy, for dy in the caller's variable order."""
        return self._stack.jac_dot(jac, self._stack.embed(dy))

    def _hessian(self, lam: np.ndarray) -> List[np.ndarray]:
        """Per group, the (nb, w, w) blocks of the Lagrangian's quadratic part at lam."""
        H = self._stack.hessian(lam)
        return [H[at, :w, :w] for at, w in self._stack.spans]


class _BlockStack:
    """The padded block stack of a subproblem (see the module docstring).

    Stacked vectors have B * W entries, block b's variables at b * W + j; row
    slot arrays are (B, R).  ``pos`` (n,) is the stacked place of each
    variable, ``slot`` (m - 1,) the flat slot of each canonical row but the
    budget row, and ``spans`` lists each group's (block slice, width).
    """

    def __init__(self, p: ConvexSubproblem):
        widths = [g.cols.shape[1] for g in p.groups]
        n_q = [g.kinds.count("q") for g in p.groups]
        W = max(widths, default=0)
        kq = max(n_q, default=0)
        R = kq + max([len(g.kinds) - k for g, k in zip(p.groups, n_q)], default=0)
        B = sum(g.cols.shape[0] for g in p.groups)
        self.quad = np.zeros((B, 1 + kq, W, W))   # objective, then q-row quadratics
        self.lin = np.zeros((B, R, W))
        self.const = np.zeros((B, R))
        self.pos = np.empty(p.n_vars, dtype=np.int64)
        self.slot = np.empty(p.m - 1, dtype=np.int64)
        self.spans = []
        b0 = 0
        for g, rows, w in zip(p.groups, p._rows, widths):
            nb = g.cols.shape[0]
            at, blocks = slice(b0, b0 + nb), np.arange(b0, b0 + nb)[:, None]
            q_rows = [i for i, kind in enumerate(g.kinds) if kind == "q"]
            others = [i for i, kind in enumerate(g.kinds) if kind != "q"]
            # each row's slot: the q rows from slot 0, the others from slot kq
            sl = np.empty(len(g.kinds), dtype=np.int64)
            sl[q_rows + others] = list(range(len(q_rows))) + list(range(kq, kq + len(others)))
            self.quad[at, :1 + len(q_rows), :w, :w] = g.quad[:, [0] + [1 + i for i in q_rows]]
            pad = np.arange(w, W)
            self.quad[at, 0, pad, pad] = 1.0
            self.lin[at, sl, :w] = g.lin
            self.const[at, sl] = g.const
            self.pos[g.cols] = blocks * W + np.arange(w)
            self.slot[rows] = (blocks * R + sl).ravel()
            self.spans.append((at, w))
            b0 = at.stop
        self.Q = self.quad[:, 1:].reshape(B, kq, W * W)
        self.zero_rest = np.zeros((B, R - kq, W))   # the other rows' Q y
        self.q0, self.budget = self.embed(p.q0), self.embed(p.budget)
        self.c0, self.budget_const, self.m = p.c0, p.budget_const, p.m

    def embed(self, y: np.ndarray) -> np.ndarray:
        """The stacked vector of y (n,), zero in the padded places."""
        out = np.zeros(self.quad.shape[0] * self.quad.shape[-1])
        out[self.pos] = y
        return out

    def slots(self, v: np.ndarray) -> np.ndarray:
        """The (B, R) slot array of a canonical row vector, zero in unused slots."""
        out = np.zeros(self.const.size)
        out[self.slot] = v[:-1]
        return out.reshape(self.const.shape)

    def evaluate(self, y: np.ndarray):
        """(f, grad, c, jac) at the stacked point y, c canonical; jac is the
        (B, R, W) row gradients and the budget row's stacked gradient."""
        B, _, W = self.lin.shape
        Y = y.reshape(B, W)
        Ay = np.matmul(self.quad.reshape(B, self.quad.shape[1] * W, W),
                       Y[..., None]).reshape(self.quad.shape[:3])
        Hy = Ay[:, 0]
        Qy = np.concatenate((Ay[:, 1:], self.zero_rest), axis=1)
        f = float(self.q0 @ y) + self.c0 + float((Y * Hy).sum())
        c = np.empty(self.m)
        c[:-1] = (self.const + (Y[:, None, :] * (Qy + self.lin)).sum(axis=2)).ravel()[self.slot]
        c[-1] = self.budget_const + self.budget @ (y * y)
        return (f, self.q0 + 2.0 * Hy.ravel(), c,
                (2.0 * Qy + self.lin, 2.0 * self.budget * y))

    def jac_t(self, jac, v: np.ndarray) -> np.ndarray:
        """J' v, stacked."""
        G, grad_b = jac
        return v[-1] * grad_b + np.matmul(self.slots(v)[:, None, :], G).ravel()

    def jac_dot(self, jac, dy: np.ndarray) -> np.ndarray:
        """J dy, canonical."""
        G, grad_b = jac
        out = np.empty(self.m)
        out[:-1] = np.matmul(G, dy.reshape(G.shape[0], G.shape[2], 1)).ravel()[self.slot]
        out[-1] = grad_b @ dy
        return out

    def hessian(self, lam: np.ndarray) -> np.ndarray:
        """The (B, W, W) blocks of the Lagrangian's quadratic part at lam."""
        B, _, W = self.lin.shape
        kq = self.Q.shape[1]
        H = np.matmul(self.slots(lam)[:, None, :kq], self.Q).reshape(B, W, W)
        H += self.quad[:, 0]
        diag = np.einsum("bii->bi", H)   # a writable view
        diag += lam[-1] * self.budget.reshape(B, W)
        return H


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
_AUG = 1e30         # trailing diagonal of the augmented Cholesky factorization


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    mask = dv < 0.0
    return float((-v[mask] / dv[mask]).min(initial=1.0))


def _augmented(stack: _BlockStack) -> List[np.ndarray]:
    """Per group, the (nb, 2w, 2w) matrices [[0, I], [I, _AUG I]] whose leading
    block each factorization overwrites with its Newton blocks."""
    out = []
    for at, w in stack.spans:
        A = np.zeros((at.stop - at.start, 2 * w, 2 * w))
        eye = np.arange(w)
        A[:, eye, w + eye] = A[:, w + eye, eye] = 1.0
        A[:, w + eye, w + eye] = _AUG
        out.append(A)
    return out


class _BlockKKT:
    """Factorization of blockdiag(M_b) + u u' for one IPM iteration.

    The Newton blocks M_b arrive as the stack's (B, W, W) array.  Each group's
    unpadded leading blocks are inverted by one batched augmented Cholesky
    factorization (module docstring); a block that is not positive definite,
    for an H outside the PSD contract, raises SolverError.  The inverses sit
    in a zero-padded (B, W, W) array, so a block solve is one product and
    leaves every padded place 0.  Solves use the Sherman-Morrison identity for
    the rank-one coupling plus one step of iterative refinement, which
    recovers the accuracy lost when the complementarity scaling becomes
    extreme near the solution.
    """

    def __init__(self, stack: _BlockStack, aug: List[np.ndarray], M: np.ndarray,
                 u: np.ndarray):
        self.M = M
        self.Minv = np.zeros_like(M)
        for (at, w), A in zip(stack.spans, aug):
            Mb = M[at, :w, :w]
            A[:, :w, :w] = Mb
            diag = np.einsum("bii->bi", A[:, :w, :w])   # a writable view
            diag += (_REG_BASE * (1.0 + np.einsum("bii->b", Mb) / max(1, w)))[:, None]
            try:
                X = np.linalg.cholesky(A)[:, w:, :w]
            except np.linalg.LinAlgError:
                raise SolverError("Newton system could not be factorized") from None
            np.matmul(X, X.swapaxes(-1, -2), out=self.Minv[at, :w, :w])
        self.u = u  # (B * W,) already scaled by sqrt(weight)
        self.w = self._block_solve(u)
        self.cap = 1.0 + float(u @ self.w)

    def _block_solve(self, r: np.ndarray) -> np.ndarray:
        return np.matmul(self.Minv, r.reshape(*self.M.shape[:2], 1)).ravel()

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.M, x.reshape(*self.M.shape[:2], 1)).ravel() + self.u * (self.u @ x)

    def _solve_once(self, r: np.ndarray) -> np.ndarray:
        y = self._block_solve(r)
        return y - self.w * (float(self.u @ y) / self.cap)

    def solve(self, r: np.ndarray) -> np.ndarray:
        # one refinement step: it nearly always meets the 1e-13 residual, so
        # a second residual would only confirm it
        x = self._solve_once(r)
        resid = r - self._apply(x)
        if float(np.abs(resid).max()) > 1e-13 * (float(np.abs(r).max()) + 1e-300):
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
    1/_DELTA); "non_finite" (no finite step); or "max_iter".

    The iterates live on the subproblem's block stack: each is evaluated once,
    by one batched product, and each Newton matrix is built on the stack and
    factorized once, by one augmented Cholesky factorization per group (module
    docstring); a Newton block that is not positive definite raises
    SolverError.  Rows, multipliers and the returned primal are canonical and
    in the caller's variable order.

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
    st = p._stack
    n, m = p.n_vars, p.m
    z = np.zeros(n)
    if start is not None:
        z, lam0 = (np.array(a, dtype=np.float64).reshape(-1) for a in start)
        if z.size != n or lam0.size != m:
            raise ValueError(f"start has lengths ({z.size}, {lam0.size}), "
                             f"expected ({n}, {m})")
    z = st.embed(z)
    aug = _augmented(st)

    # fval, gradf, cvals and jac are always at the current z
    fval, gradf, cvals, jac = st.evaluate(z)
    if start is None:
        s = np.maximum(1.0, -cvals)
        lam = np.ones(m)
    else:
        s = np.maximum(-cvals, _WARM_GAP * p.feas_scale)
        lam = np.maximum(lam0, _WARM_GAP)

    status = "max_iter"
    for it in range(1, max_iter + 1):
        r_d = gradf + st.jac_t(jac, lam)
        r_p = cvals + s
        sl = float(s @ lam)
        mu = sl / m

        violated = float(cvals.max(initial=0.0)) > tol * p.feas_scale
        kkt_rel = float(np.abs(r_d).max()) / (1.0 + float(np.abs(gradf).max()))
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
        if violated and float(lam.max()) > 1.0 / _DELTA:
            status = "infeasible"
            break
        if it == max_iter:
            break

        # Newton matrix: Lagrangian Hessian plus G' diag(d) G per block over
        # its row gradients G, plus the budget row's rank-one term; the dual
        # regularization bounds the row scaling d by 1/_DELTA
        d = lam / (s + _DELTA * lam)
        G = jac[0]
        M = 2.0 * st.hessian(lam) + np.matmul(G.swapaxes(1, 2) * st.slots(d)[:, None, :], G)
        kkt = _BlockKKT(st, aug, M, jac[1] * np.sqrt(d[-1]))

        def solve_direction(r_c):
            v = r_p - r_c / lam
            dz = kkt.solve(-r_d - st.jac_t(jac, d * v))
            dlam = d * (st.jac_dot(jac, dz) + v)
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
        fval, gradf, cvals, jac = st.evaluate(z)

    bad = np.flatnonzero(cvals > tol * p.feas_scale)
    labels = p.labels() if bad.size else []
    return SolverResult(primal=z[st.pos], objective_value=fval, status=status,
                        kkt_residual=kkt_rel, duality_gap=gap_rel, iterations=it,
                        multipliers=lam,
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
