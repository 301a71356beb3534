"""Hand-written solver problems in the solver's stacked block form.

Tests state a problem over the whole variable vector, as dense arrays, and
``stacked_problem`` cuts it into blocks and groups the way the optimizer emits
its subproblems.  The row helpers write the usual constraint shapes as
canonical rows (kind, Q, lin, const), meaning z'Qz + lin'z + const <= 0.

Every solver problem carries a budget row.  A problem stated without one gets
the vacuous row 0'(z * z) - 1 <= 0: always slack, with a zero gradient, so the
problem keeps its solution, and as the last canonical row it leaves every
other row's number and label as they were.
"""

import numpy as np

from jamcom.solver import BlockGroup, ConvexSubproblem


def quad_bound(n, cols, Q, bound_cols=(), bound_coef=(), bound_const=0.0):
    """The row z[cols]' Q z[cols] <= bound_coef @ z[bound_cols] + bound_const."""
    Qf = np.zeros((n, n))
    Qf[np.ix_(cols, cols)] = Q
    lin = np.zeros(n)
    lin[list(bound_cols)] = -np.asarray(bound_coef, dtype=np.float64)
    return "q", Qf, lin, -bound_const


def lower_bound(n, cols, coef, lower):
    """The row coef @ z[cols] >= lower."""
    lin = np.zeros(n)
    lin[list(cols)] = -np.asarray(coef, dtype=np.float64)
    return "a", None, lin, lower


def sign_row(n, i):
    """The row z[i] <= 0."""
    lin = np.zeros(n)
    lin[i] = 1.0
    return "sign", None, lin, 0.0


def stacked_problem(n, H, rows=(), q0=None, c0=0.0, blocks=None, budget=None,
                    budget_const=0.0, groups=None) -> ConvexSubproblem:
    """The stacked form of

        minimize    z'Hz + q0'z + c0
        subject to  z'Q_i z + lin_i'z + const_i <= 0    (each row)
                    budget'(z * z) + budget_const <= 0

    with H (n, n) and each row (kind, Q (n, n) or None, lin (n,), const).
    Without a ``budget`` the budget row is the vacuous 0'(z * z) - 1 <= 0.
    ``blocks`` (default: one block) partitions the variables; H and every row
    must lie inside one block.  Blocks of equal width and row kinds form a
    group, in order of first appearance, unless ``groups`` lists the block
    numbers of each group, in group order (the blocks of a group must share
    width and row kinds).  Each block keeps its rows in the order given."""
    blocks = [np.arange(n)] if blocks is None else [np.asarray(b) for b in blocks]
    owner = np.empty(n, dtype=np.int64)
    for b, cols in enumerate(blocks):
        owner[cols] = b
    H = np.asarray(H, dtype=np.float64)
    if np.any(H[owner[:, None] != owner[None, :]]):
        raise ValueError("the objective quadratic may not couple blocks")
    per_block = [[] for _ in blocks]
    for kind, Q, lin, const in rows:
        Q = np.zeros((n, n)) if Q is None else np.asarray(Q, dtype=np.float64)
        lin = np.asarray(lin, dtype=np.float64)
        support = np.flatnonzero(np.any(Q != 0, axis=0) | np.any(Q != 0, axis=1) | (lin != 0))
        b = owner[support[0]] if support.size else 0
        if np.any(owner[support] != b):
            raise ValueError("a row may not span blocks")
        per_block[b].append((kind, Q, lin, float(const)))

    keys = [(cols.size, tuple(r[0] for r in rs)) for cols, rs in zip(blocks, per_block)]
    if groups is None:
        members = {}
        for b, key in enumerate(keys):
            members.setdefault(key, []).append(b)
        groups = list(members.values())
    stacked = []
    for group in groups:
        (w, kinds), = {keys[b] for b in group}
        ms = [(blocks[b], per_block[b]) for b in group]
        nb, k = len(ms), len(kinds)
        stacked.append(BlockGroup(
            cols=np.array([cols for cols, _ in ms]),
            quad=np.array([[H[np.ix_(cols, cols)]] + [Q[np.ix_(cols, cols)] for _, Q, _, _ in rs]
                           for cols, rs in ms]),
            lin=np.array([[lin[cols] for _, _, lin, _ in rs] for cols, rs in ms]).reshape(nb, k, w),
            const=np.array([[r[3] for r in rs] for _, rs in ms]).reshape(nb, k),
            kinds=kinds))
    if budget is None:
        budget, budget_const = np.zeros(n), -1.0
    return ConvexSubproblem(
        groups=stacked, q0=np.zeros(n) if q0 is None else q0, budget=budget,
        budget_const=budget_const, c0=c0)
