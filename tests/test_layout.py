"""Property tests of the optimizer's variable layout over random shapes and
pilot subsets (unsorted ones included)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jamcom.metrics import PrecoderSet
from jamcom.optimizer import VariableLayout, linearize_jamming


@st.composite
def layouts(draw):
    n_t = draw(st.integers(1, 4))
    N = draw(st.integers(1, 8))
    K = draw(st.integers(1, 3))
    L = draw(st.integers(0, 2))
    pilots = draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N))
    rsma = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return VariableLayout(n_t, N, K, L, np.array(pilots, dtype=np.int64), rsma), seed


def _random_point(layout, seed):
    rng = np.random.default_rng(seed)
    nt, N, K, L = layout.n_t, layout.N, layout.K, layout.L

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    pre = PrecoderSet(p_c=c(N, nt), p=c(K, N, nt), f=c(L, N, nt))
    return pre, -np.abs(rng.standard_normal(N))


def _re(v):
    return np.concatenate([v.real, v.imag])


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_pack_unpack_round_trip(case):
    layout, seed = case
    pre, X = _random_point(layout, seed)
    out, X_out = layout.unpack(layout.pack(pre, X))
    on = np.zeros(layout.N, dtype=bool)
    on[layout.pilot_idx] = True
    assert np.array_equal(out.p, pre.p)
    assert np.array_equal(out.f[:, on], pre.f[:, on])
    assert np.all(out.f[:, ~on] == 0.0)
    if layout.rsma:
        assert np.array_equal(out.p_c, pre.p_c)
        assert np.array_equal(X_out, X)
    else:
        assert np.all(out.p_c == 0.0)
        assert np.array_equal(X_out, np.zeros(layout.N))


def test_pack_rejects_a_split_of_the_wrong_shape():
    layout = VariableLayout(2, 4, 2, 0, np.zeros(0, dtype=np.int64), rsma=True)
    pre = PrecoderSet.zeros(2, 4, 2, 0)
    assert layout.pack(pre, np.zeros(4)).shape == (layout.n_vars,)
    for bad in (np.zeros((2, 4)), np.zeros(8), None):
        with pytest.raises(ValueError):
            layout.pack(pre, bad)


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_blocks_partition_and_order(case):
    layout, seed = case
    pre, X = _random_point(layout, seed)
    z = layout.pack(pre, X)
    assert z.shape == (layout.n_vars,)
    assert len(layout.blocks) == layout.N
    every = np.concatenate(layout.blocks)
    assert np.array_equal(np.sort(every), np.arange(layout.n_vars))

    w = 2 * layout.n_t
    pilots = set(int(n) for n in layout.pilot_idx)
    prec = np.zeros(layout.n_vars, dtype=bool)
    for n, cols in enumerate(layout.blocks):
        streams = int(layout.rsma) + layout.K + (layout.L if n in pilots else 0)
        assert cols.size == streams * w + int(layout.rsma)
        assert np.array_equal(layout.prec_cols_of(n), cols[: streams * w])
        prec[layout.prec_cols_of(n)] = True
        # common, private 1..K, jamming 1..L, then the split
        want = ([_re(pre.p_c[n])] if layout.rsma else []) \
            + [_re(pre.p[k, n]) for k in range(layout.K)] \
            + ([_re(pre.f[l, n]) for l in range(layout.L)] if n in pilots else []) \
            + ([X[n:n + 1]] if layout.rsma else [])
        assert np.array_equal(z[cols], np.concatenate(want))

    P_t = 7.0
    s = layout.var_scale(P_t)
    assert np.all(s[prec] == np.sqrt(P_t))
    assert np.all(s[~prec] == 1.0)


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_global_column_order(case):
    # the precoders stream by stream, each over its subcarriers in order, then
    # the split: common (RSMA), private by (user, subcarrier), jamming by
    # (adversary, pilot subcarrier)
    layout, seed = case
    pre, X = _random_point(layout, seed)
    pilots = sorted(set(int(n) for n in layout.pilot_idx))
    N = range(layout.N)
    want = ([_re(pre.p_c[n]) for n in N] if layout.rsma else []) \
        + [_re(pre.p[k, n]) for k in range(layout.K) for n in N] \
        + [_re(pre.f[l, n]) for l in range(layout.L) for n in pilots] \
        + ([X] if layout.rsma else [])
    assert np.array_equal(layout.pack(pre, X), np.concatenate([np.zeros(0)] + want))
    assert np.array_equal(layout.prec_cols, np.arange(layout.n_vars - layout.x_cols.size))
    assert np.array_equal(layout.x_cols, layout.prec_cols.size + np.arange(layout.x_cols.size))


@settings(max_examples=100, deadline=None)
@given(layouts())
@example(case=(VariableLayout(3, 6, 2, 2, np.array([4, 1], dtype=np.int64), True), 7))
def test_linearize_jamming_matches_per_stream_reference(case):
    layout, seed = case
    pre, _ = _random_point(layout, seed)
    rng = np.random.default_rng(seed + 1)
    pilots = set(int(n) for n in layout.pilot_idx)
    # one call per set of floors sharing their streams: three floors on each
    # subcarrier off the pilots, and two on every pilot subcarrier at once
    calls = [np.full(3, n) for n in range(layout.N) if n not in pilots]
    calls += [np.tile(layout.pilot_idx, 2)] if pilots else []
    for subs in calls:
        A = rng.standard_normal((subs.size, layout.n_t, layout.n_t)) \
            + 1j * rng.standard_normal((subs.size, layout.n_t, layout.n_t))
        R = A @ A.conj().swapaxes(-1, -2)
        cols, coef, const = linearize_jamming(layout, pre, R, subs)
        for i, n in enumerate(subs):
            streams = ([pre.p_c[n]] if layout.rsma else []) + list(pre.p[:, n]) \
                + (list(pre.f[:, n]) if n in pilots else [])
            assert np.array_equal(cols[i], layout.prec_cols_of(n))
            want = np.concatenate([2.0 * _re(R[i] @ q) for q in streams])
            assert np.allclose(coef[i], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            ref = -sum(float(np.real(np.vdot(q, R[i] @ q))) for q in streams)
            assert const[i] == pytest.approx(ref, rel=1e-12, abs=1e-12 * abs(ref))
