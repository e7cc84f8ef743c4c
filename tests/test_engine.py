"""Tests for the frame decoders.

The two scenario tests in TestMiscorrectionAvoidance / TestBacktracking
drive the anchor state machine codeword by codeword and check every
intermediate status, conflict set, and applied flip.  The scenarios are
built on the (15,7) double-error-correcting code, whose BDD miscorrects
the 4-error row pattern {2,5,10,14} onto the weight-6 codeword supported
on {2,4,5,10,12,14} (implied flips at positions 4 and 12).

iterative_bdd and genie_decode are additionally checked against naive
reference implementations that rescan every codeword each half-iteration
and recompute syndromes from scratch, the batched iterative_bdd
against the per-codeword loop it replaced, and genie_decode against the
whole-frame genie it replaced (reference_genie_decode), frames and
DecodeStats both.  anchor_decode_state is
checked against reference_anchor_decode_state, the status machine it
replaced, which routes every flip through the method primitives and
records every status change; DecoderState is also stepped in lockstep
with that reference, one codeword at a time.  The helpers ``step``,
``check_invariants`` and ``state_view`` drive and inspect either state.
"""

import pickle
import time
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import encode, support_syndrome
from schedule_oracle import last_reset, sweep_len, window_plans
import gpcdec.engine
import gpcdec.postprocess
import gpcdec.sim
from gpcdec.bch import _BLOCK, _MISS, ComponentCodeSpec
from gpcdec.layout import CodewordId, GpcLayout, build_product_layout, build_staircase_layout
from gpcdec.engine import (
    ANCHOR,
    ELIGIBLE,
    FAILED,
    FROZEN,
    DecoderState,
    DecodeStats,
    anchor_decode,
    anchor_decode_state,
    frame_syndromes,
    genie_decode,
    iterative_bdd,
)
from gpcdec.postprocess import bitflip_iterate_pp

CODE15 = ComponentCodeSpec(4, 2, 0, 0)  # (15, 7, 5), t = 2
CODE16 = ComponentCodeSpec(4, 2, 1, 0)  # (16, 7, 6), t = 2, even length


@pytest.fixture(scope="module")
def pc15():
    return build_product_layout(CODE15)


@pytest.fixture(scope="module")
def sc16():
    return build_staircase_layout(CODE16, num_blocks=6, window=3)


def grid_frame(layout, errors):
    """Frame with errors at the given (row, col) grid coordinates."""
    n = layout.code.n
    frame = np.zeros(layout.n_bits, dtype=np.uint8)
    for r, c in errors:
        frame[r * n + c] = 1
    return frame


# ---------------------------------------------------------------------------
# naive reference decoders (no incremental syndromes, no retry skipping)


def naive_iterative(layout, frame, ell, reduced_t_iters=0):
    code = layout.code
    work = frame.astype(np.uint8, copy=True)
    pinned = layout.pinned.any()
    for plan in window_plans(layout, ell, reduced_t_iters):
        for cws, budget, _reset in plan:
            for c in cws:
                bits = layout.cw_bits[c]
                positions = [p for p in range(code.n) if work[bits[p]]]
                out = code.decode_packed(support_syndrome(code, positions), budget)
                if out is None:
                    continue
                if pinned and any(layout.cw_pinned[c, p] for p in out):
                    continue
                for p in out:
                    work[bits[p]] ^= 1
    return work


def naive_genie(layout, frame, ell):
    t = layout.code.t
    err = frame.astype(bool, copy=True)
    for plan in window_plans(layout, ell):
        for cws, _budget, _reset in plan:
            for c in cws:
                idx = layout.cw_bits[c]
                w = int(err[idx].sum())
                if 0 < w <= t:
                    err[idx] = False
    return err.astype(np.uint8)


def reference_genie_decode(layout, frame, true_frame, ell):
    """The former genie_decode: every half-iteration rescans the whole
    frame's error array for the bits of its type."""
    t = layout.code.t
    window_plans(layout, ell)  # refuses the schedule as genie_decode does
    gpcdec.engine._set_bits(layout, frame)
    err = frame.astype(bool)
    if true_frame is not None:
        ref = np.asarray(true_frame)
        syn = frame_syndromes(layout, ref)
        if layout.has_pinned and ref[layout.pinned].any():
            raise ValueError("true_frame sets pinned (known-zero) bits")
        if any(syn):
            raise ValueError("true_frame is not a valid codeword of the GPC")
        err ^= ref.astype(bool)
    bit_cw = layout.bit_cw
    per_type = layout.per_type
    stats = DecodeStats()
    left = int(np.count_nonzero(err))

    def half_iteration(cws, _budget, _reset):
        nonlocal left
        bits = np.nonzero(err)[0]
        lo, hi = cws.start, cws.stop
        owners = bit_cw[bits]
        in_type = (owners >= lo) & (owners < hi)
        rows = np.where(in_type[:, 0], owners[:, 0], owners[:, 1])
        sel = in_type.any(axis=1)
        rows = rows[sel]
        tbits = bits[sel]
        cnt = np.bincount(rows - lo, minlength=per_type)
        fix = (cnt[rows - lo] <= t).nonzero()[0]
        err[tbits[fix]] = False
        stats.corrections += int(fix.size)
        left = bits.size - fix.size
        return fix.size > 0

    if left:
        gpcdec.engine._run_schedule(layout, ell, 0, stats, half_iteration, lambda: left == 0)
    stats.syndromes_zero = left == 0
    if true_frame is None:
        return err.astype(np.uint8), stats
    out = ref.astype(np.uint8)
    out[err] ^= 1
    return out, stats


def reference_iterative_bdd(
    layout: GpcLayout, frame: np.ndarray, ell: int, reduced_t_iters: int = 0
):
    """The former iterative_bdd: visits one codeword at a time and
    re-decodes a codeword only after its syndrome (or the budget)
    changed."""
    if frame.shape != (layout.n_bits,):
        raise ValueError(f"frame must have {layout.n_bits} bits")
    code = layout.code
    work = frame.astype(np.uint8, copy=True)
    syn = frame_syndromes(layout, work)
    nonzero_count = sum(1 for s in syn if s)
    per_type = layout.per_type
    num_types = layout.num_types
    # pending[ty] = codewords whose syndrome changed since their last decode
    # attempt.  Failures stay out of the set until a partner flips one of
    # their bits (or a budget reset re-arms everything).
    pending = [
        {c for c in range(ty * per_type, (ty + 1) * per_type) if syn[c]}
        for ty in range(num_types)
    ]
    bit = layout.cw_bits.tolist()
    partner_cw = layout.partner_cw.tolist()
    partner_pos = layout.partner_pos.tolist()
    cw_pinned = layout.cw_pinned if layout.has_pinned else None
    contrib = code.contrib_packed
    decode = code.decode_packed
    stats = DecodeStats()

    def update(c: int, pos: int):
        nonlocal nonzero_count
        old = syn[c]
        new = old ^ contrib[pos]
        syn[c] = new
        if new:
            if old == 0:
                nonzero_count += 1
            pending[c // per_type].add(c)
        elif old:
            nonzero_count -= 1

    sweep = sweep_len(layout)
    done = False
    for plan in window_plans(layout, ell, reduced_t_iters):
        reset_at = last_reset(plan)
        stuck = 0
        for i, (cws, budget, reset) in enumerate(plan):
            if reset:
                for ty in range(num_types):
                    lo = ty * per_type
                    pending[ty] = {
                        c for c in range(lo, lo + per_type) if syn[c]
                    }
            todo = sorted(pending[int(cws[0]) // per_type])
            pending[int(cws[0]) // per_type].clear()
            flips_before = stats.corrections
            for c in todo:
                s = syn[c]
                if s == 0:
                    continue
                out = code.memo(budget)[s]
                if out is _MISS:
                    out = decode(s, budget)
                if out is not None and cw_pinned is not None:
                    if any(cw_pinned[c, p] for p in out):
                        out = None
                if out is None:
                    continue
                for pos in out:
                    work[bit[c][pos]] ^= 1
                    update(c, pos)
                    update(partner_cw[c][pos], partner_pos[c][pos])
                    stats.corrections += 1
            stats.half_iterations += 1
            if nonzero_count == 0:
                done = True
                break
            stuck = stuck + 1 if stats.corrections == flips_before else 0
            if stuck >= sweep and i > reset_at:
                break  # syndrome fixpoint within this window position
        if done:
            break
    stats.syndromes_zero = nonzero_count == 0
    return work, stats


class ReferenceState:
    """The former DecoderState: list-of-lists views of the layout, a set
    per codeword for its conflicts, and every flip through
    error_correction, _update_syndrome and _set_status.

    Every status change is recorded in ``transitions`` as (codeword, old,
    new) and asserted to be an edge of the status graph ``ALLOWED``.
    ``visit_all`` takes DecoderState's arguments, so ``step`` drives
    either state."""

    ALLOWED = frozenset({
        (ELIGIBLE, ANCHOR),
        (ELIGIBLE, FAILED),
        (ELIGIBLE, FROZEN),
        (FAILED, ELIGIBLE),
        (FROZEN, ELIGIBLE),
        (ANCHOR, FROZEN),
    })

    def __init__(self, layout, frame, delta):
        self.layout = layout
        self.code = layout.code
        self.frame = frame.astype(np.uint8, copy=True)
        self.delta = delta
        self.syn = frame_syndromes(layout, self.frame)
        self.nonzero_count = sum(1 for s in self.syn if s)
        self.status = [ELIGIBLE] * layout.n_cw
        self.conflicts = [set() for _ in range(layout.n_cw)]
        self.anchor_pos = [None] * layout.n_cw
        self.stats = DecodeStats()
        self.change_counter = 0
        self.transitions = []
        self._contrib = layout.code.contrib_packed
        self._partner_cw = layout.partner_cw.tolist()
        self._partner_pos = layout.partner_pos.tolist()
        self._bit = layout.cw_bits.tolist()
        self._cw_pinned = layout.cw_pinned if layout.has_pinned else None

    def _set_status(self, c, value):
        old = self.status[c]
        if old == value:
            return
        assert (old, value) in self.ALLOWED, (c, old, value)
        self.transitions.append((c, old, value))
        self.status[c] = value
        self.change_counter += 1

    def _update_syndrome(self, c, pos):
        old = self.syn[c]
        new = old ^ self._contrib[pos]
        self.syn[c] = new
        if (old == 0) != (new == 0):
            self.nonzero_count += 1 if old == 0 else -1

    def decode_cw(self, c, budget):
        s = self.syn[c]
        out = self.code.memo(budget)[s]
        if out is _MISS:
            out = self.code.decode_packed(s, budget)
        if out is not None and self._cw_pinned is not None:
            if any(self._cw_pinned[c][p] for p in out):
                return None
        return out

    def error_correction(self, c, pos):
        k = self._partner_cw[c][pos]
        if self.status[c] == ANCHOR and self.status[k] == ANCHOR:
            return
        self.frame[self._bit[c][pos]] ^= 1
        self._update_syndrome(c, pos)
        self._update_syndrome(k, self._partner_pos[c][pos])
        self.stats.corrections += 1
        self.change_counter += 1
        st = self.status[k]
        if st == FAILED:
            self._set_status(k, ELIGIBLE)
        elif st == FROZEN:
            self._set_status(k, ELIGIBLE)
            for k2 in self.conflicts[k]:
                self.conflicts[k2].discard(k)
            self.conflicts[k].clear()

    def backtrack(self, c):
        for k in sorted(self.conflicts[c]):
            self.conflicts[k].discard(c)
            if not self.conflicts[k]:
                self._set_status(k, ELIGIBLE)
        self.conflicts[c].clear()
        for pos in self.anchor_pos[c]:
            self.error_correction(c, pos)
        self._set_status(c, FROZEN)
        self.anchor_pos[c] = None
        self.stats.backtracks += 1

    def visit(self, c, budget):
        if self.status[c] != ELIGIBLE:
            return
        if self.syn[c] == 0:
            self._set_status(c, ANCHOR)
            self.anchor_pos[c] = ()
            return
        out = self.decode_cw(c, budget)
        if out is None:
            self._set_status(c, FAILED)
            return
        marked = []
        for pos in out:
            k = self._partner_cw[c][pos]
            if self.status[k] != ANCHOR:
                continue
            if len(self.conflicts[k]) >= self.delta:
                if k not in marked:
                    marked.append(k)
            else:
                if self.status[c] != FROZEN:
                    self._set_status(c, FROZEN)
                    self.stats.frozen_events += 1
                if k not in self.conflicts[c]:
                    self.conflicts[c].add(k)
                    self.conflicts[k].add(c)
                    self.change_counter += 1
        if self.status[c] != ELIGIBLE:
            return
        for pos in out:
            self.error_correction(c, pos)
        self._set_status(c, ANCHOR)
        self.anchor_pos[c] = out
        for k in marked:
            self.backtrack(k)

    def visit_all(self, cws, budget):
        for c in cws:
            self.visit(c, budget)


def reference_anchor_decode_state(layout, frame, ell, delta=1, reduced_t_iters=0):
    """The former anchor_decode_state: ReferenceState visited codeword by
    codeword, a half-iteration counting as a change when any status,
    conflict or frame bit changed."""
    state = ReferenceState(layout, frame, delta)
    sweep = sweep_len(layout)
    for plan in window_plans(layout, ell, reduced_t_iters):
        reset_at = last_reset(plan)
        stuck = 0
        for i, (cws, budget, reset) in enumerate(plan):
            if reset:
                for c in range(layout.n_cw):
                    if state.status[c] == FAILED:
                        state._set_status(c, ELIGIBLE)
            before = state.change_counter
            state.visit_all(cws, budget)
            state.stats.half_iterations += 1
            if state.nonzero_count == 0:
                state.stats.syndromes_zero = True
                return state
            stuck = 0 if state.change_counter != before else stuck + 1
            if stuck >= sweep and i > reset_at:
                break
    return state


def step(state, c, budget=None):
    """Visit codeword c alone, if it is eligible, at budget t by default;
    on a DecoderState or a ReferenceState."""
    state.visit_all(range(c, c + 1), state.code.t if budget is None else budget)


def check_invariants(state):
    """Assert the invariants of a DecoderState: its syndromes and
    nonzero_count match its frame; conflict sets are non-empty, symmetric
    and pair an anchor with a frozen codeword; exactly the anchors store
    error locations, at most t of them; a type whose live_types flag is
    clear holds no eligible codeword."""
    per = state.layout.per_type
    for ty, live in enumerate(state.live_types):
        if not live:
            assert ELIGIBLE not in state.status[ty * per : (ty + 1) * per], ty
    syn = frame_syndromes(state.layout, state.frame)
    assert syn == state.syn, "stale syndromes"
    assert state.nonzero_count == sum(1 for s in syn if s)
    for c, l in state.conflicts.items():
        assert l, "empty conflict set kept"
        for k in l:
            assert c in state.conflicts[k], "conflict symmetry broken"
            pair = {state.status[c], state.status[k]}
            assert pair == {ANCHOR, FROZEN}, f"conflict between statuses {pair}"
    for c, st in enumerate(state.status):
        if st == ANCHOR:
            assert state.anchor_pos[c] is not None
            assert len(state.anchor_pos[c]) <= state.code.t
        else:
            assert state.anchor_pos[c] is None


def state_view(state):
    """Everything a visit can change, in one form for a DecoderState and a
    ReferenceState: frame, syndromes, nonzero_count, statuses, anchors,
    non-empty conflict sets and stats."""
    conflicts = state.conflicts
    pairs = conflicts.items() if isinstance(conflicts, dict) else enumerate(conflicts)
    return (
        state.frame.tobytes(), state.syn, state.nonzero_count, state.status,
        state.anchor_pos, {c: set(l) for c, l in pairs if l}, state.stats,
    )


def lockstep(layout, frame, ell, delta, reduced):
    """Step a DecoderState and a ReferenceState through every plan entry
    one codeword at a time, with the budget resets of
    anchor_decode_state.  After every visit the two states must agree on
    everything a visit can change, and the decoder's invariants hold."""
    fast, ref = DecoderState(layout, frame, delta), ReferenceState(layout, frame, delta)
    for plan in window_plans(layout, ell, reduced):
        for cws, budget, reset in plan:
            if reset:
                fast.reset_failed()
                for c in range(layout.n_cw):
                    if ref.status[c] == FAILED:
                        ref._set_status(c, ELIGIBLE)
            for c in cws:
                step(fast, c, budget)
                step(ref, c, budget)
                assert state_view(fast) == state_view(ref)
                check_invariants(fast)
    return fast, ref


def build_wide_layout(kind):
    """Layouts whose syndromes are too wide for a decode table, each on a
    new code, so its memo starts empty: t = 3 at 24 and 25 bits, and the
    t = 4 product, where decode_batch loops over decode_packed."""
    if kind == "product":
        return build_product_layout(ComponentCodeSpec(8, 3, 0, 0))
    if kind == "t4":
        return build_product_layout(ComponentCodeSpec(8, 4, 2, 0))
    return build_staircase_layout(ComponentCodeSpec(8, 3, 0, 1), num_blocks=5, window=3)


wide_layout = cache(build_wide_layout)


chain_layout = cache(
    lambda blocks: build_staircase_layout(ComponentCodeSpec(7, 2, 1, 0), blocks, 6)
)


def gf2_null_space(m):
    """A basis, one row per vector, of the null space of a binary matrix,
    by reduction to row echelon form."""
    m = np.array(m, dtype=np.uint8) & 1
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == m.shape[0]:
            break
        hit = r + np.flatnonzero(m[r:, c])
        if not hit.size:
            continue
        m[[r, hit[0]]] = m[[hit[0], r]]
        others = np.flatnonzero(m[:, c])
        m[others[others != r]] ^= m[r]
        pivots.append(c)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        basis[i, pivots] = m[: len(pivots), f]
    return basis


def nonzero_codeword(layout, rng):
    """A random nonzero codeword of the layout, zero on its pinned bits.

    On a product, the outer product of two component codewords.  On a
    staircase, blocks j and j+1 of outer(x, y) and outer(y, w), where
    [x | w] is a component codeword and both [y | 0] and [0 | y] are:
    each type's rows are then a codeword or zero.  None where no such y
    exists (the (16,7) code's halves are too short)."""
    code = layout.code

    def word():
        while True:
            w = encode(code, rng.integers(0, 2, code.k))
            if w.any():
                return w

    if layout.kind == "product":
        return np.outer(word(), word()).ravel().astype(np.uint8)
    a = code.n // 2
    h = code.parity_check_matrix()
    basis = gf2_null_space(np.concatenate([h[:, :a], h[:, a:]]))
    if not basis.size:
        return None
    y = np.zeros(a, dtype=np.uint8)
    while not y.any():
        y = rng.integers(0, 2, len(basis)) @ basis & 1
    xw = word()
    j = int(rng.integers(1, layout.num_types - 2))  # blocks j, j+1 are real
    frame = np.zeros(layout.n_bits, dtype=np.uint8)
    frame[j * a * a : (j + 1) * a * a] = np.outer(xw[:a], y).ravel()
    frame[(j + 1) * a * a : (j + 2) * a * a] = np.outer(y, xw[a:]).ravel()
    return frame


def noisy_frame(layout, rng, p, pins=False):
    """BSC(p) errors, off the pinned bits unless ``pins``."""
    frame = rng.random(layout.n_bits) < p
    if not pins:
        frame &= ~layout.pinned
    return frame.astype(np.uint8)


class TestFrameSyndromes:
    def test_zero_frame(self, pc15):
        assert frame_syndromes(pc15, np.zeros(pc15.n_bits, np.uint8)) == [0] * pc15.n_cw

    def test_matches_per_codeword_recompute(self, pc15):
        rng = np.random.default_rng(11)
        for _ in range(5):
            frame = (rng.random(pc15.n_bits) < 0.1).astype(np.uint8)
            got = frame_syndromes(pc15, frame)
            for c in range(pc15.n_cw):
                bits = pc15.cw_bits[c]
                pos = [p for p in range(CODE15.n) if frame[bits[p]]]
                assert got[c] == support_syndrome(CODE15, pos)

    def test_staircase_ignores_absent_partners(self, sc16):
        # every bit of the first and last block belongs to one codeword
        # only; its absent partner's contribution lands in no codeword.
        # An odd number of set pinned bits keeps that visible, since an
        # even number of the same absent-partner column would cancel
        rng = np.random.default_rng(12)
        pinned = np.flatnonzero(sc16.pinned)
        assert (sc16.bit_cw[pinned, 1] == -1).all()
        for count in (None, 1, 3):
            frame = (rng.random(sc16.n_bits) < 0.05).astype(np.uint8)
            if count is not None:
                frame[pinned] = 0
                frame[rng.choice(pinned, count, replace=False)] = 1
            got = frame_syndromes(sc16, frame)
            for c in range(sc16.n_cw):
                bits = sc16.cw_bits[c]
                pos = [p for p in range(CODE16.n) if frame[bits[p]]]
                assert got[c] == support_syndrome(CODE16, pos)

    def test_frame_length_checked(self, pc15):
        # a short frame read as zero-padded; a long one raised IndexError
        frame = np.zeros(pc15.n_bits + 5, np.uint8)
        frame[[2, -1]] = 1
        for bad in (frame[:10], frame):
            with pytest.raises(ValueError, match=f"must have {pc15.n_bits} bits"):
                frame_syndromes(pc15, bad)


class TestMiscorrectionAvoidance:
    """A miscorrected codeword is frozen when its implied flips touch a
    conflict-free anchor; the flips are withheld entirely."""

    def test_freeze_against_anchor(self, pc15):
        lay = pc15
        # row 3: the 4-error pattern that miscorrects with flips at cols 4, 12.
        # column 4 additionally gets three errors (rows 0, 1, 4) whose
        # syndrome is BDD-uncorrectable, leaving that codeword failed.
        frame = grid_frame(lay, [(3, c) for c in (2, 5, 10, 14)]
                                + [(r, 4) for r in (0, 1, 4)])
        state = DecoderState(lay, frame, delta=1)
        row = lay.cw_index(CodewordId(1, 4))
        col_failed = lay.cw_index(CodewordId(2, 5))
        col_anchor = lay.cw_index(CodewordId(2, 13))

        step(state, col_anchor)  # error-free: anchors with no stored flips
        assert state.status[col_anchor] == ANCHOR
        assert state.anchor_pos[col_anchor] == ()

        step(state, col_failed)  # three errors, uncorrectable
        assert state.status[col_failed] == FAILED

        step(state, row)
        # flip at col 4 passes (partner failed, not an anchor); flip at
        # col 12 hits the anchor, so the row freezes and applies nothing
        assert state.status[row] == FROZEN
        assert state.conflicts[row] == {col_anchor}
        assert state.conflicts[col_anchor] == {row}
        assert state.conflicts[col_failed] == set()
        assert state.stats.corrections == 0
        assert state.stats.frozen_events == 1
        assert np.array_equal(state.frame, frame)
        check_invariants(state)

    def test_visit_is_noop_on_non_eligible(self, pc15):
        lay = pc15
        frame = grid_frame(lay, [(3, c) for c in (2, 5, 10, 14)]
                                + [(r, 4) for r in (0, 1, 4)])
        state = DecoderState(lay, frame, delta=1)
        row = lay.cw_index(CodewordId(1, 4))
        for c in (lay.cw_index(CodewordId(2, 13)),
                  lay.cw_index(CodewordId(2, 5)), row):
            step(state, c)
        snapshot = (list(state.status), state.stats.corrections)
        step(state, row)  # frozen: must do nothing
        step(state, lay.cw_index(CodewordId(2, 5)))  # failed: must do nothing
        assert (list(state.status), state.stats.corrections) == snapshot


class TestBacktracking:
    """An anchor reaching the conflict threshold is rolled back: its
    conflicts dissolve, its flips are reversed, and it freezes.  Each
    scenario also runs on ReferenceState, which records the transitions,
    and the decoder must match it after every visit."""

    def setup_state(self, lay, delta):
        # row 3 miscorrects into flips at cols 4 and 12 and becomes an
        # anchor; the extra error at (9, 4) gives column 4 two errors
        frame = grid_frame(lay, [(3, c) for c in (2, 5, 10, 14)] + [(9, 4)])
        self.twins = DecoderState(lay, frame, delta=delta), ReferenceState(lay, frame, delta)
        row = lay.cw_index(CodewordId(1, 4))
        state = self.visit(row)
        assert state.status[row] == ANCHOR
        assert state.anchor_pos[row] == (4, 12)
        assert state.stats.corrections == 2
        return state, frame, row

    def visit(self, c):
        """Step both states through codeword c; returns the decoder's."""
        state, ref = self.twins
        step(state, c)
        step(ref, c)
        assert state_view(state) == state_view(ref)
        check_invariants(state)
        return state

    def test_second_conflict_triggers_backtrack(self, pc15):
        lay = pc15
        state, _, row = self.setup_state(lay, delta=1)
        col4 = lay.cw_index(CodewordId(2, 5))
        col5 = lay.cw_index(CodewordId(2, 6))
        col12 = lay.cw_index(CodewordId(2, 13))

        # column 4 now holds errors at rows 3 and 9; its correction would
        # undo the anchor's flip, so it freezes (first conflict)
        self.visit(col4)
        assert state.status[col4] == FROZEN
        assert state.conflicts[row] == {col4}
        assert state.stats.corrections == 2

        # column 5 holds the single original error at row 3; its implied
        # flip conflicts with the same anchor, which hits delta and is
        # backtracked while the flip is applied
        self.visit(col5)
        assert state.status[col5] == ANCHOR
        assert state.anchor_pos[col5] == (3,)
        assert state.status[row] == FROZEN
        assert state.anchor_pos[row] is None
        assert state.status[col4] == ELIGIBLE  # conflict-free again
        assert state.conflicts[row] == set()
        assert state.conflicts[col4] == set()
        assert state.stats.backtracks == 1
        # 2 anchor flips + 1 from column 5 + 2 reversals
        assert state.stats.corrections == 5
        # all miscorrected flips are undone, (3,5) and nothing else fixed
        expected = grid_frame(lay, [(3, 2), (3, 10), (3, 14), (9, 4)])
        assert np.array_equal(state.frame, expected)
        assert self.twins[1].transitions == [
            (row, ELIGIBLE, ANCHOR),
            (col4, ELIGIBLE, FROZEN),
            (col5, ELIGIBLE, ANCHOR),
            (col4, FROZEN, ELIGIBLE),
            (row, ANCHOR, FROZEN),
        ]
        # col 12 was never visited and keeps its channel-free eligibility
        assert state.status[col12] == ELIGIBLE

    def test_backtrack_in_a_sweep_rearms_its_type(self, pc15):
        """A whole-type visit_all clears its type's live_types flag before
        it scans.  A backtrack later in the same scan frees column 2, which
        the scan has passed; that sets the flag again, so the next sweep
        of the columns visits column 2."""
        lay = pc15
        frame = grid_frame(lay, [(3, c) for c in (2, 5, 10, 14)])
        self.twins = DecoderState(lay, frame, delta=1), ReferenceState(lay, frame, 1)
        state, ref = self.twins
        row = lay.cw_index(CodewordId(1, 4))
        col2 = lay.cw_index(CodewordId(2, 3))
        cols = range(lay.per_type, 2 * lay.per_type)
        self.visit(row)  # miscorrects into flips at columns 4 and 12
        assert state.status[row] == ANCHOR
        # column 2 freezes against the anchor; column 4 backtracks it
        assert state.visit_all(cols, 2)
        ref.visit_all(cols, 2)
        assert state.stats.backtracks == 1
        assert state.status[col2] == ELIGIBLE
        assert state.live_types == [True, True]
        assert state.visit_all(cols, 2)
        ref.visit_all(cols, 2)
        assert state.status[col2] != ELIGIBLE
        assert state_view(state) == state_view(ref)
        check_invariants(state)
        # nothing in the columns is eligible now: the next sweep is skipped
        assert not state.live_types[1]
        assert not state.visit_all(cols, 2)

    def test_higher_delta_freezes_instead(self, pc15):
        lay = pc15
        state, frame, row = self.setup_state(lay, delta=2)
        col4 = lay.cw_index(CodewordId(2, 5))
        col5 = lay.cw_index(CodewordId(2, 6))
        self.visit(col4)
        self.visit(col5)
        # one conflict is below delta=2, so the second codeword freezes too
        assert state.status[col5] == FROZEN
        assert state.status[row] == ANCHOR
        assert state.conflicts[row] == {col4, col5}
        assert state.stats.backtracks == 0

    def test_delta_zero_backtracks_eagerly(self, pc15):
        lay = pc15
        state, _, row = self.setup_state(lay, delta=0)
        col4 = lay.cw_index(CodewordId(2, 5))
        self.visit(col4)
        # with delta=0 the anchor is marked immediately, never frozen over:
        # column 4 applies both flips and the anchor is rolled back.  The
        # reversal at position 4 is skipped because both incident codewords
        # are anchors at that moment (the fresh one wins).
        assert state.status[col4] == ANCHOR
        assert state.anchor_pos[col4] == (3, 9)
        assert state.status[row] == FROZEN
        assert state.stats.backtracks == 1
        assert state.stats.corrections == 5
        expected = grid_frame(lay, [(3, c) for c in (2, 5, 10, 14)])
        assert np.array_equal(state.frame, expected)


class TestAgainstNaiveReference:
    def test_product_iterative_and_genie(self, pc15):
        rng = np.random.default_rng(21)
        for trial in range(30):
            p = rng.uniform(0.05, 0.25)
            frame = (rng.random(pc15.n_bits) < p).astype(np.uint8)
            reduced = trial % 3
            fast, _ = iterative_bdd(pc15, frame, 6, reduced_t_iters=reduced)
            assert np.array_equal(fast, naive_iterative(pc15, frame, 6, reduced))
            gfast, _ = genie_decode(pc15, frame, None, 6)
            assert np.array_equal(gfast, naive_genie(pc15, frame, 6))

    def test_staircase_iterative_and_genie(self, sc16):
        rng = np.random.default_rng(22)
        ok = ~sc16.pinned
        for trial in range(12):
            p = rng.uniform(0.02, 0.08)
            frame = ((rng.random(sc16.n_bits) < p) & ok).astype(np.uint8)
            reduced = trial % 2
            fast, _ = iterative_bdd(sc16, frame, 4, reduced_t_iters=reduced)
            assert np.array_equal(fast, naive_iterative(sc16, frame, 4, reduced))
            gfast, _ = genie_decode(sc16, frame, None, 4)
            assert np.array_equal(gfast, naive_genie(sc16, frame, 4))


@pytest.fixture
def replays(monkeypatch):
    """Every replay the schedule driver made, as (sweep length,
    half-iterations run before it, half-iterations it accounted), seen by
    a spy on engine._replay."""
    fired = []
    replay = gpcdec.engine._replay

    def spy(cycle, rest, flip, stats):
        done = stats.half_iterations
        if not replay(cycle, rest, flip, stats):
            return False
        fired.append((len(cycle), done, rest))
        return True

    monkeypatch.setattr(gpcdec.engine, "_replay", spy)
    return fired


class TestBatchedIterative:
    """iterative_bdd against reference_iterative_bdd: equal frames and
    DecodeStats.  The replay tests pick frames noisy enough that
    miscorrections cycle, and require the replay to fire, with every
    length of leftover partial sweep."""

    @staticmethod
    def check(layout, frame, ell, reduced):
        got_frame, got = iterative_bdd(layout, frame, ell, reduced)
        want_frame, want = reference_iterative_bdd(layout, frame, ell, reduced)
        assert np.array_equal(got_frame, want_frame)
        assert got == want

    @pytest.mark.parametrize("reduced", [0, 1, 2])
    def test_product_and_staircase(self, pc15, sc16, reduced):
        rng = np.random.default_rng(50 + reduced)
        for _ in range(15):
            self.check(pc15, noisy_frame(pc15, rng, rng.uniform(0.03, 0.2)), 6, reduced)
            self.check(sc16, noisy_frame(sc16, rng, rng.uniform(0.01, 0.08)), 4, reduced)

    @pytest.mark.parametrize("reduced", [0, 1, 2])
    def test_wide_staircase(self, reduced):
        layout = wide_layout("staircase")
        rng = np.random.default_rng(53 + reduced)
        for _ in range(3):
            self.check(layout, noisy_frame(layout, rng, rng.uniform(0.01, 0.025)), 4, reduced)

    @pytest.mark.parametrize("reduced", [0, 2])
    def test_wide_t4(self, reduced):
        layout = wide_layout("t4")
        rng = np.random.default_rng(56 + reduced)
        for _ in range(3):
            self.check(layout, noisy_frame(layout, rng, rng.uniform(0.015, 0.03)), 4, reduced)

    def test_refuted_and_accepted_rows_in_one_half_iteration(self, sc16):
        # row 2 of block 1 holds 4 errors that BDD of type 1's codeword 2
        # explains by flipping two bits of the pinned block 0; codeword 6
        # holds one error.  Only codeword 6's syndrome may be cleared: the
        # columns then clear row 2's errors, which leaves codeword 2 at 0
        code, a = sc16.code, sc16.code.n // 2
        frame = np.zeros(sc16.n_bits, dtype=np.uint8)
        frame[a * a + 2 * a + np.array([0, 1, 2, 5])] = 1
        frame[a * a + 6 * a + 3] = 1
        syn = frame_syndromes(sc16, frame)
        assert sc16.cw_pinned[2, list(code.decode_packed(syn[2]))].all()
        assert not sc16.cw_pinned[6, list(code.decode_packed(syn[6]))].any()
        self.check(sc16, frame, 4, 0)
        out, stats = iterative_bdd(sc16, frame, 4)
        assert not out.any() and stats.syndromes_zero
        assert (stats.half_iterations, stats.corrections) == (2, 5)

    @pytest.mark.parametrize("args", [(4, 2, 0, 0), (7, 2, 1, 0)])
    def test_reduced_phase_refuses_heavy_rows(self, args):
        # two errors in row 3: budget t - 1 refuses the row, and the
        # columns clear one error each
        layout = build_product_layout(ComponentCodeSpec(*args))
        assert layout.code.has_table
        frame = grid_frame(layout, [(3, 1), (3, 5)])
        for reduced, half_iterations in ((0, 1), (1, 2)):
            self.check(layout, frame, 2, reduced)
            out, stats = iterative_bdd(layout, frame, 2, reduced)
            assert not out.any() and stats.corrections == 2
            assert stats.half_iterations == half_iterations

    def test_replay_product(self, pc15, replays):
        rng = np.random.default_rng(70)
        for _ in range(40):
            self.check(pc15, noisy_frame(pc15, rng, rng.uniform(0.1, 0.25)), 9, 0)
        assert {(sweep, rest % sweep) for sweep, _, rest in replays} == {(2, 0), (2, 1)}

    def test_replay_product_t3(self, replays):
        layout = wide_layout("product")  # (8,3,0,0), as in the pc830 figure
        rng = np.random.default_rng(75)
        for _ in range(6):
            self.check(layout, noisy_frame(layout, rng, 0.02), 10, 0)
        assert {(sweep, rest % sweep) for sweep, _, rest in replays} == {(2, 0), (2, 1)}

    @pytest.mark.parametrize("window", [3, 4, 5])
    def test_replay_staircase(self, window, replays):
        layout = build_staircase_layout(CODE16, window + 3, window)
        rng = np.random.default_rng(80)
        for _ in range(60):
            self.check(layout, noisy_frame(layout, rng, rng.uniform(0.08, 0.2)), 7, 0)
        period = window - 1
        assert {(sweep, rest % sweep) for sweep, _, rest in replays} == {
            (period, part) for part in range(period)
        }

    @pytest.mark.parametrize("reduced", [1, 2])
    def test_replay_after_budget_reset(self, pc15, reduced, replays):
        rng = np.random.default_rng(70 + reduced)
        for _ in range(40):
            self.check(pc15, noisy_frame(pc15, rng, rng.uniform(0.1, 0.25)), 8, reduced)
        assert replays
        # the reset is entry 2 * reduced of the plan; a cycle starts past it
        assert all(done - 1 - 2 * reduced >= sweep for sweep, done, _ in replays)

    def test_replay_in_bitflip_pp(self, pc15, replays, monkeypatch):
        rng = np.random.default_rng(90)
        states = []
        while len(states) < 25:
            state = anchor_decode_state(pc15, noisy_frame(pc15, rng, 0.15), 3)
            if not state.all_syndromes_zero():
                states.append(state)
        got = [bitflip_iterate_pp(state, 9, variant="iterative") for state in states]
        assert replays
        monkeypatch.setattr(gpcdec.postprocess, "iterative_bdd", reference_iterative_bdd)
        for state, res in zip(states, got):
            want = bitflip_iterate_pp(state, 9, variant="iterative")
            assert np.array_equal(res.frame, want.frame)
            assert replace(res, frame=None) == replace(want, frame=None)

    @given(
        kind=st.sampled_from(["pc15", "sc16", "product", "staircase", "t4"]),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 6),
        reduced=st.integers(0, 6),
        pins=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzz(self, kind, p, seed, ell, reduced, pins):
        if kind == "pc15":
            layout, p_max = build_product_layout(CODE15), 0.25
        elif kind == "sc16":
            layout, p_max = build_staircase_layout(CODE16, 6, 3), 0.1
        else:
            layout, p_max = wide_layout(kind), 0.025
        frame = noisy_frame(layout, np.random.default_rng(seed), p * p_max, pins)
        self.check(layout, frame, ell, min(reduced, ell))


class TestGenieAgainstReference:
    """genie_decode against reference_genie_decode, the whole-frame genie
    it replaced: equal frames and DecodeStats, without a reference and
    against a nonzero codeword (the zero frame on sc16, whose chain has no
    other codeword of nonzero_codeword's form)."""

    @staticmethod
    def layout(kind):
        """The layout of ``kind`` and its largest crossover probability."""
        if kind == "pc15":
            return build_product_layout(CODE15), 0.25
        if kind == "sc16":
            return build_staircase_layout(CODE16, 6, 3), 0.1
        return chain_layout(int(kind[2:])), 0.03

    @staticmethod
    def check(layout, frame, truth, ell):
        got_frame, got = genie_decode(layout, frame, truth, ell)
        want_frame, want = reference_genie_decode(layout, frame, truth, ell)
        assert np.array_equal(got_frame, want_frame)
        assert got_frame.dtype == want_frame.dtype
        assert got == want

    @staticmethod
    def reference(layout, rng):
        truth = nonzero_codeword(layout, rng)
        if truth is None:
            return np.zeros(layout.n_bits, dtype=np.uint8)
        assert not any(frame_syndromes(layout, truth))
        return truth

    @pytest.mark.parametrize("kind", ["pc15", "sc16", "sc12", "sc24"])
    def test_layouts(self, kind):
        layout, p_max = self.layout(kind)
        rng = np.random.default_rng(40)
        trials = 12 if kind in ("pc15", "sc16") else 4
        for i in range(trials):
            p = p_max * (i + 1) / trials
            frame = noisy_frame(layout, rng, p)
            self.check(layout, frame, None, 6)
            truth = self.reference(layout, rng)
            self.check(layout, frame ^ truth, truth, 6)

    @given(
        kind=st.sampled_from(["pc15", "sc16", "sc12", "sc24"]),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 6),
        pins=st.booleans(),
        truth=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzz(self, kind, p, seed, ell, pins, truth):
        layout, p_max = self.layout(kind)
        rng = np.random.default_rng(seed)
        frame = noisy_frame(layout, rng, p * p_max, pins)
        ref = self.reference(layout, rng) if truth else None
        self.check(layout, frame if ref is None else frame ^ ref, ref, ell)

    def test_in_bitflip_pp(self, pc15, monkeypatch):
        rng = np.random.default_rng(91)
        states = []
        while len(states) < 25:
            state = anchor_decode_state(pc15, noisy_frame(pc15, rng, 0.15), 3)
            if not state.all_syndromes_zero():
                states.append(state)
        got = [bitflip_iterate_pp(state, 9, variant="genie") for state in states]
        monkeypatch.setattr(gpcdec.postprocess, "genie_decode", reference_genie_decode)
        for state, res in zip(states, got):
            want = bitflip_iterate_pp(state, 9, variant="genie")
            assert np.array_equal(res.frame, want.frame)
            assert replace(res, frame=None) == replace(want, frame=None)


class TestGenieNestedFrames:
    """One frame index draws every bit from the same raw Philox word at
    every p, so its error patterns are nested in p.  A genie correction
    clears a codeword holding at most t errors, which a subset of them
    holds too, and the schedule's early exits only skip half-iterations
    that change nothing: so the residual is nested as well."""

    @given(
        kind=st.sampled_from(["pc15", "sc16"]),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
        p=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2, unique=True),
        ell=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_monotone(self, kind, seed, index, p, ell):
        # up to p = 0.3, where about one frame in ten keeps a residual
        layout, _ = TestGenieAgainstReference.layout(kind)
        p1, p2 = sorted(0.3 * x for x in p)
        low, high = (gpcdec.sim._sample_frame(layout, gpcdec.sim.frame_rng(seed, index), q)
                     for q in (p1, p2))
        assert not (low & ~high).any()  # the errors are nested
        got_low, _ = genie_decode(layout, low, None, ell)
        got_high, _ = genie_decode(layout, high, None, ell)
        assert not (got_low & ~got_high).any()


class TestAnchorPrefetch:
    """Anchor decoding on wide t = 3 codes memoizes each half-iteration's
    eligible syndromes in one batch up front; the outcome must not depend
    on it."""

    @staticmethod
    def run(kind):
        layout = build_wide_layout(kind)
        rng = np.random.default_rng(61)
        states = []
        for reduced in (0, 1, 2):
            frame = noisy_frame(layout, rng, 0.02)
            states.append(anchor_decode_state(layout, frame, 5, 1, reduced))
        return layout.code, states

    @pytest.mark.parametrize("kind", ["product", "staircase"])
    def test_prefetch_is_transparent(self, kind, monkeypatch):
        code, states = self.run(kind)
        memos = {budget: code.memo(budget) for budget in range(code.t + 1)}
        assert sum(map(len, memos.values())) > 1000
        for budget, memo in memos.items():
            for syn, got in memo.items():
                assert got == code._decode_algebraic(syn, budget)
        for state in states:
            check_invariants(state)
        assert any(s.stats.backtracks for s in states)

        def nothing(self, packed, budget=None):
            return np.full((0, self.t), -1), np.zeros(0, dtype=bool)

        monkeypatch.setattr(ComponentCodeSpec, "decode_batch", nothing)
        code, unfetched = self.run(kind)
        for state, plain in zip(states, unfetched):
            assert state_view(state) == state_view(plain)


class TestMemo:
    """The BDD memo as decode_cw reads it, and layouts pickled after use."""

    def test_decode_cw_first_touch_then_hit(self):
        """A slot reads _MISS until the first miss in its block of
        _BLOCK syndromes; that miss fills the whole block with the
        algebraic decodes at its budget and changes no other slot."""
        code = ComponentCodeSpec(7, 2, 1, 0)
        layout = build_product_layout(code)
        state = DecoderState(layout, np.zeros(layout.n_bits, np.uint8))
        size = 1 << code.packed_bits
        assert size > 4 * _BLOCK
        for budget in range(code.t + 1):
            want = [code._decode_algebraic(s, budget) for s in range(size)]
            # blocks touched out of order, first in their middle
            for lo in [3 * _BLOCK, 0, size - _BLOCK, _BLOCK]:
                s = lo + _BLOCK // 2 + 5
                before = list(code.memo(budget)) or [_MISS] * size
                assert before[s] is _MISS
                state.syn[0] = s
                assert state.decode_cw(0, budget) == want[s]
                after = code.memo(budget)
                assert after[lo : lo + _BLOCK] == want[lo : lo + _BLOCK]
                assert after[:lo] == before[:lo]
                assert after[lo + _BLOCK :] == before[lo + _BLOCK :]
                assert state.decode_cw(0, budget) == want[s]
            # the other blocks stay unfilled: no slot reads a decode
            assert code.memo(budget).count(_MISS) == size - 4 * _BLOCK

    def test_budget_below_t_stores_none_for_heavier_supports(self):
        code = ComponentCodeSpec(7, 2, 1, 0)
        for budget, support in [(1, (3, 70)), (1, (5, code.n_core)), (0, (0,))]:
            packed = support_syndrome(code, support)
            assert code.decode_packed(packed, budget) is None
            assert code.memo(budget)[packed] is None
            assert code.decode_packed(packed) == support

    @pytest.mark.parametrize("args", [(7, 2, 1, 0), (8, 3, 0, 0)])
    def test_used_layout_survives_pickle(self, args):
        layout = build_product_layout(ComponentCodeSpec(*args))
        code = layout.code
        rng = np.random.default_rng(sum(args))
        frames = [noisy_frame(layout, rng, 0.02) for _ in range(3)]
        # reduced_t_iters = 1 fills the memo of budget t - 1 as well
        decoded = [anchor_decode(layout, frame, 4, 1, 1) for frame in frames]
        syns = rng.integers(0, 1 << code.packed_bits, 300).tolist()
        code.prefetch(syns, code.t)
        assert all(code.memo(budget) for budget in (code.t - 1, code.t))

        copy = pickle.loads(pickle.dumps(layout))
        assert all(not copy.code.memo(b) for b in range(code.t + 1))
        assert copy.code._table is None
        for budget in range(code.t + 1):
            for s in syns:
                assert copy.code.decode_packed(s, budget) == code.decode_packed(s, budget)
        for frame, (out, stats) in zip(frames, decoded):
            got, got_stats = anchor_decode(copy, frame, 4, 1, 1)
            assert np.array_equal(got, out)
            assert got_stats == stats


class TestAnchorAgainstReference:
    """anchor_decode_state against reference_anchor_decode_state: equal
    frames, syndromes, DecodeStats, statuses, anchors and conflicts.  The
    reference checks each of its transitions against the status graph."""

    @staticmethod
    def check(layout, frame, ell, delta, reduced):
        got = anchor_decode_state(layout, frame, ell, delta, reduced)
        want = reference_anchor_decode_state(layout, frame, ell, delta, reduced)
        assert state_view(got) == state_view(want)
        check_invariants(got)
        return got

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_product_and_staircase(self, pc15, sc16, delta):
        rng = np.random.default_rng(70 + delta)
        backtracks = 0
        for i in range(12):
            got = self.check(pc15, noisy_frame(pc15, rng, rng.uniform(0.03, 0.2)), 6, delta, i % 3)
            backtracks += got.stats.backtracks
            self.check(sc16, noisy_frame(sc16, rng, rng.uniform(0.01, 0.08), i % 2), 4, delta, i % 3)
        assert delta == 2 or backtracks  # sanity: the backtrack path ran

    @given(
        kind=st.sampled_from(["pc15", "sc16", "sc16-long", "product", "staircase"]),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 6),
        delta=st.integers(0, 3),
        reduced=st.integers(0, 6),
        pins=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzz(self, kind, p, seed, ell, delta, reduced, pins):
        """"sc16-long" has more blocks than window + 2, so the middle of
        its chain leaves and re-enters windows: its types go quiet and
        come back."""
        if kind == "pc15":
            layout, p_max = build_product_layout(CODE15), 0.25
        elif kind == "sc16":
            layout, p_max = build_staircase_layout(CODE16, 6, 3), 0.1
        elif kind == "sc16-long":
            layout, p_max = build_staircase_layout(CODE16, 8, 4), 0.1
        else:
            layout, p_max = wide_layout(kind), 0.03
        frame = noisy_frame(layout, np.random.default_rng(seed), p * p_max, pins)
        self.check(layout, frame, ell, delta, min(reduced, ell))


class TestAnchorSyndromeBookkeeping:
    """A visit sets a decoded codeword's syndrome to 0 instead of folding
    its flips into it.  After whole runs on the paper's sizes, the kept
    syndromes and nonzero_count equal those recomputed from the frame,
    on staircase frames with errors on pinned bits too."""

    @staticmethod
    def check(layout, frame, delta, reduced):
        state = anchor_decode_state(layout, frame, 10, delta, reduced)
        syn = frame_syndromes(layout, state.frame)
        assert state.syn == syn
        assert state.nonzero_count == sum(1 for s in syn if s)
        return state.stats

    def test_product_and_staircase(self):
        product = build_product_layout(ComponentCodeSpec(7, 2, 1, 0))
        chain = chain_layout(12)
        rng = np.random.default_rng(26)
        backtracks = stalls = pinned = 0
        for i in range(12):
            delta, reduced = i % 3, i % 2
            stats = self.check(product, noisy_frame(product, rng, rng.uniform(0.017, 0.03)),
                               delta, reduced)
            backtracks += stats.backtracks
            stalls += not stats.syndromes_zero
            frame = noisy_frame(chain, rng, rng.uniform(0.02, 0.026), pins=i % 2)
            pinned += bool(frame[chain.pinned].any())
            stats = self.check(chain, frame, delta, reduced)
            backtracks += stats.backtracks
            stalls += not stats.syndromes_zero
        # sanity: backtracks reversed flips, some frames stalled with
        # nonzero syndromes left, and pinned bits were set
        assert backtracks and stalls and pinned


class TestDecodingBehaviour:
    def test_clean_frame_short_circuits(self, pc15):
        frame = np.zeros(pc15.n_bits, dtype=np.uint8)
        for fn in (lambda: iterative_bdd(pc15, frame, 5),
                   lambda: anchor_decode(pc15, frame, 5),
                   lambda: genie_decode(pc15, frame, None, 5)):
            out, stats = fn()
            assert stats.syndromes_zero
            assert out.sum() == 0
            assert stats.half_iterations <= 1

    def test_single_error_corrected_by_all(self, pc15):
        frame = grid_frame(pc15, [(7, 9)])
        for fn in (iterative_bdd, anchor_decode):
            out, stats = fn(pc15, frame, 5)
            assert stats.syndromes_zero and out.sum() == 0
        out, stats = genie_decode(pc15, frame, None, 5)
        assert stats.syndromes_zero and out.sum() == 0

    def test_uncorrectable_core_stalls_all_decoders(self, pc15):
        # errors on the 3x3 grid {0,1,3} x {0,1,3}: every touched row and
        # column carries the weight-3 syndrome that BDD cannot decode, so
        # no decoder can make any progress
        T = (0, 1, 3)
        frame = grid_frame(pc15, [(r, c) for r in T for c in T])
        out_i, st_i = iterative_bdd(pc15, frame, 8)
        out_a, st_a = anchor_decode(pc15, frame, 8)
        out_g, st_g = genie_decode(pc15, frame, None, 8)
        for out, st in ((out_i, st_i), (out_a, st_a), (out_g, st_g)):
            assert np.array_equal(out, frame)
            assert not st.syndromes_zero
        # the stall is detected well before the iteration budget runs out
        assert st_i.half_iterations < 16
        assert st_a.half_iterations < 16

    def test_stop_rule_half_iteration_counts(self, pc15):
        # exact counts pin the shared stop rule: a clean frame ends after
        # one half-iteration (genie: before any), a stall after one sweep
        # without change, and the reduced phase runs to the budget reset
        # before the stall can end the plan
        clean = np.zeros(pc15.n_bits, dtype=np.uint8)
        T = (0, 1, 3)
        stall = grid_frame(pc15, [(r, c) for r in T for c in T])
        for frame, want in ((clean, (1, 1, 0)), (stall, (2, 4, 2))):
            got = (iterative_bdd(pc15, frame, 8)[1].half_iterations,
                   anchor_decode(pc15, frame, 8)[1].half_iterations,
                   genie_decode(pc15, frame, None, 8)[1].half_iterations)
            assert got == want
        got = (iterative_bdd(pc15, stall, 8, 2)[1].half_iterations,
               anchor_decode(pc15, stall, 8, reduced_t_iters=2)[1].half_iterations)
        assert got == (6, 8)

    def test_transitions_stay_in_allowed_graph(self, pc15):
        """The transitions are recorded on the reference, which anchor
        decoding matches state for state."""
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(25):
            frame = (rng.random(pc15.n_bits) < 0.12).astype(np.uint8)
            ref = reference_anchor_decode_state(pc15, frame, 6, delta=1)
            assert state_view(anchor_decode_state(pc15, frame, 6, delta=1)) == state_view(ref)
            seen.update((old, new) for _, old, new in ref.transitions)
        assert seen == ReferenceState.ALLOWED  # every edge ran, and no other

    def test_invariants_hold_after_every_visit(self, pc15, sc16):
        """DecoderState against ReferenceState in lockstep, on the product
        and on the staircase (with errors on its pinned bits in half the
        frames), for delta 0, 1 and 2 and with and without a reduced
        phase."""
        rng = np.random.default_rng(32)
        backtracks = 0
        for delta in (0, 1, 2):
            for i in range(4):
                fast, _ = lockstep(pc15, noisy_frame(pc15, rng, rng.uniform(0.05, 0.15)),
                                   3, delta, i % 2)
                backtracks += fast.stats.backtracks
                lockstep(sc16, noisy_frame(sc16, rng, rng.uniform(0.02, 0.08), i % 2),
                         3, delta, i % 2)
        assert backtracks  # sanity: the backtrack path ran

    def test_every_decoder_checks_its_schedule(self, pc15):
        """ell and reduced_t_iters are refused by every decoder alike, on
        a clean frame as on a noisy one: below 1 as a ValueError, a
        non-integer as a TypeError.  The genie used to return a clean
        frame under ell 0."""
        decoders = (
            iterative_bdd,
            anchor_decode,
            lambda layout, frame, ell: genie_decode(layout, frame, None, ell),
        )
        for frame in (np.zeros(pc15.n_bits, np.uint8), grid_frame(pc15, [(7, 9)])):
            for decode in decoders:
                with pytest.raises(ValueError, match="ell must be >= 1"):
                    decode(pc15, frame, 0)
                with pytest.raises(TypeError):
                    decode(pc15, frame, 2.5)
                with pytest.raises(TypeError):
                    decode(pc15, frame, 2.0)
            for decode in decoders[:2]:
                with pytest.raises(TypeError):
                    decode(pc15, frame, 3, reduced_t_iters=0.5)
        with pytest.raises(TypeError):
            DecoderState(pc15, np.zeros(pc15.n_bits, np.uint8), delta=1.5)

    @pytest.mark.parametrize("kind", ["pc15", "pc128", "sc16", "sc12"])
    def test_a_frame_costs_its_work_whatever_ell(self, kind):
        """The schedule is computed as it runs, so ell costs nothing by
        itself.  A frame whose decode ends alike at ell 10 and 12 (it
        converged or stalled at every window position) ends alike at
        ell 10^9 too, with equal frame and DecodeStats, in well under a
        second; the frames that replay an iterative cycle at 10^9 are
        accounted arithmetically and take no longer."""
        layout, ps = {
            "pc15": (build_product_layout(CODE15), (0.05, 0.1, 0.18)),
            "pc128": (build_product_layout(ComponentCodeSpec(7, 2, 1, 0)), (0.018, 0.022)),
            "sc16": (build_staircase_layout(CODE16, 6, 3), (0.03, 0.06)),
            "sc12": (chain_layout(12), (0.021, 0.0235)),
        }[kind]
        decoders = (
            lambda frame, ell: iterative_bdd(layout, frame, ell),
            lambda frame, ell: iterative_bdd(layout, frame, ell, 1),
            lambda frame, ell: anchor_decode(layout, frame, ell),
            lambda frame, ell: anchor_decode(layout, frame, ell, reduced_t_iters=1),
            lambda frame, ell: genie_decode(layout, frame, None, ell),
        )
        rng = np.random.default_rng(61)
        same, slowest = 0, 0.0
        for p in ps:
            for _ in range(4):
                frame = noisy_frame(layout, rng, p)
                for decode in decoders:
                    out, stats = decode(frame, 10)
                    start = time.perf_counter()
                    big = decode(frame, 10**9)
                    slowest = max(slowest, time.perf_counter() - start)
                    again = decode(frame, 12)
                    if np.array_equal(again[0], out) and again[1] == stats:
                        assert np.array_equal(big[0], out) and big[1] == stats
                        same += 1
        assert same >= 10
        assert slowest < 0.5

    def test_anchor_not_worse_than_iterative_in_aggregate(self):
        code = ComponentCodeSpec(7, 2, 1, 0)
        lay = build_product_layout(code)
        rng = np.random.default_rng(33)
        res_iter = res_anchor = res_genie = 0
        for _ in range(25):
            frame = (rng.random(lay.n_bits) < 0.02).astype(np.uint8)
            res_iter += int(iterative_bdd(lay, frame, 10)[0].sum())
            res_anchor += int(anchor_decode(lay, frame, 10)[0].sum())
            res_genie += int(genie_decode(lay, frame, None, 10)[0].sum())
        assert res_genie <= res_anchor <= res_iter
        assert res_anchor < res_iter  # the seed exhibits miscorrection losses

    def test_frame_shape_checked(self, pc15):
        bad = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            iterative_bdd(pc15, bad, 3)
        with pytest.raises(ValueError):
            anchor_decode(pc15, bad, 3)
        with pytest.raises(ValueError):
            genie_decode(pc15, bad, None, 3)
        with pytest.raises(ValueError):
            DecoderState(pc15, bad)
        with pytest.raises(ValueError):
            DecoderState(pc15, np.zeros(pc15.n_bits, np.uint8), delta=-1)


class TestNonBinaryFrames:
    """A frame value other than 0 and 1 is refused, not decoded: a 2 used
    to come back as a 3 with syndromes_zero=True (the genie zeroed it).
    One-byte frames are checked on their bytes and scanned through a bool
    view, wider ones as they are; both refuse the same values."""

    @staticmethod
    def bad_frames(layout):
        def with_value(dtype, value):
            frame = grid_frame(layout, [(7, 9)]).astype(dtype)
            frame[3] = value
            return frame

        return (
            with_value(np.uint8, 2),
            with_value(np.uint8, 255),
            with_value(np.int8, -1),  # 255 as a byte
            with_value(np.int16, 256),  # 0 once cast to uint8
            with_value(np.float64, 0.5),  # 0 once cast to uint8
            with_value(np.float64, np.nan),
        )

    @staticmethod
    def good_frames(frame):
        """The same bits as other dtypes and as a strided uint8 view."""
        strided = np.zeros(2 * frame.size, dtype=np.uint8)
        strided[::2] = frame
        view = strided[::2]
        assert not view.flags.contiguous
        return frame.astype(bool), frame.astype(np.int64), frame.astype(np.float64), view

    def test_anchor(self, pc15):
        for frame in self.bad_frames(pc15):
            with pytest.raises(ValueError, match="0 or 1"):
                anchor_decode(pc15, frame, 5)
            with pytest.raises(ValueError, match="0 or 1"):
                DecoderState(pc15, frame)

    def test_iterative(self, pc15):
        for frame in self.bad_frames(pc15):
            with pytest.raises(ValueError, match="0 or 1"):
                iterative_bdd(pc15, frame, 5)

    def test_genie(self, pc15):
        for frame in self.bad_frames(pc15):
            with pytest.raises(ValueError, match="0 or 1"):
                genie_decode(pc15, frame, None, 5)
            with pytest.raises(ValueError, match="0 or 1"):
                genie_decode(pc15, frame, np.zeros(pc15.n_bits, np.uint8), 5)

    def test_genie_reference(self, pc15, monkeypatch):
        """A reference is checked like a frame before any half-iteration:
        0.5 and 256 used to pass the codeword check as 0 and then decode
        as a 1, and a short reference crashed after the whole decode."""

        def no_schedule(*args):
            raise AssertionError("decoded against an unchecked reference")

        monkeypatch.setattr(gpcdec.engine, "_run_schedule", no_schedule)
        frame = grid_frame(pc15, [(7, 9)])
        for dtype, value in ((np.float64, 0.5), (np.int16, 256), (np.uint8, 2)):
            ref = np.zeros(pc15.n_bits, dtype)
            ref[3] = value
            with pytest.raises(ValueError, match="0 or 1"):
                genie_decode(pc15, frame, ref, 5)
        for size in (1, pc15.n_bits - 1, pc15.n_bits + 5):
            with pytest.raises(ValueError, match=f"must have {pc15.n_bits} bits"):
                genie_decode(pc15, frame, np.zeros(size, np.uint8), 5)

    def test_binary_dtypes_accepted(self, pc15):
        frame = grid_frame(pc15, [(7, 9)])
        for f in self.good_frames(frame):
            for fn in (anchor_decode, iterative_bdd):
                out, stats = fn(pc15, f, 5)
                assert stats.syndromes_zero and out.sum() == 0
            out, stats = genie_decode(pc15, f, None, 5)
            assert stats.syndromes_zero and out.sum() == 0

    def test_binary_dtypes_decode_like_uint8(self, pc15):
        # a stall, so the outputs are not all zero
        frame = grid_frame(pc15, [(r, c) for r in (0, 1, 3) for c in (0, 1, 3)])
        zero = np.zeros(pc15.n_bits, np.uint8)
        runs = (
            lambda f: anchor_decode(pc15, f, 5),
            lambda f: iterative_bdd(pc15, f, 5),
            lambda f: genie_decode(pc15, f, None, 5),
            lambda f: genie_decode(pc15, f, zero, 5),
        )
        for run in runs:
            want_out, want_stats = run(frame)
            assert want_out.any()
            for f in self.good_frames(frame):
                out, stats = run(f)
                assert out.dtype == want_out.dtype
                assert np.array_equal(out, want_out)
                assert stats == want_stats
        want = DecoderState(pc15, frame)
        for f in self.good_frames(frame):
            st = DecoderState(pc15, f)
            assert np.array_equal(st.frame, want.frame)
            assert st.syn == want.syn
            assert st.nonzero_count == want.nonzero_count


class TestReducedBudgetSchedule:
    def test_square_pattern_needs_full_budget(self, pc15):
        # 2 errors in each touched row/column: budget t-1 = 1 can never
        # propose a weight-2 flip, so the reduced phase is a fixpoint
        frame = grid_frame(pc15, [(0, 0), (0, 1), (1, 0), (1, 1)])
        out, stats = iterative_bdd(pc15, frame, 4, reduced_t_iters=4)
        assert np.array_equal(out, frame)
        assert not stats.syndromes_zero
        out, stats = anchor_decode(pc15, frame, 4, reduced_t_iters=4)
        assert np.array_equal(out, frame)

    def test_budget_reset_reenables_failed_codewords(self, pc15):
        # regression: the no-progress exit must not fire while a budget
        # reset is still pending in the iteration plan
        frame = grid_frame(pc15, [(0, 0), (0, 1), (1, 0), (1, 1)])
        for fn in (iterative_bdd, anchor_decode):
            out, stats = fn(pc15, frame, 3, reduced_t_iters=1)
            assert stats.syndromes_zero
            assert out.sum() == 0


class TestStaircaseDecoding:
    def test_zero_and_single_error(self, sc16):
        frame = np.zeros(sc16.n_bits, dtype=np.uint8)
        for fn in (lambda f: iterative_bdd(sc16, f, 4),
                   lambda f: anchor_decode(sc16, f, 4),
                   lambda f: genie_decode(sc16, f, None, 4)):
            out, stats = fn(frame)
            assert stats.syndromes_zero and out.sum() == 0
        err = frame.copy()
        err[sc16.cw_bits[sc16.per_type + 2, 3]] = 1  # one bit of a real block
        for fn in (lambda f: iterative_bdd(sc16, f, 4),
                   lambda f: anchor_decode(sc16, f, 4),
                   lambda f: genie_decode(sc16, f, None, 4)):
            out, stats = fn(err)
            assert stats.syndromes_zero and out.sum() == 0

    def test_flip_into_termination_rejected(self, sc16):
        # weight-4 pattern in the real half of a first-type codeword whose
        # unique BDD candidate flips positions 4 and 5 of the virtual
        # (known-zero) block: the decoder must refuse and mark it failed
        cw = 0
        bits = sc16.cw_bits[cw]
        assert sc16.pinned[bits[:8]].all() and not sc16.pinned[bits[8:]].any()
        out = CODE16.decode_packed(support_syndrome(CODE16, [8, 9, 10, 13]), 2)
        assert out == (4, 5)  # sanity: plain BDD would land in the pinned half
        frame = np.zeros(sc16.n_bits, dtype=np.uint8)
        frame[bits[[8, 9, 10, 13]]] = 1
        state = DecoderState(sc16, frame)
        step(state, cw)
        assert state.status[cw] == FAILED
        assert state.stats.corrections == 0
        # the column partners see one error each and clean the frame without
        # ever writing into the termination blocks
        dec, stats = iterative_bdd(sc16, frame, 4)
        assert stats.syndromes_zero and dec.sum() == 0

    def test_termination_blocks_stay_zero(self, sc16):
        rng = np.random.default_rng(41)
        ok = ~sc16.pinned
        for _ in range(8):
            frame = ((rng.random(sc16.n_bits) < 0.04) & ok).astype(np.uint8)
            for fn in (lambda f: iterative_bdd(sc16, f, 4),
                       lambda f: anchor_decode(sc16, f, 4),
                       lambda f: genie_decode(sc16, f, None, 4)):
                out, _ = fn(frame)
                assert out[sc16.pinned].sum() == 0

    def test_genie_validates_reference_frame(self, sc16):
        frame = np.zeros(sc16.n_bits, dtype=np.uint8)
        bad = frame.copy()
        bad[np.nonzero(sc16.pinned)[0][0]] = 1
        with pytest.raises(ValueError):
            genie_decode(sc16, frame, bad, 4)
        bad2 = frame.copy()
        bad2[sc16.cw_bits[sc16.per_type + 1, 9]] = 1  # not a codeword
        with pytest.raises(ValueError):
            genie_decode(sc16, frame, bad2, 4)


class TestCodewordIdWrappers:
    """Alg. 3 and Alg. 4 on codewords addressed by CodewordId."""

    def test_error_correction_step_flips_shared_bit(self, pc15):
        frame = np.zeros(pc15.n_bits, dtype=np.uint8)
        state = DecoderState(pc15, frame)
        row = pc15.cw_index(CodewordId(1, 4))
        assert pc15.partner_cw[row, 13 - 1] == pc15.cw_index(CodewordId(2, 13))
        state.error_correction(row, 13 - 1)
        assert state.frame[3 * 15 + 12] == 1
        assert state.stats.corrections == 1
        check_invariants(state)

    def test_flip_between_two_anchors_is_skipped(self, pc15):
        state = DecoderState(pc15, np.zeros(pc15.n_bits, np.uint8))
        row = pc15.cw_index(CodewordId(1, 1))
        step(state, row)
        step(state, pc15.cw_index(CodewordId(2, 1)))
        assert state.status[row] == ANCHOR
        state.error_correction(row, 0)  # the bit shared with column 1
        assert state.frame.sum() == 0
        assert state.stats.corrections == 0

    def test_backtrack_requires_anchor(self, pc15):
        state = DecoderState(pc15, np.zeros(pc15.n_bits, np.uint8))
        with pytest.raises(RuntimeError):
            state.backtrack(pc15.cw_index(CodewordId(1, 1)))

    def test_backtrack_restores_frame(self, pc15):
        frame = grid_frame(pc15, [(3, c) for c in (2, 5, 10, 14)])
        state = DecoderState(pc15, frame)
        row = pc15.cw_index(CodewordId(1, 4))
        step(state, row)  # miscorrects and anchors
        assert state.stats.corrections == 2
        state.backtrack(row)
        assert np.array_equal(state.frame, frame)
        assert state.status[row] == FROZEN
        assert state.stats.backtracks == 1
        check_invariants(state)
