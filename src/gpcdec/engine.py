"""Frame decoders for generalized product codes.

The three decoders differ only in what one half-iteration does.  One
driver, ``_run_schedule``, walks the layout's ``window_plans`` for all
three: it calls the decoder's half-iteration on each scheduled codeword
type, counts half-iterations, ends the frame once the decoder reports it
finished (every syndrome zero; for the genie, no error left), and leaves
a window position once a full sweep changed nothing and no budget reset
is still ahead.  The half-iterations:

* ``iterative_bdd``: conventional iterative bounded-distance decoding.
  Every scheduled codeword is BDD-decoded and corrections are applied
  immediately.  Miscorrections propagate freely.  Codewords of one type
  share no bit, so a half-iteration is one batched decode
  (``ComponentCodeSpec.decode_batch``) of the type's nonzero syndromes,
  then one scatter of all accepted flips into the frame and the int64
  syndrome vector.
* ``genie_decode``: idealized iterative BDD.  Each component decode
  succeeds only when the received word is within distance t of the true
  codeword, so miscorrections never happen.  Used as a performance bound.
* ``anchor_decode``: anchor-based decoding.  Successfully decoded
  codewords become anchors; later decodes whose implied bit flips touch a
  reliable anchor are frozen instead of applied, and anchors accumulating
  ``delta`` or more conflicts are backtracked (their flips reversed).
  Its half-iteration runs the per-codeword status machine of
  ``DecoderState``, visit by visit, since a visit can backtrack an anchor
  and change later syndromes of the same type.  Where decode_batch solves
  misses in closed form (no dense decode table, t = 2 or 3), each
  half-iteration first decodes the eligible codewords' syndromes that
  miss the BDD memo in one batch (``ComponentCodeSpec.prefetch``); a
  syndrome changed mid-sweep is decoded when visited, as before.

Per-codeword status values: 0 = anchor, 1 = eligible for decoding,
2 = decoding failed, 3 = frozen.  The only status transitions are
1->0, 1->2, 1->3, 2->1, 3->1 and 0->3.

All decoders are deterministic: codewords are visited in ascending index
order per half-iteration and every tie-break is fixed.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bch import _MISS
from .layout import GpcLayout

__all__ = [
    "ANCHOR",
    "ELIGIBLE",
    "FAILED",
    "FROZEN",
    "DecodeStats",
    "DecoderState",
    "frame_syndromes",
    "iterative_bdd",
    "genie_decode",
    "anchor_decode",
    "anchor_decode_state",
]

ANCHOR, ELIGIBLE, FAILED, FROZEN = 0, 1, 2, 3

_ALLOWED_TRANSITIONS = {
    (ELIGIBLE, ANCHOR),
    (ELIGIBLE, FAILED),
    (ELIGIBLE, FROZEN),
    (FAILED, ELIGIBLE),
    (FROZEN, ELIGIBLE),
    (ANCHOR, FROZEN),
}


@dataclass
class DecodeStats:
    """Per-frame decoding record, JSON-serializable by the sim harness."""

    half_iterations: int = 0
    corrections: int = 0
    frozen_events: int = 0
    backtracks: int = 0
    syndromes_zero: bool = False
    transitions: list = field(default_factory=list)


def frame_syndromes(layout: GpcLayout, frame: np.ndarray) -> list[int]:
    """Single-int syndrome of every codeword (see bch.syndrome_packed),
    computed by scattering the contributions of the set bits."""
    return _syndrome_vector(layout, frame)[: layout.n_cw].tolist()


def _syndrome_vector(layout: GpcLayout, frame: np.ndarray) -> np.ndarray:
    """frame_syndromes as int64, plus a last slot that swallows the -1
    owner of single-owner bits."""
    acc = np.zeros(layout.n_cw + 1, dtype=np.int64)
    _fold_bits(layout, acc, np.flatnonzero(frame))
    return acc


def _fold_bits(layout: GpcLayout, acc: np.ndarray, bits: np.ndarray) -> None:
    """XOR the syndrome contributions of the given bits into both owners'
    slots of ``acc``."""
    if bits.size:
        owners = layout.bit_cw[bits]  # (m, 2), -1 for absent partners
        contribs = layout.code.contrib_packed_np[layout.bit_pos[bits]]
        np.bitwise_xor.at(acc, owners.ravel(), contribs.ravel())


def _check_valid_frame(layout: GpcLayout, frame: np.ndarray) -> None:
    if frame.shape != (layout.n_bits,):
        raise ValueError(f"frame must have {layout.n_bits} bits")
    if layout.has_pinned and frame[layout.pinned].any():
        raise ValueError("true_frame sets pinned (known-zero) bits")
    if any(frame_syndromes(layout, frame)):
        raise ValueError("true_frame is not a valid codeword of the GPC")


class DecoderState:
    """Mutable per-frame state of the anchor decoding machine.

    Owns the working frame copy, incrementally-maintained syndromes, the
    per-codeword status array, symmetric conflict sets L, and the stored
    error locations E of every anchor.  ``visit`` runs the main per-codeword
    routine; ``backtrack`` and ``error_correction`` implement the two
    subroutines it delegates to.
    """

    def __init__(
        self,
        layout: GpcLayout,
        frame: np.ndarray,
        delta: int = 1,
        record_transitions: bool = False,
    ):
        if frame.shape != (layout.n_bits,):
            raise ValueError(f"frame must have {layout.n_bits} bits")
        if delta < 0:
            raise ValueError("delta must be >= 0")
        self.layout = layout
        self.code = layout.code
        self.frame = frame.astype(np.uint8, copy=True)
        self.delta = delta
        self.syn = frame_syndromes(layout, self.frame)
        self.nonzero_count = sum(1 for s in self.syn if s)
        self.status = [ELIGIBLE] * layout.n_cw
        self.conflicts: list[set[int]] = [set() for _ in range(layout.n_cw)]
        self.anchor_pos: list[tuple[int, ...] | None] = [None] * layout.n_cw
        self.stats = DecodeStats()
        self.change_counter = 0
        self._record = record_transitions
        # local views for the hot loop
        self._contrib = layout.code.contrib_packed
        self._partner_cw = layout._as_lists("partner_cw")
        self._partner_pos = layout._as_lists("partner_pos")
        self._bit = layout._as_lists("cw_bits")
        self._cw_pinned = layout.cw_pinned if layout.has_pinned else None
        self._cache = layout.code._bdd_cache

    # --- primitives --------------------------------------------------------

    def _set_status(self, c: int, value: int) -> None:
        old = self.status[c]
        if old == value:
            return
        if self._record:
            self.stats.transitions.append((c, old, value))
        self.status[c] = value
        self.change_counter += 1

    def _update_syndrome(self, c: int, pos: int) -> None:
        """Fold the flip of position ``pos`` into codeword c's syndrome."""
        old = self.syn[c]
        new = old ^ self._contrib[pos]
        self.syn[c] = new
        if (old == 0) != (new == 0):
            self.nonzero_count += 1 if old == 0 else -1

    def all_syndromes_zero(self) -> bool:
        return self.nonzero_count == 0

    def flip_bit(self, bit: int) -> None:
        """Toggle one frame bit and fold it into the incident syndromes,
        bypassing the status machine (post-processing primitive)."""
        self.frame[bit] ^= 1
        for c, pos in zip(self.layout.bit_cw[bit], self.layout.bit_pos[bit]):
            if c >= 0:
                self._update_syndrome(int(c), int(pos))

    def decode_cw(self, c: int, budget: int):
        """BDD on codeword c's current syndrome; None signals failure.

        A proposed flip at a pinned (known-zero) position refutes the
        candidate, exactly like a locator root in the shortened range.
        """
        s = self.syn[c]
        out = self._cache.get((budget, s), _MISS)
        if out is _MISS:
            out = self.code.decode_packed(s, budget)
        if out is not None and self._cw_pinned is not None:
            pin = self._cw_pinned[c]
            if any(pin[p] for p in out):
                return None
        return out

    # --- Alg. 4: error-correction step for bit (c, pos) ---------------------

    def error_correction(self, c: int, pos: int) -> None:
        """Flip the bit at position ``pos`` of codeword ``c`` unless both
        incident codewords are anchors (an anchor's decision is trusted
        against a backtracked one)."""
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

    # --- Alg. 3: backtrack an anchor ----------------------------------------

    def backtrack(self, c: int) -> None:
        """Reverse an anchor's applied flips, dissolve its conflicts, and
        freeze it (backtracked anchors are likely miscorrected)."""
        if self.status[c] != ANCHOR:
            raise RuntimeError(f"backtrack called on non-anchor {c}")
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

    # --- Alg. 2: per-codeword main routine -----------------------------------

    def visit(self, c: int, budget: int | None = None) -> None:
        """Process one scheduled codeword: decode, consistency-check the
        implied flips against anchors, then either freeze, or apply the
        corrections, anchor the codeword, and backtrack marked anchors."""
        if self.status[c] != ELIGIBLE:
            return
        if self.syn[c] == 0:
            # decodes to itself: an anchor with no stored error locations
            self._set_status(c, ANCHOR)
            self.anchor_pos[c] = ()
            return
        if budget is None:
            budget = self.code.t
        out = self.decode_cw(c, budget)
        if out is None:
            self._set_status(c, FAILED)
            return
        marked: list[int] = []
        for pos in out:
            k = self._partner_cw[c][pos]
            if self.status[k] != ANCHOR:
                continue
            if len(self.conflicts[k]) >= self.delta:
                if k not in marked:
                    marked.append(k)  # mark for backtracking
            else:
                if self.status[c] != FROZEN:
                    self._set_status(c, FROZEN)
                    self.stats.frozen_events += 1
                if k not in self.conflicts[c]:
                    self.conflicts[c].add(k)
                    self.conflicts[k].add(c)
                    self.change_counter += 1
        if self.status[c] != ELIGIBLE:
            return  # frozen: flips withheld, marked anchors spared
        for pos in out:
            self.error_correction(c, pos)
        self._set_status(c, ANCHOR)
        self.anchor_pos[c] = out
        for k in marked:
            self.backtrack(k)

    # --- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Assert the state invariants; used by tests after every visit."""
        syn = frame_syndromes(self.layout, self.frame)
        assert syn == self.syn, "stale syndromes"
        assert self.nonzero_count == sum(1 for s in syn if s)
        for c, l in enumerate(self.conflicts):
            for k in l:
                assert c in self.conflicts[k], "conflict symmetry broken"
                pair = {self.status[c], self.status[k]}
                assert pair == {ANCHOR, FROZEN}, (
                    f"conflict between statuses {pair}"
                )
        for c, st in enumerate(self.status):
            if st == ANCHOR:
                assert self.anchor_pos[c] is not None
                assert len(self.anchor_pos[c]) <= self.code.t
            else:
                assert self.anchor_pos[c] is None
        if self._record:
            for _, old, new in self.stats.transitions:
                assert (old, new) in _ALLOWED_TRANSITIONS, (old, new)


# ---------------------------------------------------------------------------
# public decoders


def anchor_decode(
    layout: GpcLayout,
    frame: np.ndarray,
    ell: int,
    delta: int = 1,
    reduced_t_iters: int = 0,
    record_transitions: bool = False,
):
    """Anchor-based iterative decoding of one frame.

    Returns (decoded frame, DecodeStats).  The input frame is not modified.
    """
    state = anchor_decode_state(
        layout, frame, ell, delta, reduced_t_iters, record_transitions
    )
    return state.frame, state.stats


def anchor_decode_state(
    layout: GpcLayout,
    frame: np.ndarray,
    ell: int,
    delta: int = 1,
    reduced_t_iters: int = 0,
    record_transitions: bool = False,
) -> DecoderState:
    """Like anchor_decode but returns the full decoder state, for callers
    that need the anchor bookkeeping afterwards (post-processing)."""
    state = DecoderState(layout, frame, delta, record_transitions)
    status, syn = state.status, state.syn
    prefetch = layout.code.batch_closed_form

    def half_iteration(cws: range, budget: int, reset: bool) -> bool:
        if reset:
            for c in range(layout.n_cw):
                if status[c] == FAILED:
                    state._set_status(c, ELIGIBLE)
        if prefetch:
            lo, hi = cws.start, cws.stop
            layout.code.prefetch(
                [s for s, st in zip(syn[lo:hi], status[lo:hi]) if s and st == ELIGIBLE],
                budget,
            )
        before = state.change_counter
        for c in cws:
            if status[c] == ELIGIBLE:
                state.visit(c, budget)
        return state.change_counter != before

    _run_schedule(
        layout, ell, reduced_t_iters, state.stats, half_iteration,
        state.all_syndromes_zero,
    )
    state.stats.syndromes_zero = state.all_syndromes_zero()
    return state


def iterative_bdd(
    layout: GpcLayout, frame: np.ndarray, ell: int, reduced_t_iters: int = 0
):
    """Conventional iterative BDD of one frame.

    A half-iteration decodes every codeword of its type whose syndrome is
    nonzero in one batch and applies every correction at once.  Codewords
    of one type share no bit, so their syndromes cannot change within the
    half-iteration, and the result equals visiting them one by one in
    index order.  A codeword that failed is decoded again in later
    half-iterations; BDD is a pure function of the syndrome and the
    budget, so it fails again unless either changed.  A correction that
    flips a pinned (known-zero) bit is refused as a failure.
    """
    if frame.shape != (layout.n_bits,):
        raise ValueError(f"frame must have {layout.n_bits} bits")
    code = layout.code
    work = frame.astype(np.uint8, copy=True)
    acc = _syndrome_vector(layout, work)
    syn = acc[: layout.n_cw]
    cw_bits = layout.cw_bits
    cw_pinned = layout.cw_pinned if layout.has_pinned else None
    stats = DecodeStats()

    def half_iteration(cws: range, budget: int, _reset: bool) -> bool:
        seg = syn[cws.start : cws.stop]
        rows = np.flatnonzero(seg)
        if not rows.size:
            return False
        pos, _ = code.decode_batch(seg[rows], budget)
        r, k = np.nonzero(pos >= 0)  # failed rows are all -1
        c = rows[r] + cws.start
        p = pos[r, k]
        if cw_pinned is not None:
            refuted = np.zeros(rows.size, dtype=bool)
            refuted[r[cw_pinned[c, p]]] = True
            keep = ~refuted[r]
            c, p = c[keep], p[keep]
        bits = cw_bits[c, p]
        work[bits] ^= 1
        _fold_bits(layout, acc, bits)
        stats.corrections += bits.size
        return bits.size > 0

    _run_schedule(
        layout, ell, reduced_t_iters, stats, half_iteration, lambda: not syn.any()
    )
    stats.syndromes_zero = not syn.any()
    return work, stats


def genie_decode(
    layout: GpcLayout,
    frame: np.ndarray,
    true_frame: np.ndarray | None,
    ell: int,
    check: bool = True,
):
    """Idealized iterative BDD: corrects a codeword exactly when its current
    error weight is at most t, so no miscorrection ever occurs.

    ``true_frame`` may be None for the all-zero codeword.  Any other
    reference is validated as a GPC codeword unless ``check`` is False.
    A frame without errors runs no half-iteration.
    """
    if frame.shape != (layout.n_bits,):
        raise ValueError(f"frame must have {layout.n_bits} bits")
    t = layout.code.t
    if true_frame is None:
        err = frame.astype(bool, copy=True)
    else:
        if check:
            _check_valid_frame(layout, np.asarray(true_frame, dtype=np.uint8))
        err = (frame ^ true_frame).astype(bool)
    bit_cw = layout.bit_cw
    per_type = layout.per_type
    stats = DecodeStats()
    left = int(np.count_nonzero(err))  # errors left, kept by half_iteration

    def half_iteration(cws: range, _budget: int, _reset: bool) -> bool:
        nonlocal left
        bits = np.nonzero(err)[0]
        lo, hi = cws.start, cws.stop
        owners = bit_cw[bits]  # (m, 2)
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
        _run_schedule(layout, ell, 0, stats, half_iteration, lambda: left == 0)
    stats.syndromes_zero = left == 0
    if true_frame is None:
        return err.astype(np.uint8), stats
    out = np.asarray(true_frame, dtype=np.uint8).copy()
    out[err] ^= 1
    return out, stats


def _run_schedule(
    layout: GpcLayout,
    ell: int,
    reduced_t_iters: int,
    stats: DecodeStats,
    half_iteration: Callable[[range, int, bool], bool],
    finished: Callable[[], bool],
) -> None:
    """Run ``half_iteration(cw_indices, budget, reset_failed)`` over the
    schedule, counting half-iterations in ``stats``.

    The schedule ends once ``finished()`` holds after a half-iteration.  A
    window position ends early once a full sweep reports no change and no
    budget reset is still ahead in its plan: the remaining sweeps would
    repeat that sweep verbatim.
    """
    sweep = layout.sweep_len
    for plan in layout.window_plans(ell, reduced_t_iters):
        last_reset = max(
            (i for i, h in enumerate(plan) if h.reset_failed), default=-1
        )
        stuck = 0
        for i, (cws, budget, reset) in enumerate(plan):
            changed = half_iteration(cws, budget, reset)
            stats.half_iterations += 1
            if finished():
                return
            stuck = 0 if changed else stuck + 1
            if stuck >= sweep and i > last_reset:
                break  # fixpoint within this window position
