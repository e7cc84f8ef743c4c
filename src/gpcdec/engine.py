"""Frame decoders for generalized product codes.

The three decoders differ only in what one half-iteration does.  One
function, ``_run_schedule``, computes the schedule for all three, entry by
entry, from the layout's ``window_ranges``: at each window position, ell
sweeps over the types it decodes.  It calls the decoder's half-iteration
on each scheduled codeword type, counts half-iterations, ends the frame
once the decoder reports it finished (every syndrome zero; for the
genie, no error left), and leaves a window position once a full sweep
changed nothing and no budget reset is still ahead, or, for iterative
BDD, once a sweep's flips cancel: the rest of the position's schedule
would replay that sweep, which it accounts without decoding.  So
a frame costs the half-iterations it runs, whatever ell is.  An anchor
half-iteration depends on statuses as well as the frame, and the genie
cannot cycle, so neither replays.  The half-iterations:

* ``iterative_bdd``: conventional iterative bounded-distance decoding.
  Every scheduled codeword is BDD-decoded and corrections are applied
  immediately.  Miscorrections propagate freely, and often cycle: one
  pass flips back exactly the bits the other pass flipped.  Codewords of
  one type share no bit, so a half-iteration is one batched decode of the
  type's nonzero syndromes (a gather of decode-table rows, or
  ``ComponentCodeSpec.decode_batch``), then one application of all
  accepted flips by (codeword, position).
* ``genie_decode``: idealized iterative BDD.  Each component decode
  succeeds only when the received word is within distance t of the true
  codeword, so miscorrections never happen.  Used as a performance bound.
* ``anchor_decode``: anchor-based decoding.  Successfully decoded
  codewords become anchors; later decodes whose implied bit flips touch a
  reliable anchor are frozen instead of applied, and anchors accumulating
  ``delta`` or more conflicts are backtracked (their flips reversed).
  Its half-iteration is one call of ``DecoderState.visit_all``, the
  per-codeword status machine, visit by visit, since a visit can
  backtrack an anchor and change later syndromes of the same type.  A
  visit's BDD reads the code's memo (``ComponentCodeSpec.memo``), which
  ``decode_packed`` fills on a miss, or in one batch per half-iteration
  on wide t = 2 and t = 3 codes (``ComponentCodeSpec.prefetch``).  A
  successful decode returns the support whose parity-check columns XOR
  to the codeword's syndrome, so a visit that applies it sets that
  syndrome to 0 and folds each flip only into the partner's.

Per-codeword status values: 0 = anchor, 1 = eligible for decoding,
2 = decoding failed, 3 = frozen.  The only status transitions are
1->0, 1->2, 1->3, 2->1, 3->1 and 0->3; the tests check that graph on
their reference state machine, which the decoder matches visit by visit.

All decoders are deterministic: codewords are visited in ascending index
order per half-iteration and every tie-break is fixed.
"""

import operator
from dataclasses import dataclass
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

# the flips of a half-iteration that had nothing to decode
_NO_BITS = np.zeros(0, dtype=np.intp)

@dataclass
class DecodeStats:
    """Per-frame decoding record, JSON-serializable by the sim harness."""

    half_iterations: int = 0
    corrections: int = 0
    frozen_events: int = 0
    backtracks: int = 0
    syndromes_zero: bool = False


def frame_syndromes(layout: GpcLayout, frame: np.ndarray) -> list[int]:
    """Packed syndrome of every codeword: the XOR of the code's
    ``contrib_packed`` columns of its set bits, scattered over the frame.
    The frame is checked as ``_set_bits`` checks it."""
    return _syndrome_vector(layout, frame)[: layout.n_cw].tolist()


def _syndrome_vector(layout: GpcLayout, frame: np.ndarray) -> np.ndarray:
    """frame_syndromes as int64, plus a last slot that swallows the -1
    owner of single-owner bits."""
    acc = np.zeros(layout.n_cw + 1, dtype=np.int64)
    _fold_bits(layout, acc, _set_bits(layout, frame))
    return acc


def _set_bits(layout: GpcLayout, frame: np.ndarray) -> np.ndarray:
    """Indices of the set bits of a frame, which must have the layout's
    ``n_bits`` bits and hold only 0 and 1.  Every frame a decoder takes
    in, and the genie's reference, is checked here.

    A one-byte frame (uint8, int8, bool) is checked on its bytes, where
    any value but 0 and 1 reads above 1 (int8 -1 reads 255), and then
    scanned through a bool view, several times faster than a scan of the
    bytes as integers.  A wider frame is scanned as it is."""
    if frame.shape != (layout.n_bits,):
        raise ValueError(f"frame must have {layout.n_bits} bits")
    if frame.dtype.itemsize == 1:
        raw = frame.view(np.uint8)
        if raw.size and raw.max() > 1:
            raise ValueError("frame bits must be 0 or 1")
        return raw.view(bool).nonzero()[0]
    bits = frame.nonzero()[0]
    if bits.size and (frame[bits] != 1).any():
        raise ValueError("frame bits must be 0 or 1")
    return bits


def _fold_bits(layout: GpcLayout, acc: np.ndarray, bits: np.ndarray) -> None:
    """XOR the syndrome contributions of the given bits into both owners'
    slots of ``acc``.  The rows are gathered with ``take``, several times
    cheaper than fancy indexing; an absent partner's -1 owner and -1
    position wrap as they would under indexing, into the last slot."""
    if bits.size:
        owners = layout.bit_cw.take(bits, axis=0)  # (m, 2), -1 for absent partners
        contribs = layout.code.contrib_packed_np.take(layout.bit_pos.take(bits, axis=0))
        np.bitwise_xor.at(acc, owners.ravel(), contribs.ravel())


class _ConflictSets(dict):
    """Conflict sets L by codeword.  Only non-empty sets are stored; any
    other codeword reads as an empty frozenset.  The decoder itself reads
    them with ``get``, which skips the ``__missing__`` call."""

    def __missing__(self, c: int) -> frozenset:
        return frozenset()


class DecoderState:
    """Mutable per-frame state of the anchor decoding machine.

    Owns the working frame copy, the syndromes (kept up to date flip by
    flip, with ``nonzero_count``), the per-codeword status list, the
    symmetric conflict sets L and the stored error locations E of every
    anchor.  ``live_types[ty]`` is False only when no codeword of type
    ty (0-based) is eligible: every write of ELIGIBLE sets its type's
    flag.

    ``visit_all`` is the status machine of Alg. 2: it visits the eligible
    codewords of a range in ascending order, each with one ``decode_cw``
    call.  The flips of a successful decode are applied inline: frame
    bit, the partner's syndrome, ``nonzero_count`` and the partner's
    return to eligibility; the codeword's own syndrome becomes 0.  Only
    a decode whose flips reach an anchor -- the rare case -- first goes
    through ``_check_anchors``, which freezes the codeword (no flip is
    applied) or marks anchors; marked anchors are backtracked after the
    flips (``backtrack``, Alg. 3, which reverses an anchor's flips
    through ``error_correction``, Alg. 4).  Every status change is a
    plain write of ``status[c]``.  A budget reset is ``reset_failed``.

    The frame is a numpy view over a bytearray, and the layout's index
    arrays are read through its flat ``array('i')`` views.  The frame is
    checked by ``frame_syndromes``.  Post-processing reads a terminal
    state and never changes it.
    """

    def __init__(self, layout: GpcLayout, frame: np.ndarray, delta: int = 1):
        if operator.index(delta) < 0:
            raise ValueError("delta must be >= 0")
        self.layout = layout
        self.code = layout.code
        self.delta = delta
        self.syn = frame_syndromes(layout, frame)
        self.nonzero_count = len(self.syn) - self.syn.count(0)
        self._buf = bytearray(np.ascontiguousarray(frame, dtype=np.uint8))
        self.frame = np.frombuffer(self._buf, dtype=np.uint8)
        self.status = [ELIGIBLE] * layout.n_cw
        self.live_types = [True] * layout.num_types
        self._per = layout.per_type
        self.conflicts = _ConflictSets()
        self.anchor_pos: list[tuple[int, ...] | None] = [None] * layout.n_cw
        self.stats = DecodeStats()
        self._memos = layout.code._memos  # by budget: ComponentCodeSpec.memo
        self._pin_masks = layout.pin_masks

    # --- primitives --------------------------------------------------------

    def _dissolve(self, c: int) -> list[int]:
        """Drop codeword c's conflicts on both sides; returns, ascending,
        the codewords this leaves without any conflict."""
        conflicts = self.conflicts
        freed = []
        for k in sorted(conflicts.pop(c, ())):
            theirs = conflicts[k]
            theirs.discard(c)
            if not theirs:
                del conflicts[k]
                freed.append(k)
        return freed

    def all_syndromes_zero(self) -> bool:
        return self.nonzero_count == 0

    def decode_cw(self, c: int, budget: int):
        """BDD on codeword c's current syndrome; None signals failure.

        A proposed flip at a pinned (known-zero) position refutes the
        candidate, exactly like a locator root in the shortened range.
        """
        s = self.syn[c]
        out = self._memos[budget][s]
        if out is _MISS:
            out = self.code.decode_packed(s, budget)
        pin = self._pin_masks[c]
        if pin and out:
            for p in out:
                if pin >> p & 1:
                    return None
        return out

    def reset_failed(self) -> None:
        """Make every failed codeword eligible again (a budget reset)."""
        status, live, per = self.status, self.live_types, self._per
        for c, st in enumerate(status):
            if st == FAILED:
                status[c] = ELIGIBLE
                live[c // per] = True

    # --- Alg. 4: error-correction step for bit (c, pos) ---------------------

    def error_correction(self, c: int, pos: int) -> None:
        """Flip the bit at position ``pos`` of codeword ``c`` unless both
        incident codewords are anchors (an anchor's decision is trusted
        against a backtracked one)."""
        layout, status = self.layout, self.status
        i = c * self.code.n + pos
        k = layout.flat_partner_cw[i]
        if status[c] == ANCHOR and status[k] == ANCHOR:
            return
        self._buf[layout.flat_cw_bits[i]] ^= 1
        syn, contrib = self.syn, self.code.contrib_packed
        old = syn[c]
        new = syn[c] = old ^ contrib[pos]
        nonzero = (not old) - (not new)
        old = syn[k]
        new = syn[k] = old ^ contrib[layout.flat_partner_pos[i]]
        self.nonzero_count += nonzero + (not old) - (not new)
        self.stats.corrections += 1
        st = status[k]
        if st >= FAILED:  # FAILED or FROZEN: eligible again
            status[k] = ELIGIBLE
            self.live_types[k // self._per] = True
            if st == FROZEN:
                self._dissolve(k)

    # --- Alg. 3: backtrack an anchor ----------------------------------------

    def backtrack(self, c: int) -> None:
        """Reverse an anchor's applied flips, dissolve its conflicts, and
        freeze it (backtracked anchors are likely miscorrected)."""
        if self.status[c] != ANCHOR:
            raise RuntimeError(f"backtrack called on non-anchor {c}")
        for k in self._dissolve(c):
            self.status[k] = ELIGIBLE
            self.live_types[k // self._per] = True
        for pos in self.anchor_pos[c]:
            self.error_correction(c, pos)
        self.status[c] = FROZEN
        self.anchor_pos[c] = None
        self.stats.backtracks += 1

    # --- Alg. 2: per-codeword main routine -----------------------------------

    def visit_all(self, cws: range, budget: int) -> bool:
        """Visit, in ascending order, every codeword of ``cws`` that is
        eligible when its turn comes: decode, consistency-check the
        implied flips against anchors, then either freeze, or apply the
        corrections, anchor the codeword, and backtrack marked anchors.

        Returns whether any codeword was visited; a visit always changes
        the status of its codeword.  A whole codeword type returns False at
        once when its ``live_types`` flag is clear, and clears the flag
        before the scan; any other range neither reads nor clears it.
        """
        per, live = self._per, self.live_types
        if len(cws) == per and cws.step == 1 and not cws.start % per:
            ty = cws.start // per
            if not live[ty]:
                return False
            live[ty] = False
        n = self.code.n
        contrib = self.code.contrib_packed
        layout = self.layout
        partner_cw = layout.flat_partner_cw
        partner_pos = layout.flat_partner_pos
        cw_bits = layout.flat_cw_bits
        buf = self._buf
        syn, status, anchor_pos = self.syn, self.status, self.anchor_pos
        decode_cw = self.decode_cw
        nonzero = self.nonzero_count
        corrections = 0
        visited = False
        for c in cws:
            if status[c] != ELIGIBLE:
                continue
            visited = True
            if not syn[c]:
                # decodes to itself: an anchor with no stored error locations
                status[c] = ANCHOR
                anchor_pos[c] = ()
                continue
            out = decode_cw(c, budget)
            if out is None:
                status[c] = FAILED
                continue
            base = c * n
            marked = ()
            for p in out:
                if status[partner_cw[base + p]] == ANCHOR:
                    marked = self._check_anchors(c, out)
                    break
            if marked is None:
                continue  # frozen: flips withheld, marked anchors spared
            # apply every flip (an anchor partner keeps its status), anchor c
            for p in out:
                i = base + p
                buf[cw_bits[i]] ^= 1
                k = partner_cw[i]
                old = syn[k]
                new = syn[k] = old ^ contrib[partner_pos[i]]
                nonzero += (not old) - (not new)
                st = status[k]
                if st >= FAILED:  # FAILED or FROZEN: eligible again
                    status[k] = ELIGIBLE
                    live[k // per] = True
                    if st == FROZEN:
                        self._dissolve(k)
            syn[c] = 0  # a decoded support's syndrome is its codeword's
            nonzero -= 1
            corrections += len(out)
            status[c] = ANCHOR
            anchor_pos[c] = out
            if marked:
                self.nonzero_count = nonzero
                self.stats.corrections += corrections
                corrections = 0
                for k in marked:
                    self.backtrack(k)
                nonzero = self.nonzero_count
        self.nonzero_count = nonzero
        self.stats.corrections += corrections
        return visited

    def _check_anchors(self, c: int, out: tuple[int, ...]) -> list[int] | None:
        """Consistency check of eligible codeword c's decode ``out``
        against the anchors its flips reach.  An anchor with fewer than
        ``delta`` conflicts freezes c (returns None: every flip is
        withheld); an anchor with more is marked for backtracking.
        Returns the marked anchors, in first-reached order, unless c
        froze."""
        partner_cw = self.layout.flat_partner_cw
        base = c * self.code.n
        status, conflicts = self.status, self.conflicts
        marked: list[int] = []
        for pos in out:
            k = partner_cw[base + pos]
            if status[k] != ANCHOR:
                continue
            if len(conflicts.get(k, ())) >= self.delta:
                if k not in marked:
                    marked.append(k)  # mark for backtracking
            else:
                if status[c] != FROZEN:
                    status[c] = FROZEN
                    self.stats.frozen_events += 1
                if k not in conflicts.get(c, ()):
                    conflicts.setdefault(c, set()).add(k)
                    conflicts.setdefault(k, set()).add(c)
        return None if status[c] == FROZEN else marked


# ---------------------------------------------------------------------------
# public decoders


def anchor_decode(
    layout: GpcLayout, frame: np.ndarray, ell: int, delta: int = 1, reduced_t_iters: int = 0
):
    """Anchor-based iterative decoding of one frame.

    Returns (decoded frame, DecodeStats).  The input frame is not modified.
    """
    state = anchor_decode_state(layout, frame, ell, delta, reduced_t_iters)
    return state.frame, state.stats


def anchor_decode_state(
    layout: GpcLayout, frame: np.ndarray, ell: int, delta: int = 1, reduced_t_iters: int = 0
) -> DecoderState:
    """Like anchor_decode but returns the full decoder state, for callers
    that need the anchor bookkeeping afterwards (post-processing).  A
    half-iteration re-enables failed codewords at a budget reset, memoizes
    the eligible syndromes on wide codes, then runs ``visit_all``."""
    state = DecoderState(layout, frame, delta)
    status, syn = state.status, state.syn
    prefetch = layout.code.batch_closed_form

    def half_iteration(cws: range, budget: int, reset: bool) -> bool:
        if reset:
            state.reset_failed()
        if prefetch:
            lo, hi = cws.start, cws.stop
            layout.code.prefetch(
                [s for s, st in zip(syn[lo:hi], status[lo:hi]) if s and st == ELIGIBLE],
                budget,
            )
        return state.visit_all(cws, budget)

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
    nonzero in one batch and applies every correction at once: the bits
    flip, the accepted codewords' syndromes become 0 (a BDD support's
    syndrome is its codeword's), and one ``bitwise_xor.at`` folds each
    flip into its partner's syndrome, a missing partner (-1) into the
    last slot, which swallows it.  Codewords of one type share no bit, so
    the result equals visiting them one by one in index order.  A
    correction that flips a pinned (known-zero) bit is refused as a
    failure; only the types whose spans reach a pinned bit check.

    BDD is a pure function of the syndrome and the budget, so a
    half-iteration is a pure function of the frame and its schedule entry:
    once a sweep's flips cancel, the driver's replay (``_run_schedule``)
    accounts the rest of the window position without decoding.
    """
    code = layout.code
    acc = _syndrome_vector(layout, frame)
    work = frame.astype(np.uint8, copy=True)
    syn = acc[: layout.n_cw]
    n, contrib = code.n, code.contrib_packed_np
    cw_bits, partner_cw, partner_pos, cw_pinned = (
        a.ravel() for a in (layout.cw_bits, layout.partner_cw, layout.partner_pos, layout.cw_pinned)
    )
    sent, per_type = layout.sent, layout.per_type
    pinned_types = [lo < sent.start or hi > sent.stop for lo, hi in layout.type_spans.tolist()]
    stats = DecodeStats()
    flips: list[np.ndarray] = []  # bits flipped by each half-iteration

    def flip(bits: np.ndarray) -> None:
        work[bits] ^= 1
        _fold_bits(layout, acc, bits)

    def half_iteration(cws: range, budget: int, _reset: bool) -> int:
        seg = syn[cws.start : cws.stop]
        rows = seg.nonzero()[0]
        if not rows.size:
            flips.append(_NO_BITS)
            return 0
        pos = code.decode_rows(seg[rows], budget)
        ok = pos >= 0
        slots = (rows + cws.start)[:, None] * n + pos  # flat (codeword, position)
        if pinned_types[cws.start // per_type]:
            ok &= ~(cw_pinned[slots] & ok).any(axis=1, keepdims=True)
        i = slots[ok]
        bits = cw_bits[i].astype(np.intp)  # an int32 index is cast at every use
        work[bits] ^= 1
        seg[rows[ok[:, 0]]] = 0  # a support's syndrome is its codeword's
        np.bitwise_xor.at(acc, partner_cw[i], contrib[partner_pos[i]])
        stats.corrections += bits.size
        flips.append(bits)
        return bits.size

    def finished() -> bool:
        return not np.count_nonzero(syn)  # 2-4x cheaper than syn.any()

    _run_schedule(layout, ell, reduced_t_iters, stats, half_iteration, finished, (flips, flip))
    stats.syndromes_zero = finished()
    return work, stats


def genie_decode(
    layout: GpcLayout,
    frame: np.ndarray,
    true_frame: np.ndarray | None,
    ell: int,
):
    """Idealized iterative BDD: corrects a codeword exactly when its current
    error weight is at most t, so no miscorrection ever occurs.

    ``true_frame`` may be None for the all-zero codeword.  Any other
    reference is checked like a frame and then as a GPC codeword, before
    any half-iteration.  A frame without errors runs no half-iteration,
    but its schedule is checked as the other decoders check it.

    The error bits, ascending, and their codewords in the even and the
    odd types are taken once.  A half-iteration reads the errors still
    live in its type's bit span (``GpcLayout.type_spans``), found by
    binary search, or none while no correction changed them.
    """
    t, per_type = layout.code.t, layout.per_type
    check_schedule(ell)
    bits = _set_bits(layout, frame)
    if true_frame is not None:
        ref = np.asarray(true_frame)
        syn = frame_syndromes(layout, ref)  # checks the shape and the bits
        if layout.has_pinned and ref[layout.pinned].any():
            raise ValueError("true_frame sets pinned (known-zero) bits")
        if any(syn):
            raise ValueError("true_frame is not a valid codeword of the GPC")
        bits = np.flatnonzero(frame.astype(bool) ^ ref.astype(bool))
    owners = layout.bit_cw.take(bits, axis=0)  # (m, 2), -1 for absent partners
    odd = (owners[:, 0] // per_type & 1).astype(bool)
    # intp, so the half-iterations' bincount and gathers cast nothing
    by_parity = np.where(odd, owners[:, ::-1].T, owners.T).astype(np.intp)
    live = np.ones(bits.size, dtype=bool)
    # stale[ty + 1]: an adjacent type corrected since type ty's last
    # half-iteration; ty's own corrections leave it none to correct
    stale = [True] * (layout.num_types + 2)
    stats = DecodeStats()
    left = bits.size  # errors left, kept by half_iteration

    def half_iteration(cws: range, _budget: int, _reset: bool) -> bool:
        nonlocal left
        ty = cws.start // per_type
        if not stale[ty + 1]:
            return False
        stale[ty + 1] = False
        a, b = bits.searchsorted(layout.type_spans[ty])
        idx = live[a:b].nonzero()[0] + a
        rows = by_parity[ty & 1].take(idx) - cws.start
        cnt = np.bincount(rows, minlength=per_type)
        fix = idx[cnt[rows] <= t]
        if not fix.size:
            return False
        live[fix] = False
        stale[ty] = stale[ty + 2] = True
        stats.corrections += fix.size
        left -= fix.size
        return True

    if left:
        _run_schedule(layout, ell, 0, stats, half_iteration, lambda: left == 0)
    stats.syndromes_zero = left == 0
    out = np.zeros(layout.n_bits, np.uint8) if true_frame is None else ref.astype(np.uint8)
    out[bits[live]] ^= 1
    return out, stats


def check_schedule(ell: int, reduced_t_iters: int = 0) -> tuple[int, int]:
    """The schedule's arguments as ints: ell sweeps per window position,
    of which the first ``reduced_t_iters`` decode with budget t-1.  A
    non-integer is refused as a TypeError, ell below 1 or a reduced phase
    outside [0, ell] as a ValueError."""
    ell, reduced_t_iters = operator.index(ell), operator.index(reduced_t_iters)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 0 <= reduced_t_iters <= ell:
        raise ValueError("reduced_t_iters must lie in [0, ell]")
    return ell, reduced_t_iters


def _run_schedule(
    layout: GpcLayout,
    ell: int,
    reduced_t_iters: int,
    stats: DecodeStats,
    half_iteration: Callable[[range, int, bool], int],
    finished: Callable[[], bool],
    replay: tuple[list, Callable[[np.ndarray], None]] | None = None,
) -> None:
    """Run ``half_iteration(cw_indices, budget, reset_failed)`` over the
    schedule, counting half-iterations in ``stats``.

    At each window position the schedule is ell sweeps over the
    position's type ranges (``GpcLayout.window_ranges``), of ``sweep``
    entries each.  Entry i, computed when it runs, decodes
    ``ranges[i % sweep]`` with budget t-1 while ``i < reduced_t_iters *
    sweep`` and t after that; failed statuses reset before entry
    ``reduced_t_iters * sweep`` when the reduced phase neither is empty
    nor fills the schedule.

    The schedule ends once ``finished()`` holds after a half-iteration.  A
    window position ends early once a full sweep reports no change and no
    budget reset is still ahead: the remaining sweeps would repeat that
    sweep verbatim.

    ``replay`` is ``(flips, flip)`` for a decoder whose half-iteration is
    a pure function of the frame and its schedule entry (iterative BDD).
    Its half-iteration returns how many bits it flipped and appends them,
    as an array of distinct bits, to ``flips``, which is emptied at each
    window position; ``flip(bits)`` flips distinct bits of the frame.
    After a half-iteration that flipped something, a sweep or more past
    the budget reset, the flips of the last sweep are checked for
    cancelling (on a product: both passes flipped the same bits).  If
    they cancel, the frame is back in its state of one sweep earlier.
    Past the reset every entry equals the one a sweep before it (same
    type range and budget, no reset), so the rest of the position's
    schedule replays that sweep: it can neither finish nor stall, its
    half-iterations and corrections are added arithmetically, the flips
    of its leftover partial sweep are applied, and the window position is
    left.  Detection costs an int comparison per half-iteration: every
    bit lies on two adjacent codeword types (``GpcLayout``), so flips
    that cancel over a sweep are as many on odd types as on even ones,
    and only then are the flips compared.
    """
    ell, reduced_t_iters = check_schedule(ell, reduced_t_iters)
    t, per_type = layout.code.t, layout.per_type
    for ranges in layout.window_ranges:
        sweep = len(ranges)
        reduced_end = reduced_t_iters * sweep
        reset_at = reduced_end if 0 < reduced_t_iters < ell else -1
        stuck = 0
        if replay is not None:
            flips, flip = replay
            flips.clear()
            balance = [0]  # flips on odd- minus even-indexed types, before each entry
        for i in range(ell * sweep):
            cws = ranges[i % sweep]
            changed = half_iteration(cws, t - 1 if i < reduced_end else t, i == reset_at)
            stats.half_iterations += 1
            if finished():
                return
            stuck = 0 if changed else stuck + 1
            if stuck >= sweep and i > reset_at:
                break  # fixpoint within this window position
            if replay is not None:
                b = balance[-1] + (changed if cws.start // per_type & 1 else -changed)
                balance.append(b)
                if (
                    changed
                    and i - reset_at >= sweep
                    and b == balance[i + 1 - sweep]
                    and _replay(flips[-sweep:], ell * sweep - 1 - i, flip, stats)
                ):
                    break


def _replay(
    cycle: list[np.ndarray],
    rest: int,
    flip: Callable[[np.ndarray], None],
    stats: DecodeStats,
) -> bool:
    """If the flips of the last sweep, ``cycle``, cancel, account the
    ``rest`` half-iterations left at the window position as repeats of
    that sweep and return True; otherwise change nothing and return
    False."""
    both = np.sort(np.concatenate(cycle))
    if both.size % 2 or (both[::2] != both[1::2]).any():
        return False  # some bit flipped an odd number of times
    sweeps, part = divmod(rest, len(cycle))
    stats.half_iterations += rest
    stats.corrections += sweeps * both.size
    for bits in cycle[:part]:
        flip(bits)
        stats.corrections += bits.size
    return True
