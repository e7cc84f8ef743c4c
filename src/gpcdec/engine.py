"""Frame decoders for generalized product codes.

The three decoders differ only in what one half-iteration does.  One
driver, ``_run_schedule``, walks the layout's ``window_plans`` for all
three: it calls the decoder's half-iteration on each scheduled codeword
type, counts half-iterations, ends the frame once the decoder reports it
finished (every syndrome zero; for the genie, no error left), and leaves
a window position once a full sweep changed nothing and no budget reset
is still ahead.  For iterative BDD it also leaves a window position once
a sweep's flips cancel: the frame is back where it was a sweep earlier,
so the rest of the plan would replay that sweep, and the driver accounts
it without decoding.  The other two do not replay: an anchor
half-iteration depends on statuses and conflicts as well as the frame,
and the genie only clears errors, so it cannot cycle.  The
half-iterations:

* ``iterative_bdd``: conventional iterative bounded-distance decoding.
  Every scheduled codeword is BDD-decoded and corrections are applied
  immediately.  Miscorrections propagate freely, and often cycle: one
  pass flips back exactly the bits the other pass flipped.  Codewords of
  one type share no bit, so a half-iteration is one batched decode
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
  Its half-iteration is one call of ``DecoderState.visit_all``, the
  per-codeword status machine, visit by visit, since a visit can
  backtrack an anchor and change later syndromes of the same type.  The
  flips of a decode are applied inline on Python lists, a bytearray and
  the layout's flat ``array('i')`` views; only a decode whose flips
  reach an anchor calls the freeze check and, for marked anchors,
  ``backtrack``.  A visit's BDD is one read of the code's memo of the
  budget, indexed by syndrome (``ComponentCodeSpec.memo``), and a call of
  ``decode_packed`` only on a miss.  Where decode_batch solves misses in
  closed form (no dense decode table, t = 2 or 3), each half-iteration
  first decodes the eligible codewords' syndromes that miss the memo in
  one batch (``ComponentCodeSpec.prefetch``); a syndrome changed
  mid-sweep is decoded when visited, as before.

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

# the flips of a half-iteration that had nothing to decode
_NO_BITS = np.zeros(0, dtype=np.int32)

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
    computed by scattering the contributions of the set bits.  The frame
    is checked as ``_set_bits`` checks it."""
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
        return np.flatnonzero(raw.view(bool))
    bits = np.flatnonzero(frame)
    if bits.size and (frame[bits] != 1).any():
        raise ValueError("frame bits must be 0 or 1")
    return bits


def _fold_bits(layout: GpcLayout, acc: np.ndarray, bits: np.ndarray) -> None:
    """XOR the syndrome contributions of the given bits into both owners'
    slots of ``acc``."""
    if bits.size:
        owners = layout.bit_cw[bits]  # (m, 2), -1 for absent partners
        contribs = layout.code.contrib_packed_np[layout.bit_pos[bits]]
        np.bitwise_xor.at(acc, owners.ravel(), contribs.ravel())


def _check_valid_frame(layout: GpcLayout, frame: np.ndarray) -> None:
    syn = frame_syndromes(layout, frame)  # checks the shape and the bits
    if layout.has_pinned and frame[layout.pinned].any():
        raise ValueError("true_frame sets pinned (known-zero) bits")
    if any(syn):
        raise ValueError("true_frame is not a valid codeword of the GPC")


class _ConflictSets(dict):
    """Conflict sets L by codeword.  Only non-empty sets are stored; any
    other codeword reads as an empty frozenset."""

    def __missing__(self, c: int) -> frozenset:
        return frozenset()


class DecoderState:
    """Mutable per-frame state of the anchor decoding machine.

    Owns the working frame copy, the syndromes (kept up to date flip by
    flip, with ``nonzero_count``), the per-codeword status list, the
    symmetric conflict sets L and the stored error locations E of every
    anchor.

    ``visit_all`` is the status machine of Alg. 2: it visits the eligible
    codewords of a range in ascending order, each with one ``decode_cw``
    call.  The flips of a successful decode are applied inline: frame
    bit, both syndromes, ``nonzero_count`` and the partner's return to
    eligibility.  Only a decode whose flips reach an anchor -- the rare
    case -- first goes through ``_check_anchors``, which freezes the
    codeword (no flip is applied) or marks anchors; marked anchors are
    backtracked after the flips (``backtrack``, Alg. 3, which reverses
    an anchor's flips through ``error_correction``, Alg. 4).  ``visit``
    runs one codeword.

    The frame is a numpy view over a bytearray, which the loop indexes
    directly, and the layout's index arrays are read through its flat
    ``array('i')`` views.  The syndromes come from ``frame_syndromes``,
    which rejects a frame of the wrong length or holding anything but 0
    and 1.  Post-processing reads a terminal state and never changes it.
    """

    def __init__(
        self,
        layout: GpcLayout,
        frame: np.ndarray,
        delta: int = 1,
        record_transitions: bool = False,
    ):
        if delta < 0:
            raise ValueError("delta must be >= 0")
        self.layout = layout
        self.code = layout.code
        self.delta = delta
        self.syn = frame_syndromes(layout, frame)
        self.nonzero_count = len(self.syn) - self.syn.count(0)
        self._buf = bytearray(np.ascontiguousarray(frame, dtype=np.uint8))
        self.frame = np.frombuffer(self._buf, dtype=np.uint8)
        self.status = [ELIGIBLE] * layout.n_cw
        self.conflicts = _ConflictSets()
        self.anchor_pos: list[tuple[int, ...] | None] = [None] * layout.n_cw
        self.stats = DecodeStats()
        self._record = record_transitions
        self._memos = layout.code._memos  # by budget: ComponentCodeSpec.memo
        self._pin_masks = layout.pin_masks

    # --- primitives --------------------------------------------------------

    def _set_status(self, c: int, value: int) -> None:
        old = self.status[c]
        if old == value:
            return
        if self._record:
            self.stats.transitions.append((c, old, value))
        self.status[c] = value

    def _update_syndrome(self, c: int, pos: int) -> None:
        """Fold the flip of position ``pos`` into codeword c's syndrome."""
        old = self.syn[c]
        new = old ^ self.code.contrib_packed[pos]
        self.syn[c] = new
        if (old == 0) != (new == 0):
            self.nonzero_count += 1 if old == 0 else -1

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
        if pin and out and any(pin >> p & 1 for p in out):
            return None
        return out

    # --- Alg. 4: error-correction step for bit (c, pos) ---------------------

    def error_correction(self, c: int, pos: int) -> None:
        """Flip the bit at position ``pos`` of codeword ``c`` unless both
        incident codewords are anchors (an anchor's decision is trusted
        against a backtracked one)."""
        layout = self.layout
        i = c * self.code.n + pos
        k = layout.flat_partner_cw[i]
        if self.status[c] == ANCHOR and self.status[k] == ANCHOR:
            return
        self._buf[layout.flat_cw_bits[i]] ^= 1
        self._update_syndrome(c, pos)
        self._update_syndrome(k, layout.flat_partner_pos[i])
        self.stats.corrections += 1
        st = self.status[k]
        if st == FAILED:
            self._set_status(k, ELIGIBLE)
        elif st == FROZEN:
            self._set_status(k, ELIGIBLE)
            self._dissolve(k)

    # --- Alg. 3: backtrack an anchor ----------------------------------------

    def backtrack(self, c: int) -> None:
        """Reverse an anchor's applied flips, dissolve its conflicts, and
        freeze it (backtracked anchors are likely miscorrected)."""
        if self.status[c] != ANCHOR:
            raise RuntimeError(f"backtrack called on non-anchor {c}")
        for k in self._dissolve(c):
            self._set_status(k, ELIGIBLE)
        for pos in self.anchor_pos[c]:
            self.error_correction(c, pos)
        self._set_status(c, FROZEN)
        self.anchor_pos[c] = None
        self.stats.backtracks += 1

    # --- Alg. 2: per-codeword main routine -----------------------------------

    def visit(self, c: int, budget: int | None = None) -> None:
        """Process codeword c alone if it is eligible (see visit_all)."""
        self.visit_all(range(c, c + 1), self.code.t if budget is None else budget)

    def visit_all(self, cws: range, budget: int) -> bool:
        """Visit, in ascending order, every codeword of ``cws`` that is
        eligible when its turn comes: decode, consistency-check the
        implied flips against anchors, then either freeze, or apply the
        corrections, anchor the codeword, and backtrack marked anchors.

        Returns whether any codeword was visited; a visit always changes
        the status of its codeword.
        """
        n = self.code.n
        contrib = self.code.contrib_packed
        layout = self.layout
        partner_cw = layout.flat_partner_cw
        partner_pos = layout.flat_partner_pos
        cw_bits = layout.flat_cw_bits
        buf = self._buf
        syn, status, anchor_pos = self.syn, self.status, self.anchor_pos
        record, transitions = self._record, self.stats.transitions
        decode_cw = self.decode_cw
        nonzero = self.nonzero_count
        corrections = 0
        visited = False
        for c in cws:
            if status[c] != ELIGIBLE:
                continue
            visited = True
            s = syn[c]
            if not s:
                # decodes to itself: an anchor with no stored error locations
                status[c] = ANCHOR
                anchor_pos[c] = ()
                if record:
                    transitions.append((c, ELIGIBLE, ANCHOR))
                continue
            out = decode_cw(c, budget)
            if out is None:
                status[c] = FAILED
                if record:
                    transitions.append((c, ELIGIBLE, FAILED))
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
                s ^= contrib[p]
                k = partner_cw[i]
                old = syn[k]
                new = syn[k] = old ^ contrib[partner_pos[i]]
                nonzero += (not old) - (not new)
                st = status[k]
                if st >= FAILED:  # FAILED or FROZEN: eligible again
                    status[k] = ELIGIBLE
                    if record:
                        transitions.append((k, st, ELIGIBLE))
                    if st == FROZEN:
                        self._dissolve(k)
            syn[c] = s
            if not s:
                nonzero -= 1
            corrections += len(out)
            status[c] = ANCHOR
            anchor_pos[c] = out
            if record:
                transitions.append((c, ELIGIBLE, ANCHOR))
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
            if len(conflicts[k]) >= self.delta:
                if k not in marked:
                    marked.append(k)  # mark for backtracking
            else:
                if status[c] != FROZEN:
                    self._set_status(c, FROZEN)
                    self.stats.frozen_events += 1
                if k not in conflicts[c]:
                    conflicts.setdefault(c, set()).add(k)
                    conflicts.setdefault(k, set()).add(c)
        return None if status[c] == FROZEN else marked

    # --- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Assert the state invariants; used by tests after every visit."""
        syn = frame_syndromes(self.layout, self.frame)
        assert syn == self.syn, "stale syndromes"
        assert self.nonzero_count == sum(1 for s in syn if s)
        for c, l in self.conflicts.items():
            assert l, "empty conflict set kept"
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
    nonzero in one batch and applies every correction at once.  Codewords
    of one type share no bit, so their syndromes cannot change within the
    half-iteration, and the result equals visiting them one by one in
    index order.  A correction that flips a pinned (known-zero) bit is
    refused as a failure.

    BDD is a pure function of the syndrome and the budget, so a
    half-iteration is a pure function of the frame and its plan entry,
    and the decoder opts into the driver's replay (``_run_schedule``).
    A codeword that failed is decoded again in later half-iterations, to
    the same failure unless its syndrome or the budget changed, until a
    sweep's flips cancel: from then on each sweep would repeat the last,
    and the rest of the window position is accounted without decoding.
    """
    code = layout.code
    acc = _syndrome_vector(layout, frame)
    work = frame.astype(np.uint8, copy=True)
    syn = acc[: layout.n_cw]
    cw_bits = layout.cw_bits
    cw_pinned = layout.cw_pinned if layout.has_pinned else None
    stats = DecodeStats()
    flips: list[np.ndarray] = []  # bits flipped by each half-iteration

    def flip(bits: np.ndarray) -> None:
        work[bits] ^= 1
        _fold_bits(layout, acc, bits)

    def half_iteration(cws: range, budget: int, _reset: bool) -> int:
        seg = syn[cws.start : cws.stop]
        rows = np.flatnonzero(seg)
        if not rows.size:
            flips.append(_NO_BITS)
            return 0
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
        flip(bits)
        stats.corrections += bits.size
        flips.append(bits)
        return bits.size

    _run_schedule(
        layout, ell, reduced_t_iters, stats, half_iteration, lambda: not syn.any(),
        (flips, flip),
    )
    stats.syndromes_zero = not syn.any()
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
    any half-iteration.  A frame without errors runs no half-iteration.
    """
    t = layout.code.t
    _set_bits(layout, frame)
    err = frame.astype(bool)
    if true_frame is not None:
        ref = np.asarray(true_frame)
        _check_valid_frame(layout, ref)
        err ^= ref.astype(bool)
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
    out = ref.astype(np.uint8)
    out[err] ^= 1
    return out, stats


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

    The schedule ends once ``finished()`` holds after a half-iteration.  A
    window position ends early once a full sweep reports no change and no
    budget reset is still ahead in its plan: the remaining sweeps would
    repeat that sweep verbatim.

    ``replay`` is ``(flips, flip)`` for a decoder whose half-iteration is
    a pure function of the frame and its plan entry (iterative BDD).  Its
    half-iteration returns how many bits it flipped and appends them, as
    an array of distinct bits, to ``flips``, which the driver empties at
    each window position; ``flip(bits)`` flips distinct bits of the frame.
    After a half-iteration that flipped something, a sweep or more past
    the plan's last budget reset, the driver checks whether the flips of
    the last sweep cancel (on a product: both passes flipped the same
    bits).  If so, the frame is back in its state of one sweep earlier.
    Past the last reset every plan entry equals the one a sweep before it
    (same type range and budget, no reset), so the rest of the plan
    replays that sweep: it can neither finish nor stall, its
    half-iterations and corrections are added arithmetically, the flips
    of its leftover partial sweep are applied, and the window position is
    left.  Detection costs an int comparison per half-iteration: every
    bit lies on two codeword types of opposite parity (rows and columns;
    adjacent staircase types), so flips that cancel over a sweep are as
    many on odd types as on even ones, and only then are the flips
    compared.
    """
    sweep = layout.sweep_len
    per_type = layout.per_type
    for plan in layout.window_plans(ell, reduced_t_iters):
        last_reset = max(
            (i for i, h in enumerate(plan) if h.reset_failed), default=-1
        )
        stuck = 0
        if replay is not None:
            flips, flip = replay
            flips.clear()
            balance = [0]  # flips on odd- minus even-indexed types, before each entry
        for i, (cws, budget, reset) in enumerate(plan):
            changed = half_iteration(cws, budget, reset)
            stats.half_iterations += 1
            if finished():
                return
            stuck = 0 if changed else stuck + 1
            if stuck >= sweep and i > last_reset:
                break  # fixpoint within this window position
            if replay is not None:
                b = balance[-1] + (changed if cws.start // per_type & 1 else -changed)
                balance.append(b)
                if (
                    changed
                    and i - last_reset >= sweep
                    and b == balance[i + 1 - sweep]
                    and _replay(flips[-sweep:], len(plan) - 1 - i, flip, stats)
                ):
                    break


def _replay(
    cycle: list[np.ndarray],
    rest: int,
    flip: Callable[[np.ndarray], None],
    stats: DecodeStats,
) -> bool:
    """If the flips of the last sweep, ``cycle``, cancel, account the
    ``rest`` half-iterations left in the plan as repeats of that sweep and
    return True; otherwise change nothing and return False."""
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
