"""Post-processing rescues for frames the iterative decoder could not clear.

Two strategies operate on the terminal decoder state:

* ``bitflip_iterate_pp``: flip every bit whose two incident codewords both
  failed, then rerun the frame decoder for a few extra iterations.  On
  minimal stall patterns the failed-codeword intersection is exactly the
  residual error support, so the flip clears the frame outright.
* ``erasure_pp``: treat the intersection bits as erasures and solve for
  them codeword by codeword with the component-code linear solver.  When
  decoding stalled because some anchors miscorrected (spending their full
  correction budget inside failed partner codewords), those suspicious
  anchors are added to the failed sets first, one at a time in a greedy
  order, exposing their bits to the erasure solver.  An insertion is kept
  only while at least one failed set stays smaller than d_min, where every
  linear system on the other side has a unique solution.

Both take a terminal ``DecoderState``, leave it untouched and return a
``PpResult`` holding the rescued frame plus the counters the sim harness
serializes.

Everything works on the decoder state's packed syndromes and the layout's
index arrays, with codewords as indices: ``CodewordId``s are built only
for the public ``FailureReport``.  The failed mask comes from the
syndromes in one numpy op and the intersection from the failed codewords'
``partner_cw`` rows; the suspicious anchors are read from the state's
lists.  The erasure solver, ``ComponentCodeSpec.erasure_decode``, takes a
codeword's packed syndrome plus its erased positions and returns the
positions to flip, so no codeword is gathered from the frame.  The
erasure fixpoint works on its own copy of the frame and of the syndrome
list, and flips a solved position through the layout's flat views.  A
member's erased positions are fixed for the whole fixpoint, so a member
with more of them than syndrome bits
(``ComponentCodeSpec.erasures_solvable``) can never be solved and is
dropped before the first pass: the common case when the failed sets are
large.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .engine import (
    ANCHOR,
    DecoderState,
    anchor_decode,
    genie_decode,
    iterative_bdd,
)
from .layout import CodewordId, GpcLayout

__all__ = [
    "FailureReport",
    "PpResult",
    "build_failure_report",
    "bitflip_iterate_pp",
    "erasure_pp",
]


@dataclass(frozen=True)
class FailureReport:
    """Terminal-state failure summary: who failed, where failures overlap,
    and which anchors look miscorrected.

    ``failed_by_type`` maps each codeword type to the ids with nonzero
    syndrome.  ``intersection`` holds every bit both of whose incident
    codewords failed.  ``suspicious_anchors`` are anchors that applied
    exactly t corrections, all of them inside failed partner codewords:
    the signature of a plausible miscorrection.
    """

    failed_by_type: dict[int, tuple[CodewordId, ...]]
    intersection: np.ndarray
    suspicious_anchors: tuple[CodewordId, ...]

    @property
    def f1(self) -> tuple[CodewordId, ...]:
        return self.failed_by_type.get(1, ())

    @property
    def f2(self) -> tuple[CodewordId, ...]:
        return self.failed_by_type.get(2, ())

    @property
    def total_failed(self) -> int:
        return sum(len(v) for v in self.failed_by_type.values())


@dataclass(frozen=True)
class PpResult:
    """Outcome of one post-processing attempt."""

    frame: np.ndarray
    success: bool
    f1_size: int
    f2_size: int
    intersection_size: int
    augmented: int = 0


def build_failure_report(state: DecoderState) -> FailureReport:
    """Summarize a terminal decoder state for post-processing.

    Works for any decoder variant: states built directly from a residual
    frame carry no anchors, so their suspicious set is empty and only the
    syndrome-based sets are populated.
    """
    layout = state.layout
    cws, partner, shared = _failed_codewords(state)
    by_type = {ty: [] for ty in range(1, layout.num_types + 1)}
    for c in cws.tolist():
        cid = layout.cw_id(c)
        by_type[cid.type_i].append(cid)
    return FailureReport(
        {ty: tuple(ids) for ty, ids in by_type.items()},
        _intersection(layout, cws, partner, shared),
        tuple(map(layout.cw_id, _suspicious_anchors(state))),
    )


def _failed_codewords(state: DecoderState) -> tuple[np.ndarray, ...]:
    """The failed codewords' indices, ascending, their ``partner_cw``
    rows, and which of those partners failed too (a bool row each)."""
    guard = np.array(state.syn + [0], dtype=bool)  # index -1: absent, never failed
    cws = np.flatnonzero(guard)
    partner = state.layout.partner_cw.take(cws, axis=0)
    return cws, partner, guard.take(partner)


def _intersection(layout: GpcLayout, cws, partner, shared) -> np.ndarray:
    """Every bit both of whose codewords failed, ascending, taken once,
    from the lower-index codeword of the two (see _failed_codewords)."""
    lower = shared & (partner > cws[:, None])
    bits = layout.cw_bits.take(cws, axis=0)[lower].astype(np.int64)
    bits.sort()
    return bits


def _suspicious_anchors(state: DecoderState) -> list[int]:
    """Anchors holding exactly t stored corrections, all in failed
    partners, ascending."""
    layout = state.layout
    t, n = layout.code.t, layout.code.n
    partner_cw, syn, status = layout.flat_partner_cw, state.syn, state.status
    found = []
    for c, pos in enumerate(state.anchor_pos):
        if pos and len(pos) == t and status[c] == ANCHOR:
            base = c * n
            for p in pos:
                k = partner_cw[base + p]
                if k < 0 or not syn[k]:
                    break
            else:
                found.append(c)
    return found


def _types_1_2(layout: GpcLayout, cws: list[int]) -> tuple[list[int], list[int]]:
    """The members of types 1 and 2 of an ascending list of codeword
    indices: on a two-type layout, the list split by type."""
    per_type = layout.per_type
    i, j = bisect_left(cws, per_type), bisect_left(cws, 2 * per_type)
    return cws[:i], cws[i:j]


def bitflip_iterate_pp(
    state: DecoderState,
    extra_iters: int,
    variant: str = "anchor",
) -> PpResult:
    """Flip the failed-intersection bits, then rerun the frame decoder.

    The resumed decoder starts from fresh bookkeeping: force-flipping bits
    invalidates the anchor/status state, so carrying it over would break
    the state invariants.  Suspicious anchors are deliberately ignored
    here; widening the flip set tends to hurt this variant.  The genie
    variant re-decodes against the all-zero reference codeword.
    """
    if extra_iters < 1:
        raise ValueError("extra_iters must be >= 1")
    layout = state.layout
    cws, partner, shared = _failed_codewords(state)
    inter = _intersection(layout, cws, partner, shared)
    flipped = state.frame.copy()
    flipped[inter] ^= 1
    if variant == "anchor":
        out, stats = anchor_decode(layout, flipped, extra_iters, state.delta)
    elif variant == "iterative":
        out, stats = iterative_bdd(layout, flipped, extra_iters)
    elif variant == "genie":
        out, stats = genie_decode(layout, flipped, None, extra_iters)
    else:
        raise ValueError(f"unknown decoder variant {variant!r}")
    f1, f2 = _types_1_2(layout, cws.tolist())
    return PpResult(out, stats.syndromes_zero, len(f1), len(f2), int(inter.size), 0)


def erasure_pp(
    state: DecoderState, rng: np.random.Generator | None = None
) -> PpResult:
    """Erase the failed-intersection bits and solve for them algebraically.

    Suspicious anchors are inserted into their type's failed set greedily,
    in the order drawn from ``rng`` (ascending codeword index when no rng
    is supplied), and an insertion is kept only while at least one failed
    set stays below d_min.  The erasure fixpoint then runs once on the
    augmented sets.  Success means every component syndrome reached zero;
    on failure the returned frame keeps whatever partial corrections the
    solver applied.
    """
    layout = state.layout
    cws, _, shared = _failed_codewords(state)
    failed = cws.tolist()
    f1, f2 = _types_1_2(layout, failed)
    # each intersection bit is a shared position of both its codewords
    sizes = (len(f1), len(f2), int(np.count_nonzero(shared)) // 2)
    if not failed:
        return PpResult(state.frame.copy(), True, *sizes, 0)
    # augmentation is a two-type construction
    candidates = _suspicious_anchors(state) if layout.num_types == 2 else []
    if candidates and rng is not None:
        candidates = [candidates[i] for i in rng.permutation(len(candidates))]
    chosen = _greedy_augment(layout, failed, candidates) if candidates else []
    frame, ok = _erasure_fixpoint(state, sorted(set(failed) | set(chosen)))
    return PpResult(frame, ok, *sizes, len(chosen))


def _greedy_augment(
    layout: GpcLayout, failed: list[int], ordered: list[int]
) -> list[int]:
    """Insert candidates one at a time while one failed set stays < d_min."""
    d_min = layout.code.d_min
    per_type = layout.per_type
    sizes = [len(group) for group in _types_1_2(layout, failed)]
    chosen = []
    for c in ordered:
        ty = c // per_type
        sizes[ty] += 1
        if min(sizes) < d_min:
            chosen.append(c)
        else:
            sizes[ty] -= 1
    return chosen


def _erasure_fixpoint(
    state: DecoderState, failed: list[int]
) -> tuple[np.ndarray, bool]:
    """Alternately erasure-decode the failed codewords until nothing moves;
    returns the frame reached and whether every syndrome is zero.

    Works on its own copies of the state's frame and syndrome list.  A
    member's erased positions are its bits shared with another member.
    Only members whose current syndrome is nonzero are solved, on that
    syndrome, and the returned positions are flipped in ascending order,
    each in the frame and in both owners' syndromes.  Augmented anchors
    start at zero and join once partner corrections disturb them.
    For two-type layouts the smaller failed set goes first; the pass count
    is capped so adversarial oscillating patterns still terminate.  The
    visit order and the cap come from every member.  A member's erased
    positions never change, so a member that no erasure solve can ever
    clear -- none erased, or more than ``erasures_solvable`` allows -- is
    then dropped before the first pass.
    """
    layout = state.layout
    code = layout.code
    member = np.zeros(layout.n_cw + 1, dtype=bool)  # last slot: absent partner
    member[failed] = True
    shared = member.take(layout.partner_cw.take(failed, axis=0))
    counts = np.count_nonzero(shared, axis=1)
    live = np.flatnonzero((counts > 0) & code.erasures_solvable(counts)).tolist()
    erased = {failed[i]: shared[i].nonzero()[0].tolist() for i in live}
    groups = [failed]
    if layout.num_types == 2:
        groups = sorted(_types_1_2(layout, failed), key=len)
    passes = max(2 * len(failed), 8)
    groups = [[c for c in group if c in erased] for group in groups]
    frame, syn = state.frame.copy(), state.syn.copy()
    n, contrib = code.n, code.contrib_packed
    cw_bits, partner_cw = layout.flat_cw_bits, layout.flat_partner_cw
    partner_pos = layout.flat_partner_pos
    for _ in range(passes):
        changed = False
        for group in groups:
            for c in group:
                if not syn[c]:
                    continue
                out = code.erasure_decode(syn[c], erased[c])
                if not out:
                    continue
                for p in out:
                    # an erased position is shared with another member,
                    # so its partner exists
                    i = c * n + p
                    frame[cw_bits[i]] ^= 1
                    syn[c] ^= contrib[p]
                    syn[partner_cw[i]] ^= contrib[partner_pos[i]]
                changed = True
        if not any(syn):
            return frame, True
        if not changed:
            return frame, False
    return frame, not any(syn)
