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

Both helpers leave the input state untouched and return a ``PpResult``
holding the rescued frame plus the counters the sim harness serializes.

Everything works on the decoder state's packed syndromes and the layout's
index arrays.  ``build_failure_report`` takes the failed mask from the
syndromes in one numpy op and the intersection from the failed codewords'
``partner_cw`` rows.  The erasure solver, ``ComponentCodeSpec.erasure_decode``,
takes a codeword's packed syndrome plus its erased positions and returns
the positions to flip, so no codeword is gathered from the frame.  A
codeword with more erased positions than syndrome bits has dependent
columns and is skipped at once, which is the common case when the failed
sets are large.
"""

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
    t = layout.code.t
    per_type = layout.per_type
    failed = np.array(state.syn, dtype=np.int64) != 0
    guard = np.append(failed, False)  # index -1 = absent partner, never failed
    cws = np.flatnonzero(failed)
    type_of, index_of = np.divmod(cws, per_type)
    ids = list(map(CodewordId, (type_of + 1).tolist(), (index_of + 1).tolist()))
    n_types = layout.num_types
    bounds = np.searchsorted(cws, np.arange(n_types + 1) * per_type).tolist()
    by_type = {ty: tuple(ids[bounds[ty - 1] : bounds[ty]]) for ty in range(1, n_types + 1)}
    # every bit of a failed codeword whose partner failed too, taken once,
    # from the lower-index codeword of the two
    partner = layout.partner_cw[cws]
    shared = guard[partner] & (partner > cws[:, None])
    inter = np.sort(layout.cw_bits[cws][shared]).astype(np.int64)
    # anchors holding exactly t stored corrections, all in failed partners
    full = [
        c
        for c, (st, pos) in enumerate(zip(state.status, state.anchor_pos))
        if st == ANCHOR and pos is not None and len(pos) == t
    ]
    suspicious = ()
    if full:
        pos = np.array([state.anchor_pos[c] for c in full])
        hit = guard[layout.partner_cw[np.array(full)[:, None], pos]].all(axis=1)
        suspicious = tuple(layout.cw_id(c) for c, h in zip(full, hit.tolist()) if h)
    return FailureReport(by_type, inter, suspicious)


def bitflip_iterate_pp(
    state: DecoderState,
    extra_iters: int,
    variant: str = "anchor",
    true_frame: np.ndarray | None = None,
    report: FailureReport | None = None,
) -> PpResult:
    """Flip the failed-intersection bits, then rerun the frame decoder.

    The resumed decoder starts from fresh bookkeeping: force-flipping bits
    invalidates the anchor/status state, so carrying it over would break
    the state invariants.  Suspicious anchors are deliberately ignored
    here; widening the flip set tends to hurt this variant.
    ``true_frame`` is only consulted by the genie variant.
    """
    if extra_iters < 1:
        raise ValueError("extra_iters must be >= 1")
    if report is None:
        report = build_failure_report(state)
    layout = state.layout
    flipped = state.frame.copy()
    flipped[report.intersection] ^= 1
    if variant == "anchor":
        out, stats = anchor_decode(layout, flipped, extra_iters, state.delta)
    elif variant == "iterative":
        out, stats = iterative_bdd(layout, flipped, extra_iters)
    elif variant == "genie":
        out, stats = genie_decode(layout, flipped, true_frame, extra_iters)
    else:
        raise ValueError(f"unknown decoder variant {variant!r}")
    return PpResult(
        out,
        stats.syndromes_zero,
        len(report.f1),
        len(report.f2),
        int(report.intersection.size),
        0,
    )


def erasure_pp(
    state: DecoderState,
    rng: np.random.Generator | None = None,
    report: FailureReport | None = None,
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
    if report is None:
        report = build_failure_report(state)
    layout = state.layout
    f1_size, f2_size = len(report.f1), len(report.f2)
    isize = int(report.intersection.size)
    failed = sorted(
        layout.cw_index(cid)
        for group in report.failed_by_type.values()
        for cid in group
    )
    if not failed:
        return PpResult(state.frame.copy(), True, f1_size, f2_size, isize, 0)
    candidates = []
    if layout.num_types == 2:  # augmentation is a two-type construction
        candidates = sorted(layout.cw_index(c) for c in report.suspicious_anchors)
    if candidates and rng is not None:
        candidates = [candidates[i] for i in rng.permutation(len(candidates))]
    chosen = _greedy_augment(layout, failed, candidates) if candidates else []
    work = DecoderState(layout, state.frame)
    ok = _erasure_fixpoint(work, sorted(set(failed) | set(chosen)))
    return PpResult(work.frame, ok, f1_size, f2_size, isize, len(chosen))


def _greedy_augment(
    layout: GpcLayout, failed: list[int], ordered: list[int]
) -> list[int]:
    """Insert candidates one at a time while one failed set stays < d_min."""
    d_min = layout.code.d_min
    per_type = layout.per_type
    sizes = [0, 0]
    for c in failed:
        sizes[c // per_type] += 1
    chosen = []
    for c in ordered:
        ty = c // per_type
        sizes[ty] += 1
        if min(sizes) < d_min:
            chosen.append(c)
        else:
            sizes[ty] -= 1
    return chosen


def _erasure_fixpoint(work: DecoderState, failed: list[int]) -> bool:
    """Alternately erasure-decode the failed codewords until nothing moves.

    A member's erased positions are its bits shared with another member.
    Only members whose current syndrome is nonzero are solved, on that
    syndrome, and the returned positions are flipped in ascending order.
    Augmented anchors start at zero and join once partner corrections
    disturb them.
    For two-type layouts the smaller failed set goes first; the pass count
    is capped so adversarial oscillating patterns still terminate.
    """
    layout = work.layout
    code = layout.code
    member = np.zeros(layout.n_cw + 1, dtype=bool)  # last slot: absent partner
    member[failed] = True
    shared = member[layout.partner_cw[failed]]
    erased = {c: row.nonzero()[0].tolist() for c, row in zip(failed, shared)}
    if layout.num_types == 2:
        per_type = layout.per_type
        groups = [
            [c for c in failed if c < per_type],
            [c for c in failed if c >= per_type],
        ]
        groups.sort(key=len)
    else:
        groups = [failed]
    for _ in range(max(2 * len(failed), 8)):
        changed = False
        for group in groups:
            for c in group:
                if work.syn[c] == 0:
                    continue
                pos = erased[c]
                if not pos:
                    continue
                out = code.erasure_decode(work.syn[c], pos)
                if not out:
                    continue
                bits = layout.cw_bits[c]
                for p in out:
                    work.flip_bit(int(bits[p]))
                changed = True
        if work.all_syndromes_zero():
            return True
        if not changed:
            return False
    return work.all_syndromes_zero()
