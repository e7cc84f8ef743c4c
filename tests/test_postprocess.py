"""Post-processing tests.

Oracle constructions used below, all deterministic:

* minimal stall: a (t+1) x (t+1) error grid at BDD-fail rows/columns of the
  (15, 7) code; every incident codeword sees t+1 errors, so decoding stalls
  with the failed intersection exactly equal to the error support.
* empty-intersection failure: three rows carry the same weight-5 row
  codeword (support found by probing BDD with weight-3 patterns and frozen
  below), so all row syndromes are zero while five columns fail.
* miscorrected-anchor event on the (195, 178) code: three rows each take
  four channel errors inside a weight-6 codeword support; BDD moves them
  the remaining distance 2 onto that codeword, leaving zero-syndrome row
  anchors, six failed columns, and an empty intersection.  Only the
  anchor-aware augmentation can expose those rows to the erasure solver.
* random 6 x 6 stall: errors placed as a uniform 6 x 6 binary matrix with
  all row/column sums 3; every touched codeword holds 3 > t errors.
"""

from copy import deepcopy
from itertools import combinations, permutations

import numpy as np
import pytest

from gpcdec import (
    DecoderState,
    FailureReport,
    anchor_decode,
    anchor_decode_state,
    bitflip_iterate_pp,
    build_component_code,
    build_failure_report,
    build_product_layout,
    build_staircase_layout,
    erasure_pp,
    genie_decode,
)
from gpcdec import postprocess
from gpcdec.bch import ComponentCodeSpec
from gpcdec.engine import ANCHOR, FROZEN, frame_syndromes
from gpcdec.postprocess import _erasure_fixpoint, _greedy_augment
from test_bch import reference_erasure_decode

# frozen: weight-5 codeword support of the (15, 7) component code and
# weight-6 codeword support of the (195, 178) code, both re-derived in
# test_supports_are_codewords
W5_15 = (0, 1, 2, 9, 13)
W6_195 = (0, 1, 2, 3, 16, 98)

# rows/columns whose weight-3 syndrome is BDD-undecodable on the (15, 7)
# code (frozen in the engine tests); a 3 x 3 grid on them stalls decoding
STALL3 = (0, 1, 3)


@pytest.fixture(scope="module")
def pc15():
    return build_product_layout(build_component_code(4, 2, 0, 0))


@pytest.fixture(scope="module")
def pc195():
    return build_product_layout(build_component_code(8, 2, 1, 61))


def grid_frame(layout, rows, cols):
    n = layout.code.n
    frame = np.zeros(layout.n_bits, dtype=np.uint8)
    for r in rows:
        for c in cols:
            frame[r * n + c] = 1
    return frame


def find_near_codeword_support(code, probe):
    """Support of the codeword BDD miscorrects ``probe`` onto: probe plus
    the decoder's output, valid only when the two are disjoint."""
    s = 0
    for p in probe:
        s ^= code.contrib_packed[p]
    out = code.decode_packed(s, code.t)
    assert out and not (set(out) & set(probe))
    return tuple(sorted(set(probe) | set(out)))


def stalled_state(layout, frame, ell=8):
    out, stats = genie_decode(layout, frame, None, ell)
    assert not stats.syndromes_zero
    return DecoderState(layout, out)


def sample_regular_pattern(rng, side=6, weight=3):
    """Uniform side x side binary matrix with all row/col sums = weight,
    by rejection from independent uniform rows."""
    while True:
        m = np.zeros((side, side), dtype=np.uint8)
        for r in range(side):
            m[r, rng.choice(side, weight, replace=False)] = 1
        if (m.sum(axis=0) == weight).all():
            return m


def flip(work, bit):
    """Toggle one frame bit of a DecoderState and fold it into its
    incident syndromes, bypassing the status machine."""
    work._buf[bit] ^= 1
    layout, syn = work.layout, work.syn
    for c, pos in zip(layout.bit_cw[bit].tolist(), layout.bit_pos[bit].tolist()):
        if c >= 0:
            old = syn[c]
            syn[c] ^= layout.code.contrib_packed[pos]
            work.nonzero_count += (not old) - (not syn[c])


def on_rebuilt_state(fixpoint):
    """A reference fixpoint, which works on a DecoderState in place, in
    the form of _erasure_fixpoint: run on a state rebuilt from the
    frame, returning the frame reached and the verdict."""

    def run(state, failed):
        work = DecoderState(state.layout, state.frame)
        ok = fixpoint(work, failed)
        return work.frame, ok

    return run


def reference_erasure_fixpoint(work, failed):
    """The erasure fixpoint's former word-gather form: each solve reads
    the codeword's bits from the frame and completes them with the numpy
    elimination, then flips the positions that changed."""
    layout = work.layout
    code = layout.code
    fset = set(failed)
    partner = layout.partner_cw.tolist()
    bits = layout.cw_bits.tolist()
    erased = {
        c: [p for p in range(code.n) if partner[c][p] in fset] for c in failed
    }
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
                word = work.frame[layout.cw_bits[c]]
                out = reference_erasure_decode(code, word, pos)
                if out is None:
                    continue
                for p in np.nonzero(out != word)[0]:
                    flip(work, bits[c][int(p)])
                    changed = True
        if work.all_syndromes_zero():
            return True
        if not changed:
            return False
    return work.all_syndromes_zero()


def reference_failure_report(state):
    """build_failure_report's former loops: the failed mask from a list,
    the intersection from every bit's two codewords, and the suspicious
    anchors from the list view of partner_cw."""
    layout = state.layout
    t = layout.code.t
    failed = np.array([s != 0 for s in state.syn], dtype=bool)
    by_type = {}
    for ty in range(1, layout.num_types + 1):
        lo = (ty - 1) * layout.per_type
        members = np.nonzero(failed[lo : lo + layout.per_type])[0] + lo
        by_type[ty] = tuple(layout.cw_id(int(c)) for c in members)
    guard = np.append(failed, False)
    inter = np.nonzero(guard[layout.bit_cw[:, 0]] & guard[layout.bit_cw[:, 1]])[0]
    partner = layout.partner_cw.tolist()
    suspicious = []
    for c in range(layout.n_cw):
        if state.status[c] != ANCHOR:
            continue
        pos = state.anchor_pos[c]
        if pos is None or len(pos) != t:
            continue
        if all(guard[partner[c][p]] for p in pos):
            suspicious.append(layout.cw_id(c))
    return FailureReport(by_type, inter.astype(np.int64), tuple(suspicious))


def reference_packed_fixpoint(work, failed):
    """The packed-syndrome erasure fixpoint before it dropped members that
    can never be solved: every member with an erased position and a
    nonzero syndrome is solved on every pass."""
    layout = work.layout
    code = layout.code
    member = np.zeros(layout.n_cw + 1, dtype=bool)
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
                if work.syn[c] == 0 or not erased[c]:
                    continue
                out = code.erasure_decode(work.syn[c], erased[c])
                if not out:
                    continue
                for p in out:
                    flip(work, int(layout.cw_bits[c][p]))
                changed = True
        if work.all_syndromes_zero():
            return True
        if not changed:
            return False
    return work.all_syndromes_zero()


def reference_erasure_pp(state, rng=None):
    """erasure_pp's former body: the failed sets and the suspicious
    anchors mapped back from the report's CodewordIds, a work state
    rebuilt from the frame, and the fixpoint that solves every member."""
    report = reference_failure_report(state)
    layout = state.layout
    f1_size, f2_size = len(report.f1), len(report.f2)
    isize = int(report.intersection.size)
    failed = sorted(
        layout.cw_index(cid) for group in report.failed_by_type.values() for cid in group
    )
    if not failed:
        return postprocess.PpResult(state.frame.copy(), True, f1_size, f2_size, isize, 0)
    candidates = []
    if layout.num_types == 2:
        candidates = sorted(layout.cw_index(c) for c in report.suspicious_anchors)
    if candidates and rng is not None:
        candidates = [candidates[i] for i in rng.permutation(len(candidates))]
    chosen = _greedy_augment(layout, failed, candidates) if candidates else []
    work = DecoderState(layout, state.frame)
    ok = reference_packed_fixpoint(work, sorted(set(failed) | set(chosen)))
    return postprocess.PpResult(work.frame, ok, f1_size, f2_size, isize, len(chosen))


def reference_bitflip_pp(state, extra_iters):
    """bitflip_iterate_pp's anchor variant from the reference report:
    flip its intersection, then rerun anchor decoding."""
    report = reference_failure_report(state)
    flipped = state.frame.copy()
    flipped[report.intersection] ^= 1
    out, stats = anchor_decode(state.layout, flipped, extra_iters, state.delta)
    return postprocess.PpResult(
        out, stats.syndromes_zero, len(report.f1), len(report.f2),
        int(report.intersection.size), 0,
    )


def operating_point_stalls(layout, seed, count, p=0.016, ell=10):
    """The first ``count`` anchor-decoder stalls of frames drawn at p."""
    rng = np.random.default_rng(seed)
    stalls = []
    while len(stalls) < count:
        frame = (rng.random(layout.n_bits) < p).astype(np.uint8)
        st = anchor_decode_state(layout, frame, ell)
        if not st.stats.syndromes_zero:
            stalls.append(st)
    return stalls


def staircase_stalls():
    """Stalls of a 3 x 3 grid of errors in blocks 2, 1 and 4 of a
    (16, 7) staircase; blocks 1 and 4 put the stall on codewords that
    reach into a termination block."""
    code = build_component_code(4, 2, 1, 0)
    sc = build_staircase_layout(code, 6, 3)
    a = code.n // 2
    for block in (2, 1, 4):
        frame = np.zeros(sc.n_bits, dtype=np.uint8)
        for r in STALL3:
            for c in STALL3:
                frame[block * a * a + r * a + c] = 1
        yield block, frame, stalled_state(sc, frame, 4)


def assert_same_report(state):
    got, want = build_failure_report(state), reference_failure_report(state)
    assert got.failed_by_type == want.failed_by_type
    assert got.intersection.dtype == want.intersection.dtype
    assert np.array_equal(got.intersection, want.intersection)
    assert got.suspicious_anchors == want.suspicious_anchors


def pp_fields(res):
    return (
        res.frame.tobytes(), res.success, res.f1_size, res.f2_size,
        res.intersection_size, res.augmented,
    )


def test_supports_are_codewords(pc15, pc195):
    assert find_near_codeword_support(pc15.code, (0, 1, 2)) == W5_15
    assert find_near_codeword_support(pc195.code, (0, 1, 2, 3)) == W6_195
    for code, supp in ((pc15.code, W5_15), (pc195.code, W6_195)):
        acc = 0
        for p in supp:
            acc ^= code.contrib_packed[p]
        assert acc == 0, "support is not a codeword"


class TestFailureReport:
    def test_fully_decoded_frame_all_sets_empty(self, pc15):
        frame = np.zeros(pc15.n_bits, dtype=np.uint8)
        frame[[3, 40]] = 1  # correctable
        st = anchor_decode_state(pc15, frame, 4)
        assert st.stats.syndromes_zero
        rep = build_failure_report(st)
        assert rep.f1 == () and rep.f2 == ()
        assert rep.total_failed == 0
        assert rep.intersection.size == 0
        assert rep.suspicious_anchors == ()

    def test_minimal_stall_sets(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, STALL3, STALL3))
        rep = build_failure_report(st)
        assert [c.index_j - 1 for c in rep.f1] == list(STALL3)
        assert [c.index_j - 1 for c in rep.f2] == list(STALL3)
        assert all(c.type_i == 1 for c in rep.f1)
        assert all(c.type_i == 2 for c in rep.f2)
        n = pc15.code.n
        want = sorted(r * n + c for r in STALL3 for c in STALL3)
        assert rep.intersection.tolist() == want
        assert rep.suspicious_anchors == ()  # state has no anchors

    def test_staircase_report_and_pinned_exclusion(self):
        code = build_component_code(4, 2, 1, 0)
        sc = build_staircase_layout(code, 6, 3)
        a = code.n // 2
        frame = np.zeros(sc.n_bits, dtype=np.uint8)
        for r in STALL3:
            for c in STALL3:
                frame[2 * a * a + r * a + c] = 1  # block 2, interior
        st = stalled_state(sc, frame, 4)
        rep = build_failure_report(st)
        sizes = {ty: len(v) for ty, v in rep.failed_by_type.items()}
        assert sizes == {1: 0, 2: 3, 3: 3, 4: 0, 5: 0}
        assert rep.intersection.size == 9
        assert not sc.pinned[rep.intersection].any()


class TestBitflipPp:
    def test_minimal_stall_cleared_in_one_iteration(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, STALL3, STALL3))
        res = bitflip_iterate_pp(st, 1, variant="genie")
        assert res.success
        assert not res.frame.any()
        assert (res.f1_size, res.f2_size, res.intersection_size) == (3, 3, 9)
        assert res.augmented == 0

    def test_anchor_and_iterative_variants_clear_it_too(self, pc15):
        frame = grid_frame(pc15, STALL3, STALL3)
        st = anchor_decode_state(pc15, frame, 8)
        assert not st.stats.syndromes_zero
        for variant in ("anchor", "iterative"):
            res = bitflip_iterate_pp(st, 2, variant=variant)
            assert res.success and not res.frame.any()

    def test_empty_intersection_resumes_and_fails_again(self, pc15):
        # three rows carrying the same row codeword: row syndromes stay
        # zero, the five support columns fail, and the intersection is empty
        frame = grid_frame(pc15, (0, 2, 3), W5_15)
        st = stalled_state(pc15, frame)
        rep = build_failure_report(st)
        assert rep.f1 == () and len(rep.f2) == 5
        assert rep.intersection.size == 0
        res = bitflip_iterate_pp(st, 3, variant="genie")
        assert not res.success
        assert (res.frame == st.frame).all()

    def test_input_state_untouched(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, STALL3, STALL3))
        before = st.frame.copy()
        bitflip_iterate_pp(st, 2, variant="genie")
        assert (st.frame == before).all()
        assert st.syn == frame_syndromes(st.layout, st.frame)

    def test_validation(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, STALL3, STALL3))
        with pytest.raises(ValueError):
            bitflip_iterate_pp(st, 0)
        with pytest.raises(ValueError):
            bitflip_iterate_pp(st, 2, variant="magic")

    def test_statistical_rescue_at_fixed_p(self, pc15):
        """Paired frames at p = 0.2: post-processing strictly lowers the
        frame failure count and never un-decodes a frame."""
        rng = np.random.default_rng(77)
        fails = rescues = 0
        for _ in range(300):
            frame = (rng.random(pc15.n_bits) < 0.2).astype(np.uint8)
            out, stats = genie_decode(pc15, frame, None, 8)
            if stats.syndromes_zero:
                continue
            fails += 1
            res = bitflip_iterate_pp(DecoderState(pc15, out), 4, variant="genie")
            if res.success:
                assert not res.frame.any()
                rescues += 1
        assert fails == 90
        assert rescues == 35
        assert 0 < rescues < fails

    def test_six_by_six_pattern_defeats_bitflip(self, pc195):
        """Flipping the full 36-bit intersection replaces a 3-regular error
        pattern by its complement, which is 3-regular again."""
        rng = np.random.default_rng(11)
        m = sample_regular_pattern(rng)
        rows = rng.choice(pc195.code.n, 6, replace=False)
        cols = rng.choice(pc195.code.n, 6, replace=False)
        frame = np.zeros(pc195.n_bits, dtype=np.uint8)
        for i in range(6):
            for j in range(6):
                if m[i, j]:
                    frame[rows[i] * pc195.code.n + cols[j]] = 1
        st = stalled_state(pc195, frame, 4)
        res = bitflip_iterate_pp(st, 2, variant="genie")
        assert not res.success


class TestErasurePp:
    def test_minimal_stall_recovered(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, STALL3, STALL3))
        res = erasure_pp(st)
        assert res.success
        assert not res.frame.any()
        assert res.augmented == 0

    def test_no_failures_is_identity_success(self, pc15):
        frame = np.zeros(pc15.n_bits, dtype=np.uint8)
        st = DecoderState(pc15, frame)
        res = erasure_pp(st)
        assert res.success
        assert (res.frame == frame).all()
        assert res.f1_size == res.f2_size == res.intersection_size == 0

    def test_empty_intersection_fails(self, pc15):
        st = stalled_state(pc15, grid_frame(pc15, (0, 2, 3), W5_15))
        res = erasure_pp(st)
        assert not res.success

    def test_random_six_by_six_stalls_recovered(self, pc195):
        rng = np.random.default_rng(2024)
        n = pc195.code.n
        for _ in range(20):
            m = sample_regular_pattern(rng)
            rows = rng.choice(n, 6, replace=False)
            cols = rng.choice(n, 6, replace=False)
            frame = np.zeros(pc195.n_bits, dtype=np.uint8)
            for i in range(6):
                for j in range(6):
                    if m[i, j]:
                        frame[rows[i] * n + cols[j]] = 1
            st = stalled_state(pc195, frame, 4)
            rep = build_failure_report(st)
            assert len(rep.f1) == len(rep.f2) == 6
            assert rep.intersection.size == 36
            res = erasure_pp(st)
            assert res.success
            assert not res.frame.any()

    def test_never_flips_outside_failed_intersection(self, pc15):
        rng = np.random.default_rng(5150)
        checked = 0
        while checked < 12:
            frame = (rng.random(pc15.n_bits) < 0.22).astype(np.uint8)
            st = anchor_decode_state(pc15, frame, 6)
            if st.stats.syndromes_zero:
                continue
            checked += 1
            rep = build_failure_report(st)
            res = erasure_pp(st, rng)
            involved = {
                pc15.cw_index(cid)
                for group in rep.failed_by_type.values()
                for cid in group
            } | {pc15.cw_index(cid) for cid in rep.suspicious_anchors}
            for b in np.nonzero(res.frame != st.frame)[0]:
                owners = set(pc15.bit_cw[b].tolist())
                assert owners <= involved, (
                    f"bit {b} flipped outside the augmented intersection"
                )

    def test_input_state_untouched(self, pc195, event):
        """On the miscorrected-anchor event (anchors, no frozen codeword)
        and on an operating-point stall with frozen codewords and
        conflicts."""
        rng = np.random.default_rng(3)
        for _ in range(100):  # frame 85 is the first
            frame = (rng.random(pc195.n_bits) < 0.016).astype(np.uint8)
            stall = anchor_decode_state(pc195, frame, 10)
            moved = not np.array_equal(erasure_pp(stall).frame, stall.frame)
            if moved and stall.conflicts and FROZEN in stall.status:
                break
        else:
            pytest.fail("no stall with conflicts that erasure_pp changes")
        for st in (event[0], stall):
            before = (
                st.frame.copy(), list(st.syn), st.nonzero_count, list(st.status),
                list(st.anchor_pos), deepcopy(dict(st.conflicts)), deepcopy(st.stats),
            )
            res = erasure_pp(st, np.random.default_rng(5))
            assert not np.array_equal(res.frame, st.frame)  # the work state moved
            assert np.array_equal(st.frame, before[0])
            assert st.syn == before[1] == frame_syndromes(pc195, st.frame)
            assert st.nonzero_count == before[2]
            assert st.status == before[3]
            assert st.anchor_pos == before[4]
            assert dict(st.conflicts) == before[5]
            assert st.stats == before[6]
            assert not np.shares_memory(res.frame, st.frame)

    def test_staircase_frame_recovered(self):
        code = build_component_code(4, 2, 1, 0)
        sc = build_staircase_layout(code, 6, 3)
        a = code.n // 2
        frame = np.zeros(sc.n_bits, dtype=np.uint8)
        for r in STALL3:
            for c in STALL3:
                frame[2 * a * a + r * a + c] = 1
        st = stalled_state(sc, frame, 4)
        res = erasure_pp(st)
        assert res.success
        assert not res.frame.any()


class TestErasureFixpointMatchesReference:
    """erasure_pp with the packed-syndrome fixpoint returns exactly what
    the word-gather fixpoint returns, with and without an rng order."""

    @staticmethod
    def assert_same(monkeypatch, state, seed):
        runs = (
            lambda: erasure_pp(state, np.random.default_rng(seed)),
            lambda: erasure_pp(state),
        )
        for run in runs:
            got = pp_fields(run())
            with monkeypatch.context() as m:
                m.setattr(
                    postprocess, "_erasure_fixpoint",
                    on_rebuilt_state(reference_erasure_fixpoint),
                )
                want = pp_fields(run())
            assert got == want

    def test_anchor_stalls_at_operating_point(self, monkeypatch, pc195):
        stalls = operating_point_stalls(pc195, 8261, 32)
        rescued = 0
        for i, st in enumerate(stalls, 1):
            assert_same_report(st)
            self.assert_same(monkeypatch, st, i)
            rescued += erasure_pp(st, np.random.default_rng(i)).success
        assert 0 < rescued < len(stalls)

    def test_staircase_stall(self, monkeypatch):
        for block, frame, st in staircase_stalls():
            assert_same_report(st)
            self.assert_same(monkeypatch, st, block)
            assert_same_report(anchor_decode_state(st.layout, frame, 4))
        sc = st.layout
        assert_same_report(DecoderState(sc, np.zeros(sc.n_bits, dtype=np.uint8)))

    def test_miscorrected_anchor_event(self, monkeypatch, event):
        # three suspicious anchors: the greedy rule augments all of them
        assert_same_report(event[0])
        self.assert_same(monkeypatch, event[0], 5)


class TestErasurePpMatchesReference:
    """erasure_pp returns exactly what its former body returns: the index
    form of the report, the fixpoint's own frame and syndrome copies and
    the dropped members change no output.  bitflip_iterate_pp returns the same as a flip of
    the reference report's intersection and an anchor re-decode."""

    @staticmethod
    def assert_same(state, seed):
        assert_same_report(state)
        for rng in (lambda: np.random.default_rng(seed), lambda: None):
            got = pp_fields(erasure_pp(state, rng()))
            assert got == pp_fields(reference_erasure_pp(state, rng()))
        got = pp_fields(bitflip_iterate_pp(state, 4))
        assert got == pp_fields(reference_bitflip_pp(state, 4))

    @pytest.mark.parametrize("seed", [8261, 7])
    def test_anchor_stalls_at_operating_point(self, pc195, seed):
        stalls = operating_point_stalls(pc195, seed, 64)
        rescued = 0
        for i, st in enumerate(stalls):
            self.assert_same(st, i)
            rescued += erasure_pp(st, np.random.default_rng(i)).success
        assert 0 < rescued < len(stalls)

    def test_staircase_stalls(self):
        for block, _, st in staircase_stalls():
            self.assert_same(st, block)

    def test_miscorrected_anchor_event(self, event):
        self.assert_same(event[0], 5)

    def test_hopeless_members_never_solved(self, monkeypatch, pc195):
        """erasure_decode is called for no member with more erased
        positions than syndrome bits, and for every other member the
        fixpoint that solves every member calls it for, in the same
        order: a prune that dropped a solvable member would show."""
        calls = []
        solve = ComponentCodeSpec.erasure_decode

        def spy(code, syndrome, erasures):
            calls.append((int(syndrome), tuple(erasures)))
            return solve(code, syndrome, erasures)

        monkeypatch.setattr(ComponentCodeSpec, "erasure_decode", spy)
        bits = pc195.code.packed_bits
        hopeless = solvable = 0
        for i, st in enumerate(operating_point_stalls(pc195, 8261, 32)):
            for rng in (lambda: np.random.default_rng(i), lambda: None):
                calls.clear()
                erasure_pp(st, rng())
                got = list(calls)
                calls.clear()
                reference_erasure_pp(st, rng())
                want = [call for call in calls if len(call[1]) <= bits]
                assert all(len(e) <= bits for _, e in got)
                assert got == want
                hopeless += len(calls) - len(want)
                solvable += len(want)
        assert hopeless > 10 * solvable > 0


MISCORRECTED_ROWS = (2, 7, 11)


@pytest.fixture(scope="module")
def event(pc195):
    """Three miscorrected row anchors on the (195, 178) product code: the
    event conventional post-processing cannot touch."""
    n = pc195.code.n
    frame = np.zeros(pc195.n_bits, dtype=np.uint8)
    for r in MISCORRECTED_ROWS:
        for c in W6_195[:4]:
            frame[r * n + c] = 1
    st = anchor_decode_state(pc195, frame, 6)
    assert not st.stats.syndromes_zero
    return st, build_failure_report(st)


class FixedOrder:
    """Stands in for the rng: hands erasure_pp one fixed insertion order."""

    def __init__(self, order):
        self.order = order

    def permutation(self, n):
        assert n == len(self.order)
        return np.array(self.order)


class TestAnchorAwareAugmentation:
    ROWS = MISCORRECTED_ROWS

    def test_report_shape(self, pc195, event):
        st, rep = event
        assert rep.f1 == ()
        assert tuple(c.index_j - 1 for c in rep.f2) == W6_195
        assert rep.intersection.size == 0
        assert tuple(c.index_j - 1 for c in rep.suspicious_anchors) == self.ROWS
        assert all(c.type_i == 1 for c in rep.suspicious_anchors)
        # the three anchors hold exactly t stored corrections each
        for cid in rep.suspicious_anchors:
            pos = st.anchor_pos[pc195.cw_index(cid)]
            assert len(pos) == pc195.code.t

    def test_conventional_pp_fails(self, pc195, event):
        # erasure decoding of the failed columns alone, with no anchor added
        st, rep = event
        assert not bitflip_iterate_pp(st, 2, variant="anchor").success
        failed = [pc195.cw_index(c) for c in rep.f2]
        assert not _erasure_fixpoint(st, failed)[1]

    def test_augmented_erasure_recovers(self, event):
        st, rep = event
        res = erasure_pp(st, np.random.default_rng(5))
        assert res.success
        assert not res.frame.any()
        assert res.augmented == 3
        # deterministic given the rng seed
        res2 = erasure_pp(st, np.random.default_rng(5))
        assert (res2.frame == res.frame).all()
        assert res2.augmented == res.augmented
        # input state never modified
        assert int(st.frame.sum()) == 18

    def test_every_insertion_order_recovers(self, event):
        st, rep = event
        for order in permutations(range(3)):
            res = erasure_pp(st, FixedOrder(order))
            assert res.success, order
            assert not res.frame.any()
            assert res.augmented == 3

    def test_no_pair_of_anchors_suffices(self, pc195, event):
        st, rep = event
        failed = [pc195.cw_index(c) for c in rep.f2]
        anchors = [pc195.cw_index(c) for c in rep.suspicious_anchors]
        for pair in combinations(anchors, 2):
            assert _greedy_augment(pc195, failed, list(pair)) == list(pair)
            assert not _erasure_fixpoint(st, sorted(failed + list(pair)))[1], pair

    def test_greedy_augment_capacity_rule(self, pc15):
        # d_min = 5; failed = 3 columns, candidates = 7 rows then 4 columns.
        # Rows always keep min(|F1|, |F2|) = 3 < 5; the first extra column
        # is admitted at |F2| = 4, the next would reach (7, 5) and is not.
        failed = [15, 16, 17]
        ordered = list(range(7)) + [18, 19, 20, 21]
        chosen = _greedy_augment(pc15, failed, ordered)
        assert chosen == list(range(7)) + [18]
