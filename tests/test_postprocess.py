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

from itertools import combinations, permutations

import numpy as np
import pytest

from gpcdec import (
    DecoderState,
    FailureReport,
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
from gpcdec.engine import ANCHOR, frame_syndromes
from gpcdec.postprocess import _greedy_augment
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
                    work.flip_bit(bits[c][int(p)])
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
        rep = build_failure_report(st)
        res = bitflip_iterate_pp(st, 1, variant="genie", report=rep)
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
            res = erasure_pp(st, report=rep)
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
            res = erasure_pp(st, rng, report=rep)
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
                m.setattr(postprocess, "_erasure_fixpoint", reference_erasure_fixpoint)
                want = pp_fields(run())
            assert got == want

    def test_anchor_stalls_at_operating_point(self, monkeypatch, pc195):
        rng = np.random.default_rng(8261)
        stalls = rescued = 0
        while stalls < 32:
            frame = (rng.random(pc195.n_bits) < 0.016).astype(np.uint8)
            st = anchor_decode_state(pc195, frame, 10)
            if st.stats.syndromes_zero:
                continue
            stalls += 1
            assert_same_report(st)
            self.assert_same(monkeypatch, st, stalls)
            rescued += erasure_pp(st, np.random.default_rng(stalls)).success
        assert 0 < rescued < stalls

    def test_staircase_stall(self, monkeypatch):
        code = build_component_code(4, 2, 1, 0)
        sc = build_staircase_layout(code, 6, 3)
        a = code.n // 2
        # block 2 as in test_staircase_frame_recovered; blocks 1 and 4 put
        # the stall on codewords that reach into a termination block
        for block in (2, 1, 4):
            frame = np.zeros(sc.n_bits, dtype=np.uint8)
            for r in STALL3:
                for c in STALL3:
                    frame[block * a * a + r * a + c] = 1
            st = stalled_state(sc, frame, 4)
            assert_same_report(st)
            self.assert_same(monkeypatch, st, block)
            assert_same_report(anchor_decode_state(sc, frame, 4))
        assert_same_report(DecoderState(sc, np.zeros(sc.n_bits, dtype=np.uint8)))

    def test_miscorrected_anchor_event(self, monkeypatch, event):
        # three suspicious anchors: the greedy rule augments all of them
        assert_same_report(event[0])
        self.assert_same(monkeypatch, event[0], 5)


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

    def test_conventional_pp_fails(self, event):
        st, rep = event
        assert not bitflip_iterate_pp(st, 2, variant="anchor").success
        bare = FailureReport(rep.failed_by_type, rep.intersection, ())
        assert not erasure_pp(st, report=bare).success

    def test_augmented_erasure_recovers(self, event):
        st, rep = event
        res = erasure_pp(st, np.random.default_rng(5), report=rep)
        assert res.success
        assert not res.frame.any()
        assert res.augmented == 3
        # deterministic given the rng seed
        res2 = erasure_pp(st, np.random.default_rng(5), report=rep)
        assert (res2.frame == res.frame).all()
        assert res2.augmented == res.augmented
        # input state never modified
        assert int(st.frame.sum()) == 18

    def test_every_insertion_order_recovers(self, event):
        st, rep = event
        for order in permutations(range(3)):
            res = erasure_pp(st, FixedOrder(order), report=rep)
            assert res.success, order
            assert not res.frame.any()
            assert res.augmented == 3

    def test_no_pair_of_anchors_suffices(self, event):
        st, rep = event
        for pair in combinations(rep.suspicious_anchors, 2):
            partial = FailureReport(rep.failed_by_type, rep.intersection, pair)
            res = erasure_pp(st, report=partial)
            assert not res.success, pair
            assert res.augmented == 2

    def test_greedy_augment_capacity_rule(self, pc15):
        # d_min = 5; failed = 3 columns, candidates = 7 rows then 4 columns.
        # Rows always keep min(|F1|, |F2|) = 3 < 5; the first extra column
        # is admitted at |F2| = 4, the next would reach (7, 5) and is not.
        failed = [15, 16, 17]
        ordered = list(range(7)) + [18, 19, 20, 21]
        chosen = _greedy_augment(pc15, failed, ordered)
        assert chosen == list(range(7)) + [18]
