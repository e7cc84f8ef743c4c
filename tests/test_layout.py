"""Layout incidence and schedule tests."""

import numpy as np
import pytest

import schedule_oracle
from bch_oracle import support_syndrome
from gpcdec.bch import build_component_code
from gpcdec.engine import DecodeStats, _run_schedule, check_schedule
from gpcdec.layout import (
    CodewordId,
    GpcLayout,
    build_product_layout,
    build_staircase_layout,
    code_rate,
)


def incident(layout, bit):
    """The codewords covering a bit, read from bit_cw."""
    return tuple(layout.cw_id(int(c)) for c in layout.bit_cw[bit] if c >= 0)


def reference_incidence(cw_bits, n_bits):
    """bit_cw/bit_pos by the per-slot loop: slots fill a bit's two columns
    in row-major order of cw_bits."""
    bit_cw = np.full((n_bits, 2), -1, dtype=np.int32)
    bit_pos = np.full((n_bits, 2), -1, dtype=np.int32)
    fill = np.zeros(n_bits, dtype=np.int8)
    for c in range(cw_bits.shape[0]):
        for p in range(cw_bits.shape[1]):
            b = cw_bits[c, p]
            k = fill[b]
            if k >= 2:
                raise ValueError(f"bit {b} covered more than twice")
            bit_cw[b, k] = c
            bit_pos[b, k] = p
            fill[b] = k + 1
    if (fill == 0).any():
        raise ValueError("uncovered bit in layout")
    return bit_cw, bit_pos


def reference_partners(cw_bits, n_bits):
    """partner_cw/partner_pos by the per-slot loop: the other (codeword,
    position) of each slot's bit in reference_incidence, -1 for none."""
    bit_cw, bit_pos = (a.tolist() for a in reference_incidence(cw_bits, n_bits))
    partner_cw = np.full(cw_bits.shape, -1, dtype=np.int32)
    partner_pos = np.full(cw_bits.shape, -1, dtype=np.int32)
    for c, row in enumerate(cw_bits.tolist()):
        for p, b in enumerate(row):
            k = 1 if (bit_cw[b][0], bit_pos[b][0]) == (c, p) else 0
            partner_cw[c, p], partner_pos[c, p] = bit_cw[b][k], bit_pos[b][k]
    return partner_cw, partner_pos


def hand_made_layout(code, num_blocks, window, seed):
    """A staircase chain's incidence relabelled by hand: each type's
    codewords shuffled and every codeword's positions reversed.  The
    termination blocks' bits keep one owner each."""
    sc = build_staircase_layout(code, num_blocks, window)
    rng = np.random.default_rng(seed)
    order = np.concatenate([ty * sc.per_type + rng.permutation(sc.per_type)
                            for ty in range(sc.num_types)])
    return GpcLayout("staircase", code, sc.num_types, sc.per_type, sc.n_bits,
                     sc.cw_bits[order, ::-1], sc.pinned, window)


def reference_staircase_cw_bits(code, num_blocks):
    """cw_bits of a staircase chain by the row-by-row loop: codeword
    (m, r) runs down column r of block m-1, then across row r of block m."""
    n, a = code.n, code.n // 2
    cw_bits = np.empty(((num_blocks - 1) * a, n), dtype=np.int32)
    pos = np.arange(a, dtype=np.int32)
    for m in range(1, num_blocks):
        for r in range(a):
            row = cw_bits[(m - 1) * a + r]
            row[:a] = (m - 1) * a * a + pos * a + r
            row[a:] = m * a * a + r * a + pos
    return cw_bits


def flat_plan(layout, ell, reduced_t_iters=0):
    """The oracle's window_plans flattened: one entry per half-iteration."""
    return [h for plan in schedule_oracle.window_plans(layout, ell, reduced_t_iters)
            for h in plan]


def walk(layout, ell, reduced_t_iters=0):
    """The schedule as ``_run_schedule`` computes it: every (cw_indices, budget,
    reset_failed) that ``_run_schedule`` passes to a half-iteration that
    always reports a change, so no window position ends early; and the
    half-iterations it counted."""
    seen = []
    stats = DecodeStats()

    def half_iteration(cws, budget, reset):
        seen.append(schedule_oracle.HalfIteration(cws, budget, reset))
        return 1

    _run_schedule(layout, ell, reduced_t_iters, stats, half_iteration, lambda: False)
    assert stats.half_iterations == len(seen)
    return seen


@pytest.fixture(scope="module")
def code15():
    return build_component_code(4, 2, 0, 0)


@pytest.fixture(scope="module")
def code16():
    return build_component_code(4, 2, 1, 0)


@pytest.fixture(scope="module")
def pc(code15):
    return build_product_layout(code15)


@pytest.fixture(scope="module")
def sc(code16):
    # 3 real blocks of side 8 between two termination blocks
    return build_staircase_layout(code16, num_blocks=5, window=3)


class TestProductLayout:
    def test_counts(self, pc):
        assert pc.n_bits == 225
        assert pc.n_cw == 30
        assert pc.num_types == 2
        assert pc.n_counted_bits == 225
        assert not pc.pinned.any()

    def test_intersection_example(self, pc):
        # row 4 and column 13 cross at exactly one bit
        b = pc.cw_bits[pc.cw_index(CodewordId(1, 4)), 13 - 1]
        assert b == pc.cw_bits[pc.cw_index(CodewordId(2, 13)), 4 - 1]
        assert incident(pc, b) == (CodewordId(1, 4), CodewordId(2, 13))

    def test_every_bit_degree_two(self, pc):
        assert (pc.bit_cw >= 0).all()
        assert (pc.bit_cw[:, 0] != pc.bit_cw[:, 1]).all()

    def test_row_column_share_exactly_one_bit(self, pc):
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = int(rng.integers(1, 16))
            l = int(rng.integers(1, 16))
            row = set(pc.cw_bits[pc.cw_index(CodewordId(1, j))].tolist())
            col = set(pc.cw_bits[pc.cw_index(CodewordId(2, l))].tolist())
            assert len(row & col) == 1

    def test_incidence_roundtrip(self, pc):
        for b in range(pc.n_bits):
            for c, p in zip(pc.bit_cw[b], pc.bit_pos[b]):
                assert pc.cw_bits[c, p] == b

    def test_partner_arrays(self, pc):
        for c in range(pc.n_cw):
            for p in range(pc.code.n):
                q, qp = pc.partner_cw[c, p], pc.partner_pos[c, p]
                assert q >= 0 and q != c
                assert pc.cw_bits[q, qp] == pc.cw_bits[c, p]

    def test_schedule_alternates_types(self, pc):
        (ranges,) = pc.window_ranges
        sched = walk(pc, 1)
        assert [h.cw_indices for h in sched] == list(ranges)
        assert len(sched) == 2
        assert list(sched[0].cw_indices) == list(range(15))
        assert list(sched[1].cw_indices) == list(range(15, 30))

    def test_rate(self, pc):
        assert pc.rate == pytest.approx((7 / 15) ** 2)
        assert code_rate(pc.code, "product") == pc.rate

    def test_unknown_ids_rejected(self, pc):
        with pytest.raises(ValueError):
            pc.cw_index(CodewordId(3, 1))
        with pytest.raises(ValueError):
            pc.cw_index(CodewordId(1, 16))
        with pytest.raises(ValueError):
            pc.cw_id(30)
        with pytest.raises(ValueError):
            pc.cw_id(-1)


class TestStaircaseLayout:
    def test_counts(self, sc):
        a = 8
        assert sc.n_bits == 5 * a * a
        assert sc.num_types == 4
        assert sc.per_type == a
        assert sc.n_cw == 4 * a
        # termination blocks pinned, three data blocks counted
        assert sc.pinned.sum() == 2 * a * a
        assert sc.n_counted_bits == 3 * a * a

    @pytest.mark.parametrize(
        "args,num_blocks,window",
        [((4, 2, 1, 0), 5, 3), ((4, 2, 1, 0), 3, 2), ((5, 2, 1, 0), 8, 4),
         ((7, 2, 1, 0), 12, 6)],
    )
    def test_cw_bits_match_reference_loop(self, args, num_blocks, window):
        code = build_component_code(*args)
        lay = build_staircase_layout(code, num_blocks, window)
        want = reference_staircase_cw_bits(code, num_blocks)
        assert lay.cw_bits.dtype == np.int32 and lay.cw_bits.flags.c_contiguous
        assert np.array_equal(lay.cw_bits, want)

    def test_block_incidence(self, sc):
        # bit (r, c) of data block m sits at position a+c of codeword (m, r+1)
        # and position r of codeword (m+1, c+1)
        a = 8
        rng = np.random.default_rng(1)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            r = int(rng.integers(0, a))
            c = int(rng.integers(0, a))
            b = m * a * a + r * a + c
            assert sc.cw_bits[sc.cw_index(CodewordId(m, r + 1)), a + c] == b
            assert sc.cw_bits[sc.cw_index(CodewordId(m + 1, c + 1)), r] == b
            assert incident(sc, b) == (
                CodewordId(m, r + 1),
                CodewordId(m + 1, c + 1),
            )

    def test_termination_bits_degree_one_and_pinned(self, sc):
        a = 8
        first = incident(sc, 0)  # bit (0,0) of block 0
        assert len(first) == 1 and first[0].type_i == 1
        last = incident(sc, sc.n_bits - 1)
        assert len(last) == 1 and last[0].type_i == sc.num_types
        assert sc.pinned[: a * a].all() and sc.pinned[-a * a :].all()
        # codeword pinned masks match: type 1 first half, last type second half
        assert sc.cw_pinned[0, :a].all() and not sc.cw_pinned[0, a:].any()
        assert sc.cw_pinned[-1, a:].all() and not sc.cw_pinned[-1, :a].any()

    def test_data_bits_degree_two(self, sc):
        data = ~sc.pinned
        assert (sc.bit_cw[data] >= 0).all()

    def test_incidence_roundtrip(self, sc):
        for b in range(sc.n_bits):
            for c, p in zip(sc.bit_cw[b], sc.bit_pos[b]):
                if c >= 0:
                    assert sc.cw_bits[c, p] == b

    def test_window_schedule(self, sc):
        # 5 blocks, window 3: positions cover types (1,2), (2,3), (3,4)
        assert schedule_oracle.window_types(sc) == [[1, 2], [2, 3], [3, 4]]
        per = sc.per_type
        assert sc.window_ranges == tuple(
            tuple(range((ty - 1) * per, ty * per) for ty in types)
            for types in ([1, 2], [2, 3], [3, 4])
        )
        sched = walk(sc, 1)
        assert len(sched) == 6
        seen = [c for h in sched for c in h.cw_indices]
        assert set(seen) == set(range(sc.n_cw))

    def test_degenerate_window_is_product_like(self, code16):
        lay = build_staircase_layout(code16, num_blocks=3, window=3)
        assert schedule_oracle.window_types(lay) == [[1, 2]]
        assert lay.window_ranges == ((range(0, 8), range(8, 16)),)
        assert lay.num_types == 2
        # one real block: every data bit covered by one type-1 and one type-2
        data = np.nonzero(~lay.pinned)[0]
        types = {
            tuple(sorted(cid.type_i for cid in incident(lay, int(b))))
            for b in data
        }
        assert types == {(1, 2)}

    def test_parameter_validation(self, code15, code16):
        with pytest.raises(ValueError, match="even"):
            build_staircase_layout(code15, 5, 3)  # n = 15 odd
        with pytest.raises(ValueError):
            build_staircase_layout(code16, 5, 1)
        with pytest.raises(ValueError):
            build_staircase_layout(code16, 4, 5)  # window > num_blocks
        with pytest.raises(ValueError):
            build_staircase_layout(code16, 2, 2)  # no real block

    def test_sizes_beyond_int32_indices_refused(self):
        """Bit and slot indices are int32: a chain whose bits, or whose
        codeword slots (n per codeword), pass 2^31 - 1 is refused before
        anything is allocated.  600 blocks of side 2048 used to wrap to
        negative bit indices; blocks of side 64 reach the slot limit
        first, at 262145 blocks."""
        wide = build_component_code(12, 2, 1, 0)  # n = 4096, blocks of side 2048
        code = build_component_code(7, 2, 1, 0)  # n = 128, blocks of side 64
        for c, blocks, size, what in (
            (wide, 600, 600 * 2048**2, "bits"),
            (code, 600000, 600000 * 64**2, "bits"),
            (code, 262145, 262144 * 64 * 128, "codeword slots"),
        ):
            with pytest.raises(ValueError, match=f"has {size} {what}; at most 2147483647"):
                build_staircase_layout(c, blocks, 6)
        assert 262144 * 64 * 128 == 2**31

    def test_rate(self, sc):
        # interior staircase rate 1 - 2(n-k)/n with n=16, k=7: negative rate
        # codes are silly but the formula is what it is
        assert sc.rate == pytest.approx((2 * 7 - 16) / 16)
        assert code_rate(sc.code, "staircase") == sc.rate
        with pytest.raises(ValueError, match="even"):
            code_rate(build_component_code(4, 2), "staircase")  # n = 15 odd


class TestIterationPlan:
    """The schedule ``_run_schedule`` walks, against the stored plans of
    ``schedule_oracle``."""

    def test_product_plan_budgets_and_reset(self, pc):
        plan = walk(pc, ell=4, reduced_t_iters=2)
        assert plan == flat_plan(pc, 4, 2)
        assert len(plan) == 8
        budgets = [h.budget for h in plan]
        assert budgets == [1, 1, 1, 1, 2, 2, 2, 2]
        resets = [h.reset_failed for h in plan]
        assert resets == [False] * 4 + [True] + [False] * 3

    def test_no_reduced_phase_no_reset(self, pc):
        plan = walk(pc, 3)
        assert plan == flat_plan(pc, 3)
        assert all(h.budget == 2 for h in plan)
        assert not any(h.reset_failed for h in plan)

    def test_staircase_plan_structure(self, sc):
        plan = walk(sc, 2, 1)
        assert plan == flat_plan(sc, 2, 1)
        # 3 window positions x 2 iterations x 2 types
        assert len(plan) == 12
        # window position boundaries restart the reduced phase
        budgets = [h.budget for h in plan]
        assert budgets == [1, 1, 2, 2] * 3
        resets = [h.reset_failed for h in plan]
        assert resets == [False, False, True, False] * 3

    def test_last_reset_equals_scan_of_plans(self, pc, sc):
        """The entry of each window position where ``_run_schedule`` resets,
        against a scan of every oracle plan for the entry that carries
        reset_failed: the first after the reduced sweeps, or none where
        the reduced phase is empty or fills the plan."""
        for lay in (pc, sc):
            sweep = schedule_oracle.sweep_len(lay)
            positions = len(schedule_oracle.window_types(lay))
            for ell in range(1, 7):
                for reduced in range(ell + 1):
                    want = {schedule_oracle.last_reset(plan)
                            for plan in schedule_oracle.window_plans(lay, ell, reduced)}
                    assert want == {reduced * sweep if 0 < reduced < ell else -1}
                    plan = walk(lay, ell, reduced)
                    got = {i % (ell * sweep) for i, h in enumerate(plan) if h.reset_failed}
                    assert got == want - {-1}, (lay, ell, reduced)
                    assert sum(h.reset_failed for h in plan) == positions * len(got)

    @pytest.mark.parametrize(
        "args,num_blocks,window",
        [((4, 2, 0, 0), None, None), ((4, 2, 1, 0), 3, 2), ((4, 2, 1, 0), 3, 3),
         ((4, 2, 1, 0), 5, 3), ((4, 2, 1, 0), 6, 4), ((4, 2, 1, 0), 6, 6),
         ((5, 2, 1, 0), 8, 5)],
    )
    def test_walk_equals_oracle(self, args, num_blocks, window):
        """Every entry ``_run_schedule`` computes, and the half-iterations it
        counts, equal the oracle's stored plans, for ell 1-12 and every
        reduced phase, on a product and on staircases whose window runs
        from 2 blocks to the whole chain."""
        code = build_component_code(*args)
        if num_blocks is None:
            lay = build_product_layout(code)
        else:
            lay = build_staircase_layout(code, num_blocks, window)
        for ell in range(1, 13):
            for reduced in range(ell + 1):
                assert walk(lay, ell, reduced) == flat_plan(lay, ell, reduced), (ell, reduced)

    def test_visit_order_ascending(self, sc):
        for h in walk(sc, 3, 1):
            assert (np.diff(h.cw_indices) > 0).all()

    def test_bad_arguments(self, pc):
        """``_run_schedule`` refuses the schedule through check_schedule, with
        the oracle's errors and messages."""
        for ell, reduced, error, match in (
            (0, 0, ValueError, "ell must be >= 1"),
            (2, 3, ValueError, r"reduced_t_iters must lie in \[0, ell\]"),
            (2, -1, ValueError, r"reduced_t_iters must lie in \[0, ell\]"),
            (2.0, 0, TypeError, None),
            (2, 1.0, TypeError, None),
        ):
            for check in (
                lambda: check_schedule(ell, reduced),
                lambda: walk(pc, ell, reduced),
                lambda: schedule_oracle.window_plans(pc, ell, reduced),
            ):
                with pytest.raises(error, match=match):
                    check()
        assert check_schedule(np.int64(3), np.int32(1)) == (3, 1)

    def test_window_ranges_shared_per_type(self, pc, sc):
        """Every window position visits one type through one shared,
        contiguous range, and the walk passes those very objects."""
        for lay in (pc, sc):
            per = lay.per_type
            ranges = {r for position in lay.window_ranges for r in position}
            assert ranges == {range(ty * per, (ty + 1) * per) for ty in range(lay.num_types)}
            by_start = {}
            for position in lay.window_ranges:
                for r in position:
                    assert by_start.setdefault(r.start, r) is r
            for h in walk(lay, 3, 1):
                assert by_start[h.cw_indices.start] is h.cw_indices
        # bad arguments are still refused after good ones ran
        with pytest.raises(ValueError):
            walk(sc, 0)
        with pytest.raises(ValueError):
            walk(sc, 3, 4)

    def test_mask_summaries(self, pc, sc):
        assert (pc.has_pinned, sc.has_pinned) == (False, True)
        for lay in (pc, sc):
            assert np.array_equal(lay.counted, ~lay.pinned)
            assert lay.n_counted_bits == len(lay.sent) == lay.counted.sum()
        assert pc.sent == range(pc.n_bits)
        block = sc.n_bits // 5
        assert sc.sent == range(block, 4 * block)
        assert not sc.pinned[sc.sent.start:sc.sent.stop].any()
        assert sc.pinned.sum() == sc.n_bits - len(sc.sent)

    def test_pinned_bit_inside_the_sent_span_refused(self, code16):
        n = code16.n
        grid = np.arange(n * n).reshape(n, n)
        cw_bits = np.concatenate([grid, grid.T])
        for hole, error in ((5, "one span"), (slice(None), "every bit")):
            pinned = np.zeros(n * n, dtype=bool)
            pinned[hole] = True
            with pytest.raises(ValueError, match=error):
                GpcLayout("product", code16, 2, n, n * n, cw_bits, pinned)
        pinned = np.zeros(n * n, dtype=bool)
        pinned[:3] = pinned[-2:] = True
        lay = GpcLayout("product", code16, 2, n, n * n, cw_bits, pinned)
        assert lay.sent == range(3, n * n - 2)


class TestFlatViews:
    """The flat int views and pinned masks the anchor status machine reads."""

    def test_views_match_arrays(self, pc, sc, code16):
        for lay in (pc, sc, hand_made_layout(code16, 4, 3, 1)):
            for name in ("cw_bits", "partner_cw", "partner_pos"):
                flat, arr = getattr(lay, "flat_" + name), getattr(lay, name)
                assert flat.typecode == "i"
                assert arr.dtype == np.int32 and arr.flags.c_contiguous
                assert arr.shape == (lay.n_cw, lay.code.n)
                assert flat.tolist() == arr.ravel().tolist()
                assert np.shares_memory(arr, flat)
            for name in ("bit_cw", "bit_pos"):
                arr = getattr(lay, name)
                assert arr.dtype == np.int32 and arr.flags.c_contiguous
                assert arr.shape == (lay.n_bits, 2)

    def test_pickled_layout_decodes_the_same(self, pc, sc):
        import pickle

        from gpcdec.engine import anchor_decode_state, genie_decode, iterative_bdd

        rng = np.random.default_rng(7)
        for lay in (pc, sc):
            copy = pickle.loads(pickle.dumps(lay))
            for name in ("cw_bits", "partner_cw", "partner_pos"):
                assert np.array_equal(getattr(copy, name), getattr(lay, name))
                assert np.shares_memory(getattr(copy, name), getattr(copy, "flat_" + name))
            for name in ("bit_cw", "bit_pos", "type_spans", "pinned", "cw_pinned"):
                assert np.array_equal(getattr(copy, name), getattr(lay, name))
            assert copy.pin_masks == lay.pin_masks and copy.sent == lay.sent
            for _ in range(4):
                frame = ((rng.random(lay.n_bits) < 0.06) & ~lay.pinned).astype(np.uint8)
                for a, b in (
                    (iterative_bdd(lay, frame, 4), iterative_bdd(copy, frame, 4)),
                    (genie_decode(lay, frame, None, 4), genie_decode(copy, frame, None, 4)),
                ):
                    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
                a = anchor_decode_state(lay, frame, 4, 1)
                b = anchor_decode_state(copy, frame, 4, 1)
                assert np.array_equal(a.frame, b.frame) and a.stats == b.stats
                assert a.status == b.status

    def test_pin_masks_equal_cw_pinned(self, pc, sc):
        assert pc.pin_masks == [0] * pc.n_cw
        n = sc.code.n
        assert any(sc.pin_masks)
        for c, mask in enumerate(sc.pin_masks):
            assert [bool(mask >> p & 1) for p in range(n)] == sc.cw_pinned[c].tolist()
            assert mask >> n == 0

    def test_built_once_and_shared_by_every_state(self, sc, monkeypatch):
        import gpcdec.layout
        from gpcdec.engine import anchor_decode_state
        from test_engine import check_invariants

        views = [getattr(sc, a) for a in
                 ("flat_cw_bits", "flat_partner_cw", "flat_partner_pos", "pin_masks")]

        def refuse(*_):
            raise AssertionError("layout view rebuilt after construction")

        monkeypatch.setattr(gpcdec.layout, "_int_buffer", refuse)
        monkeypatch.setattr(gpcdec.layout, "_pin_masks", refuse)
        rng = np.random.default_rng(3)
        for _ in range(3):
            frame = ((rng.random(sc.n_bits) < 0.05) & ~sc.pinned).astype(np.uint8)
            state = anchor_decode_state(sc, frame, 4)
            check_invariants(state)
        for a, view in zip(
            ("flat_cw_bits", "flat_partner_cw", "flat_partner_pos", "pin_masks"), views
        ):
            assert getattr(sc, a) is view


class TestIncidence:
    @pytest.mark.parametrize(
        "args,blocks",
        [((4, 2, 0, 0), None), ((4, 2, 1, 0), None), ((4, 2, 1, 0), 5),
         ((4, 2, 1, 0), 3), ((5, 2, 1, 0), 7)],
    )
    def test_matches_reference_loop(self, args, blocks):
        code = build_component_code(*args)
        if blocks is None:
            lay = build_product_layout(code)
        else:
            lay = build_staircase_layout(code, blocks, 3)
        self.check(lay)

    @staticmethod
    def check(lay):
        bit_cw, bit_pos = reference_incidence(lay.cw_bits, lay.n_bits)
        assert np.array_equal(lay.bit_cw, bit_cw) and lay.bit_cw.dtype == np.int32
        assert np.array_equal(lay.bit_pos, bit_pos) and lay.bit_pos.dtype == np.int32
        partner_cw, partner_pos = reference_partners(lay.cw_bits, lay.n_bits)
        assert np.array_equal(lay.partner_cw, partner_cw)
        assert np.array_equal(lay.partner_pos, partner_pos)

    @pytest.mark.parametrize("args", [(4, 2, 0, 0), (4, 2, 1, 0), (7, 2, 1, 0), (8, 3, 0, 0)])
    def test_products_match_reference_loops(self, args):
        # 15, 16, 128 and 255 bits a side
        self.check(build_product_layout(build_component_code(*args)))

    @pytest.mark.parametrize("args", [(4, 2, 1, 0), (7, 2, 1, 0)])
    @pytest.mark.parametrize("blocks", [3, 5, 7, 12])
    def test_staircases_match_reference_loops(self, args, blocks):
        self.check(build_staircase_layout(build_component_code(*args), blocks, 3))

    @pytest.mark.parametrize("blocks,window,seed", [(3, 2, 0), (4, 3, 1), (6, 4, 2)])
    def test_hand_made_single_owners_match_reference_loops(self, code16, blocks, window, seed):
        lay = hand_made_layout(code16, blocks, window, seed)
        assert (lay.bit_cw[:, 1] < 0).any() and (lay.partner_cw < 0).any()
        self.check(lay)

    def _layout(self, code, cw_bits, n_bits):
        pinned = np.zeros(n_bits, dtype=bool)
        return GpcLayout("product", code, 2, cw_bits.shape[0] // 2, n_bits,
                         cw_bits, pinned)

    def test_errors_match_reference_loop(self, code15):
        n = code15.n
        grid = np.arange(n * n).reshape(n, n)
        good = np.concatenate([grid, grid.T])
        triple = good.copy()
        triple[5, 3] = good[0, 7]  # bit 7 gets a third owner, bit 78 none
        late = good.copy()
        late[29, 14] = good[0, 0]  # the third owner comes last in slot order
        for cw_bits in (triple, late):
            with pytest.raises(ValueError) as want:
                reference_incidence(cw_bits, n * n)
            with pytest.raises(ValueError) as got:
                self._layout(code15, cw_bits, n * n)
            assert str(got.value) == str(want.value)

    def test_spans_of_the_builders(self, code15):
        lay = build_product_layout(code15)
        assert lay.type_spans.tolist() == [[0, lay.n_bits]] * 2
        code = build_component_code(4, 2, 1, 0)
        sc = build_staircase_layout(code, 5, 3)
        block = sc.n_bits // 5
        assert sc.type_spans.tolist() == [[ty * block, (ty + 2) * block] for ty in range(4)]

    def test_types_sharing_a_bit_refused(self, code15):
        # row 2 takes bit x = (1, 4) in place of its own y = (2, 9), and
        # column 4 takes y in place of x: every bit keeps two owners, but
        # x lies on two rows and y on two columns
        n = code15.n
        grid = np.arange(n * n).reshape(n, n)
        cw_bits = np.concatenate([grid, grid.T])
        x, y = 1 * n + 4, 2 * n + 9
        cw_bits[2, 9], cw_bits[n + 4, 1] = x, y
        with pytest.raises(ValueError, match="adjacent types"):
            self._layout(code15, cw_bits, n * n)

    def test_type_with_a_gap_refused(self, code15):
        # column 10 takes a bit past the grid in place of bit (6, 10),
        # which keeps its row alone: the columns' bits leave a gap
        n = code15.n
        grid = np.arange(n * n).reshape(n, n)
        cw_bits = np.concatenate([grid, grid.T])
        cw_bits[n + 10, 6] = n * n
        with pytest.raises(ValueError, match="fill one span"):
            self._layout(code15, cw_bits, n * n + 1)

    def test_uncovered_bit(self, code15):
        n = code15.n
        with pytest.raises(ValueError, match="uncovered bit"):
            self._layout(code15, np.arange(2 * n * n).reshape(2 * n, n) // 2, n * n + 1)


class TestSyndromeWidth:
    def test_overwide_syndrome_rejected(self):
        # (9,7,0,0) packs 63 syndrome bits, one more than the decoders allow
        code = build_component_code(9, 7, 0, 0)
        assert code.packed_bits == 63
        with pytest.raises(ValueError, match="63 bits"):
            build_product_layout(code)

    def test_widest_supported_syndrome(self):
        # (10,6,2,900) packs exactly 62 bits; shortening keeps the frame small
        code = build_component_code(10, 6, 2, 900)
        assert code.packed_bits == 62
        assert build_product_layout(code).n_bits == code.n * code.n
        assert code.contrib_packed_np.tolist() == code.contrib_packed
        assert code.decode_packed(support_syndrome(code, (3, 70))) == (3, 70)
