"""Layout incidence and schedule tests."""

import numpy as np
import pytest

from gpcdec.bch import build_component_code
from gpcdec.layout import (
    CodewordId,
    GpcLayout,
    build_product_layout,
    build_staircase_layout,
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


def flat_plan(layout, ell, reduced_t_iters=0):
    """window_plans flattened: one entry per half-iteration."""
    return [h for plan in layout.window_plans(ell, reduced_t_iters) for h in plan]


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
        (sched,) = pc.window_plans(1)
        assert len(sched) == 2
        assert list(sched[0].cw_indices) == list(range(15))
        assert list(sched[1].cw_indices) == list(range(15, 30))

    def test_rate(self, pc):
        assert pc.rate == pytest.approx((7 / 15) ** 2)

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
        assert sc._window_types() == [[1, 2], [2, 3], [3, 4]]
        sched = flat_plan(sc, 1)
        assert len(sched) == 6
        seen = [c for h in sched for c in h.cw_indices]
        assert set(seen) == set(range(sc.n_cw))

    def test_degenerate_window_is_product_like(self, code16):
        lay = build_staircase_layout(code16, num_blocks=3, window=3)
        assert lay._window_types() == [[1, 2]]
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

    def test_rate(self, sc):
        # interior staircase rate 1 - 2(n-k)/n with n=16, k=7: negative rate
        # codes are silly but the formula is what it is
        assert sc.rate == pytest.approx((2 * 7 - 16) / 16)


class TestIterationPlan:
    def test_product_plan_budgets_and_reset(self, pc):
        plan = list(pc.window_plans(ell=4, reduced_t_iters=2)[0])
        assert len(plan) == 8
        budgets = [h.budget for h in plan]
        assert budgets == [1, 1, 1, 1, 2, 2, 2, 2]
        resets = [h.reset_failed for h in plan]
        assert resets == [False] * 4 + [True] + [False] * 3

    def test_no_reduced_phase_no_reset(self, pc):
        plan = flat_plan(pc, 3)
        assert all(h.budget == 2 for h in plan)
        assert not any(h.reset_failed for h in plan)

    def test_staircase_plan_structure(self, sc):
        plan = flat_plan(sc, 2, 1)
        # 3 window positions x 2 iterations x 2 types
        assert len(plan) == 12
        # window position boundaries restart the reduced phase
        budgets = [h.budget for h in plan]
        assert budgets == [1, 1, 2, 2] * 3
        resets = [h.reset_failed for h in plan]
        assert resets == [False, False, True, False] * 3

    def test_visit_order_ascending(self, sc):
        for h in flat_plan(sc, 3, 1):
            assert (np.diff(h.cw_indices) > 0).all()

    def test_bad_arguments(self, pc):
        with pytest.raises(ValueError):
            pc.window_plans(0)
        with pytest.raises(ValueError):
            pc.window_plans(2, 3)

    def test_plans_built_once_per_arguments(self, sc):
        plans = sc.window_plans(3, 1)
        assert sc.window_plans(3, 1) is plans
        assert sc.window_plans(3) is not plans
        # every plan visits one type through one shared, contiguous range
        per = sc.per_type
        ranges = {h.cw_indices for plan in plans for h in plan}
        assert ranges == {range(ty * per, (ty + 1) * per) for ty in range(sc.num_types)}
        by_start = {}
        for plan in plans:
            for h in plan:
                assert by_start.setdefault(h.cw_indices.start, h.cw_indices) is h.cw_indices
        # bad arguments are still refused after good ones were cached
        with pytest.raises(ValueError):
            sc.window_plans(0)
        with pytest.raises(ValueError):
            sc.window_plans(3, 4)

    def test_mask_summaries(self, pc, sc):
        assert (pc.has_pinned, pc.all_counted) == (False, True)
        assert (sc.has_pinned, sc.all_counted) == (True, False)


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
        bit_cw, bit_pos = reference_incidence(lay.cw_bits, lay.n_bits)
        assert np.array_equal(lay.bit_cw, bit_cw) and lay.bit_cw.dtype == np.int32
        assert np.array_equal(lay.bit_pos, bit_pos) and lay.bit_pos.dtype == np.int32

    def _layout(self, code, cw_bits, n_bits):
        pinned = np.zeros(n_bits, dtype=bool)
        return GpcLayout("product", code, 2, cw_bits.shape[0] // 2, n_bits,
                         cw_bits, pinned, ~pinned)

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
        assert code.decode_packed(code.syndrome_packed((3, 70))) == (3, 70)
