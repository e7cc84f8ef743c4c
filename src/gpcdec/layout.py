"""Incidence structure of generalized product codes.

A generalized product code (GPC) protects every bit with exactly two
component codewords.  This module captures that incidence structure --
which two codewords own each bit, at which positions -- together with the
iteration schedule, independently of any decoding logic.  Two builders are
provided:

* ``build_product_layout``: the classic n x n product code.  Rows are
  codeword type 1, columns type 2, and the bit in row j / column l sits at
  position l of row codeword j and position j of column codeword l
  (1-based).
* ``build_staircase_layout``: a terminated staircase chain.  Square blocks
  ``B_0 .. B_{M-1}`` of side n/2 are stacked so that every row of
  ``[B_{m-1}^T  B_m]`` is a component codeword; ``B_0`` and ``B_{M-1}`` are
  known-zero termination blocks.  Codeword types index the block position.

The layout is immutable after construction and holds only index arrays, so
it can be shared freely between decoding processes.
"""

from typing import NamedTuple

import numpy as np

from .bch import ComponentCodeSpec

__all__ = [
    "CodewordId",
    "GpcLayout",
    "build_product_layout",
    "build_staircase_layout",
]


class CodewordId(NamedTuple):
    """Public codeword handle: (type, index within type), both 1-based."""

    type_i: int
    index_j: int


class HalfIteration(NamedTuple):
    """One scheduled pass: the contiguous, ascending range of codeword
    indices of one type, the BDD budget to use, and whether failed
    statuses reset before the pass."""

    cw_indices: range
    budget: int
    reset_failed: bool


class GpcLayout:
    """Static bit/codeword incidence plus the decoding schedule.

    Internal codeword indices are ``0 .. n_cw-1`` with all codewords of a
    type contiguous; bit indices are ``0 .. n_bits-1``.  Arrays:

    ``cw_bits[c, p]``
        global bit index at position p of codeword c.
    ``bit_cw[b], bit_pos[b]``
        the (up to two) codewords covering bit b and b's position in each;
        -1 marks the absent second codeword of termination-block bits.
    ``partner_cw[c, p], partner_pos[c, p]``
        the other codeword through position p of codeword c, and the
        position of the shared bit there; -1 where no partner exists.
    ``pinned[b]``
        True for structurally-zero bits (termination blocks).  Decoders
        must treat a proposed flip of a pinned bit as decoding failure.
    ``counted[b]``
        True for bits included in error-rate accounting (all bits of a
        product code; the real data blocks of a staircase).

    ``has_pinned`` and ``all_counted`` summarize the two masks once, so
    per-frame code need not scan them.
    """

    def __init__(
        self,
        kind: str,
        code: ComponentCodeSpec,
        num_types: int,
        per_type: int,
        n_bits: int,
        cw_bits: np.ndarray,
        pinned: np.ndarray,
        counted: np.ndarray,
        window: int | None = None,
    ):
        if code.packed_bits > 62:
            raise ValueError(
                f"component syndrome needs {code.packed_bits} bits "
                "(nu*t + e); decoders support at most 62"
            )
        self.kind = kind
        self.code = code
        self.num_types = num_types
        self.per_type = per_type
        self.n_cw = num_types * per_type
        self.n_bits = n_bits
        self.window = window
        self.cw_bits = np.ascontiguousarray(cw_bits, dtype=np.int32)
        self.pinned = pinned
        self.counted = counted
        self.has_pinned = bool(pinned.any())
        self.all_counted = bool(counted.all())
        self._build_incidence()
        self._list_cache: dict[str, list] = {}
        self._plans: dict[tuple[int, int], tuple[tuple[HalfIteration, ...], ...]] = {}

    def _as_lists(self, name: str) -> list:
        """Cached list-of-lists view of an index array (hot-loop friendly)."""
        got = self._list_cache.get(name)
        if got is None:
            got = getattr(self, name).tolist()
            self._list_cache[name] = got
        return got

    def _build_incidence(self):
        n = self.code.n
        bit_cw, bit_pos = _bit_incidence(self.cw_bits, self.n_bits)
        self.bit_cw = bit_cw
        self.bit_pos = bit_pos
        # partner lookup: the other codeword through each position
        pc = np.full((self.n_cw, n), -1, dtype=np.int32)
        pp = np.full((self.n_cw, n), -1, dtype=np.int32)
        b0 = self.cw_bits  # (n_cw, n) bit at each slot
        covered = bit_cw[b0, 1] >= 0
        first_is_self = bit_cw[b0, 0] == np.arange(self.n_cw, dtype=np.int32)[:, None]
        other = np.where(first_is_self, bit_cw[b0, 1], bit_cw[b0, 0])
        other_pos = np.where(first_is_self, bit_pos[b0, 1], bit_pos[b0, 0])
        pc[covered] = other[covered]
        pp[covered] = other_pos[covered]
        self.partner_cw = pc
        self.partner_pos = pp
        self.cw_pinned = self.pinned[self.cw_bits]

    # --- id translation ----------------------------------------------------

    def cw_index(self, cid: CodewordId) -> int:
        t, j = cid
        if not (1 <= t <= self.num_types and 1 <= j <= self.per_type):
            raise ValueError(f"unknown codeword id {cid!r}")
        return (t - 1) * self.per_type + (j - 1)

    def cw_id(self, index: int) -> CodewordId:
        if not 0 <= index < self.n_cw:
            raise ValueError(f"codeword index {index} out of range")
        return CodewordId(index // self.per_type + 1, index % self.per_type + 1)

    # --- schedule ------------------------------------------------------------

    def _window_types(self) -> list[list[int]]:
        """Decodable types per window position: a window anchored at block w0
        spans blocks w0 .. w0+window-1 and can decode exactly the types whose
        two blocks both lie inside."""
        if self.kind == "product":
            return [[1, 2]]
        num_blocks = self.num_types + 1
        w = self.window
        return [
            list(range(w0 + 1, w0 + w)) for w0 in range(num_blocks - w + 1)
        ]

    def window_plans(
        self, ell: int, reduced_t_iters: int = 0
    ) -> tuple[tuple[HalfIteration, ...], ...]:
        """Half-iteration plans grouped by window position.

        A product code is a single window position holding ell sweeps of
        (rows, columns).  A staircase yields one plan per window position:
        ell sweeps over the types inside the window, after which the window
        advances one block.  The first ``reduced_t_iters`` sweeps of each
        plan decode with budget t-1; the entry right after the reduced phase
        carries ``reset_failed`` so the engine re-enables failed codewords.
        A decoder may abandon a plan early once a full sweep changes
        nothing, since the remaining sweeps would repeat it verbatim.

        Plans are built once per (ell, reduced_t_iters) and shared by every
        frame; each type's index range is one shared ``range``.
        """
        key = (ell, reduced_t_iters)
        plans = self._plans.get(key)
        if plans is not None:
            return plans
        if ell < 1:
            raise ValueError("ell must be >= 1")
        if not 0 <= reduced_t_iters <= ell:
            raise ValueError("reduced_t_iters must lie in [0, ell]")
        t = self.code.t
        per = self.per_type
        ranges = {ty: range((ty - 1) * per, ty * per) for ty in range(1, self.num_types + 1)}
        out = []
        for types in self._window_types():
            plan = []
            for it in range(1, ell + 1):
                budget = t - 1 if it <= reduced_t_iters else t
                reset = it == reduced_t_iters + 1 and reduced_t_iters > 0
                for k, ty in enumerate(types):
                    plan.append(HalfIteration(ranges[ty], budget, reset and k == 0))
            out.append(tuple(plan))
        plans = self._plans[key] = tuple(out)
        return plans

    @property
    def sweep_len(self) -> int:
        """Half-iterations per sweep: types decoded together in one pass."""
        return 2 if self.kind == "product" else self.window - 1

    # --- bookkeeping ---------------------------------------------------------

    @property
    def n_counted_bits(self) -> int:
        return int(self.counted.sum())

    @property
    def rate(self) -> float:
        n, k = self.code.n, self.code.k
        if self.kind == "product":
            return (k / n) ** 2
        return (2 * k - n) / n  # interior rate of the staircase chain

    def __repr__(self):
        return (
            f"GpcLayout({self.kind}, n={self.code.n}, types={self.num_types}, "
            f"bits={self.n_bits})"
        )


def _bit_incidence(cw_bits: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """bit_cw and bit_pos of a codeword-to-bit map: the slots through each
    bit in row-major order of ``cw_bits``, -1 where a bit has one owner."""
    n = cw_bits.shape[1]
    flat = cw_bits.ravel()
    fill = np.bincount(flat, minlength=n_bits)
    if fill.max(initial=0) > 2:
        # name the bit whose third slot comes first, as a slot-by-slot scan would
        order = np.argsort(flat, kind="stable")
        third = order[(np.cumsum(fill) - fill)[fill > 2] + 2]
        raise ValueError(f"bit {flat[third.min()]} covered more than twice")
    if (fill == 0).any():
        raise ValueError("uncovered bit in layout")
    # with at most two slots per bit, the first and second are the min and max
    slots = np.arange(flat.size, dtype=np.int32)
    lo = np.full(n_bits, flat.size, dtype=np.int32)
    hi = np.full(n_bits, -1, dtype=np.int32)
    np.minimum.at(lo, flat, slots)
    np.maximum.at(hi, flat, slots)
    two = fill == 2
    bit_cw = np.full((n_bits, 2), -1, dtype=np.int32)
    bit_pos = np.full((n_bits, 2), -1, dtype=np.int32)
    bit_cw[:, 0], bit_pos[:, 0] = np.divmod(lo, n)
    bit_cw[two, 1], bit_pos[two, 1] = np.divmod(hi[two], n)
    return bit_cw, bit_pos


def build_product_layout(code: ComponentCodeSpec) -> GpcLayout:
    """n x n product code: rows are type 1, columns type 2."""
    n = code.n
    n_bits = n * n
    cw_bits = np.empty((2 * n, n), dtype=np.int32)
    grid = np.arange(n_bits, dtype=np.int32).reshape(n, n)
    cw_bits[:n] = grid  # row j covers bits (j, 0..n-1)
    cw_bits[n:] = grid.T  # column l covers bits (0..n-1, l)
    pinned = np.zeros(n_bits, dtype=bool)
    counted = np.ones(n_bits, dtype=bool)
    return GpcLayout("product", code, 2, n, n_bits, cw_bits, pinned, counted)


def build_staircase_layout(
    code: ComponentCodeSpec, num_blocks: int, window: int
) -> GpcLayout:
    """Terminated staircase chain of ``num_blocks`` square blocks.

    ``num_blocks`` counts every block in the chain including the two
    known-zero termination blocks (first and last), so the number of real
    data blocks is ``num_blocks - 2``.  Blocks have side a = n/2.  Codeword
    (m, r) is row r of ``[B_{m-1}^T  B_m]``: its first half runs down column
    r of block m-1, its second half across row r of block m.  A decoding
    window spans ``window`` consecutive blocks and can decode the types
    lying fully inside; it advances one block per position.
    """
    n = code.n
    if n % 2:
        raise ValueError("staircase requires an even component code length")
    if not 2 <= window <= num_blocks:
        raise ValueError("need num_blocks >= window >= 2")
    if num_blocks < 3:
        raise ValueError("need at least one real block (num_blocks >= 3)")
    a = n // 2
    n_bits = num_blocks * a * a
    num_types = num_blocks - 1
    cw_bits = np.empty((num_types * a, n), dtype=np.int32)
    pos = np.arange(a, dtype=np.int32)
    for m in range(1, num_blocks):  # type m spans blocks m-1 and m
        for r in range(a):
            row = cw_bits[(m - 1) * a + r]
            row[:a] = (m - 1) * a * a + pos * a + r  # column r of B_{m-1}
            row[a:] = m * a * a + r * a + pos  # row r of B_m
    blk = np.arange(n_bits, dtype=np.int64) // (a * a)
    pinned = (blk == 0) | (blk == num_blocks - 1)
    counted = ~pinned
    return GpcLayout(
        "staircase", code, num_types, a, n_bits, cw_bits, pinned, counted,
        window=window,
    )

