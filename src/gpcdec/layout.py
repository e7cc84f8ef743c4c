"""Incidence structure of generalized product codes.

A generalized product code (GPC) protects every bit with exactly two
component codewords.  This module captures that incidence structure --
which two codewords own each bit, at which positions -- together with the
codeword types each window position decodes, independently of any decoding
logic.  Two functions build one:

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

from array import array
from typing import NamedTuple

import numpy as np

from .bch import ComponentCodeSpec

__all__ = [
    "CodewordId",
    "GpcLayout",
    "build_product_layout",
    "build_staircase_layout",
    "code_rate",
]


class CodewordId(NamedTuple):
    """Public codeword handle: (type, index within type), both 1-based."""

    type_i: int
    index_j: int


class GpcLayout:
    """Static bit/codeword incidence plus the types the schedule decodes.

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
    ``type_spans[ty]``
        the first and one past the last bit of 0-based type ``ty``, which
        its bits must fill: the whole frame on a product, blocks ty and
        ty+1 of a staircase.  A bit's two codewords lie in adjacent types.
    ``pinned[b]``
        True for structurally-zero bits (termination blocks).  Decoders
        must treat a proposed flip of a pinned bit as decoding failure.
    ``counted[b]``
        True for bits included in error-rate accounting: the unpinned
        bits (all bits of a product code; the real data blocks of a
        staircase).

    ``sent`` is the ``range`` of transmitted, and counted, bits: every
    bit outside it is pinned and none inside it is (all bits of a
    product code; on a staircase, the bits between the first and the
    last block), and ``has_pinned`` says whether any bit is, so
    per-frame code need not scan the masks.  A mask that pins bits
    inside the span of its unpinned bits is refused.

    ``window_ranges[w]`` holds, in decoding order, the codeword index
    ranges of the types that window position w decodes, one shared
    ``range`` per type: both types of a product, at its one position; on
    a staircase, the ``window - 1`` types whose two blocks lie inside a
    window that starts at block w.  The schedule repeats that sweep ell
    times per position (``engine._run_schedule``).

    The anchor status machine reads scalar items, which numpy serves
    slowly, so each index array is held once, in a flat ``array('i')``
    indexed ``c * n + p`` (``flat_cw_bits``, ``flat_partner_cw``,
    ``flat_partner_pos``) of which the numpy array is an int32 view, and
    ``pin_masks[c]`` is the int whose bit p is set when position p of
    codeword c is pinned.  A pickle holds only what built the layout.
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
        self.pinned = pinned
        self.counted = ~pinned
        self.sent = _sent_span(pinned)
        self.has_pinned = len(self.sent) < n_bits
        self._build_incidence(cw_bits)
        ranges = [range(ty * per_type, (ty + 1) * per_type) for ty in range(num_types)]
        sweep = num_types if kind == "product" else window - 1
        self.window_ranges = tuple(
            tuple(ranges[w : w + sweep]) for w in range(num_types - sweep + 1)
        )

    def __reduce__(self):
        args = (self.kind, self.code, self.num_types, self.per_type, self.n_bits)
        return GpcLayout, (*args, self.cw_bits, self.pinned, self.window)

    def _build_incidence(self, cw_bits: np.ndarray):
        n, n_bits = self.code.n, self.n_bits
        self.flat_cw_bits, self.cw_bits = _int_buffer(self.n_cw, n)
        self.cw_bits[...] = cw_bits
        flat = self.cw_bits.ravel()
        # each bit's first and second slot, c * n + p in row-major order,
        # fill its row of bit_pos; a bit with one owner has one slot twice
        slots = np.arange(flat.size, dtype=np.int32)
        self.bit_pos = own = np.full((n_bits, 2), (flat.size, -1), dtype=np.int32)
        lo, hi = own[:, 0], own[:, 1]
        np.minimum.at(lo, flat, slots)
        np.maximum.at(hi, flat, slots)
        single = lo == hi
        if 2 * np.count_nonzero(hi >= 0) - np.count_nonzero(single) < flat.size:
            # some bit has a third slot: name the first, as a slot scan would
            fill = np.bincount(flat, minlength=n_bits)
            order = np.argsort(flat, kind="stable")
            third = order[(np.cumsum(fill) - fill)[fill > 2] + 2]
            raise ValueError(f"bit {flat[third.min()]} covered more than twice")
        if hi.min(initial=0) < 0:
            raise ValueError("uncovered bit in layout")
        # through bit b, slot hi[b]'s partner is slot lo[b] and back; a lone
        # owner's slot gets -1, so partner_cw -1
        self.flat_partner_cw, self.partner_cw = _int_buffer(self.n_cw, n)
        self.flat_partner_pos, self.partner_pos = _int_buffer(self.n_cw, n)
        pair = self.partner_pos.ravel()
        pair[hi] = lo
        hi[single] = -1
        pair[lo] = hi
        # divmod by n in place; floor division by a scalar beats np.divmod
        pair -= np.floor_divide(pair, n, out=self.partner_cw.ravel()) * n
        pair[lo[single]] = -1
        self.bit_cw = own // n
        own -= self.bit_cw * n
        own[single, 1] = -1
        owners = self.bit_cw // self.per_type
        if ((owners[:, 1] - owners[:, 0] != 1) & ~single).any():
            raise ValueError("a bit's two codewords must lie in adjacent types")
        by_type = self.cw_bits.reshape(self.num_types, -1)
        lo, hi = by_type.min(axis=1), by_type.max(axis=1) + 1
        self.type_spans = np.stack([lo, hi], axis=1)
        if (hi - lo != by_type.shape[1]).any():
            raise ValueError("the bits of a codeword type must fill one span")
        self.cw_pinned = (self.pinned[self.cw_bits] if self.has_pinned
                          else np.zeros((self.n_cw, n), dtype=bool))
        self.pin_masks = _pin_masks(self.cw_pinned)

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

    # --- bookkeeping ---------------------------------------------------------

    @property
    def n_counted_bits(self) -> int:
        return len(self.sent)

    @property
    def rate(self) -> float:
        return code_rate(self.code, self.kind)

    def __repr__(self):
        return (
            f"GpcLayout({self.kind}, n={self.code.n}, types={self.num_types}, "
            f"bits={self.n_bits})"
        )


_INT32_MAX = 2**31 - 1


def _sent_span(pinned: np.ndarray) -> range:
    """The one span of unpinned bits, from the first to the last."""
    if pinned.all():
        raise ValueError("every bit of the layout is pinned")
    lo = int(pinned.argmin())  # the first unpinned bit
    hi = pinned.size - int(pinned[::-1].argmin())
    if pinned[lo:hi].any():
        raise ValueError("pinned bits must lie before and after one span of sent bits")
    return range(lo, hi)


def _int_buffer(rows: int, cols: int) -> tuple[array, np.ndarray]:
    """A zeroed flat ``array('i')`` and a ``(rows, cols)`` int32 view of it."""
    flat = array("i", [0]) * (rows * cols)
    return flat, np.frombuffer(flat, dtype=np.int32).reshape(rows, cols)


def _pin_masks(cw_pinned: np.ndarray) -> list[int]:
    """Per codeword, the int whose bit p is set when position p is pinned."""
    masks = [0] * cw_pinned.shape[0]
    rows = np.flatnonzero(cw_pinned.any(axis=1))
    packed = np.packbits(cw_pinned[rows], axis=1, bitorder="little")
    for c, row in zip(rows.tolist(), packed):
        masks[c] = int.from_bytes(row.tobytes(), "little")
    return masks


def code_rate(code: ComponentCodeSpec, kind: str) -> float:
    """Rate of the ``kind`` layout ("product" or "staircase") on ``code``,
    the interior rate of a staircase chain; no layout is built."""
    n, k = code.n, code.k
    if kind == "product":
        return (k / n) ** 2
    _block_side(code)
    return (2 * k - n) / n


def _block_side(code: ComponentCodeSpec) -> int:
    """Side n/2 of a staircase block; a staircase needs an even n."""
    if code.n % 2:
        raise ValueError("staircase requires an even component code length")
    return code.n // 2


def build_product_layout(code: ComponentCodeSpec) -> GpcLayout:
    """n x n product code: rows are type 1, columns type 2."""
    n = code.n
    n_bits = n * n
    cw_bits = np.empty((2 * n, n), dtype=np.int32)
    grid = np.arange(n_bits, dtype=np.int32).reshape(n, n)
    cw_bits[:n] = grid  # row j covers bits (j, 0..n-1)
    cw_bits[n:] = grid.T  # column l covers bits (0..n-1, l)
    pinned = np.zeros(n_bits, dtype=bool)
    return GpcLayout("product", code, 2, n, n_bits, cw_bits, pinned)


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
    n, a = code.n, _block_side(code)
    if not 2 <= window <= num_blocks:
        raise ValueError("need num_blocks >= window >= 2")
    if num_blocks < 3:
        raise ValueError("need at least one real block (num_blocks >= 3)")
    n_bits = num_blocks * a * a
    num_types = num_blocks - 1
    # bit and slot indices are int32, so a chain whose bits or codeword
    # slots they cannot number is refused before anything is allocated
    for size, what in ((n_bits, "bits"), (num_types * a * n, "codeword slots")):
        if size > _INT32_MAX:
            raise ValueError(
                f"staircase of {num_blocks} blocks has {size} {what}; "
                f"at most {_INT32_MAX} fit the int32 indices"
            )
    # codeword (m, r) is row (m-1)*a + r of cw_bits; type m spans blocks
    # m-1 and m, and block m-1 starts at bit base
    base = (np.arange(num_types, dtype=np.int32) * a * a)[:, None, None]
    r = np.arange(a, dtype=np.int32)[None, :, None]
    pos = np.arange(a, dtype=np.int32)[None, None, :]
    cw_bits = np.empty((num_types, a, n), dtype=np.int32)
    cw_bits[:, :, :a] = base + pos * a + r  # column r of B_{m-1}
    cw_bits[:, :, a:] = base + a * a + r * a + pos  # row r of B_m
    pinned = np.zeros(n_bits, dtype=bool)
    pinned[: a * a] = pinned[-a * a :] = True  # the termination blocks
    return GpcLayout(
        "staircase", code, num_types, a, n_bits, cw_bits.reshape(-1, n), pinned,
        window=window,
    )

