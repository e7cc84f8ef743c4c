"""Binary BCH component codes with shortening and parity extensions.

A component code is parameterized by (nu, t, e, s):

- base code: primitive BCH of length 2^nu - 1 correcting t errors, whose
  generator lcm(m_1, m_3, ..., m_{2t-1}) has as roots the alpha^j over the
  distinct cyclotomic cosets of 1, 3, ..., 2t-1 mod 2^nu - 1; their total
  size, the generator's degree, must equal nu*t so that
  k = 2^nu - 1 - nu*t - s holds exactly
- e in {0, 1, 2} extra parity bits: e=1 appends one overall parity bit,
  e=2 appends two bits checking the odd- and even-indexed positions
  separately; either extension raises the design distance from 2t+1 to 2t+2
- s leading information positions are shortened (fixed to zero and removed)

Bounded-distance decoding (BDD) operates purely on syndromes: t odd-power
syndromes S_1, S_3, ..., S_{2t-1} plus the e parity bits.  A pattern of
weight <= t is unique for a given syndrome, so the decoder either returns
exactly that pattern or fails.  Errors on the extension bits are correctable
and count toward the weight budget.

The code is defined by its parity-check columns: ``contrib_packed[pos]``
is the syndrome of a single error at pos, and a word's syndrome is the
XOR of the columns of its set positions (``engine.frame_syndromes``
forms it for every codeword of a frame).  A syndrome has that one form,
the packed int: the e parity bits in the low bits, then S_1, S_3, ... in
nu-bit lanes.  BDD has one result form: ``decode_packed`` returns the
error support as a tuple of ascending positions, or None on failure, and
``decode_batch`` returns the same supports as rows of an array.  Both
refuse a budget outside [0, t].

Which method serves a code depends on its packed syndrome width nu*t + e:

- at most 20 bits, e.g. (7,2,1,0) at 15 bits and (8,2,1,61) at 17: a
  dense table, built with numpy on the first memo miss, holds for each
  of the 2^(nu*t+e) syndromes a row of t positions (int8 while n <= 128,
  else int16; at most 4 MiB), ascending and padded with -1, naming the
  unique support of weight <= t; padding alone is the empty support at
  syndrome 0 and a failure elsewhere
- wider syndromes solve the error locator algebraically: closed form plus a
  quadratic table at t=2, Peterson's locator plus a cubic table at t=3,
  Berlekamp-Massey plus a Chien search at t >= 4; the extension bits in
  error are then the parity bits XOR the core errors' parity contribution

Both paths sit behind one memo per budget, ``memo(budget)``, indexed
by the packed syndrome and reading ``_MISS`` before its decode.  A table
code keeps a list of 2^(nu*t+e) slots; the first miss in a block of
``_BLOCK`` (1024) fills the block from a slice of the table.  A wider
code keeps a dict, cleared when it would pass ``_BDD_CACHE_CAP`` (2^21)
entries, so its size stays bounded over a long run; the cap decides only
which decodes are remembered, never what a decode returns.
Each budget's memo is allocated on its first miss, and a pickled code
drops its memos and table and arrives cold.

``decode_batch`` decodes an array of syndromes in one pass with the same
results: a gather of table rows, the t=2 and t=3 closed forms over
arrays, or at t >= 4 a loop over the memoized scalar decoder.
``prefetch`` uses it to fill the memo for a set of syndromes at once.

The t=2 and t=3 closed forms are written once, evaluating every branch
and selecting with ``where``, ``minimum`` and ``maximum``: numpy's over
arrays with ``FieldTable.arrays`` for ``decode_batch``, or ``_IntOps``
over one syndrome with the same tables as lists (``FieldTable.lists``)
for a memo miss.

The erasure solver takes the packed syndrome too: ``erasure_decode``
eliminates over GF(2) on the packed columns ``contrib_packed`` and returns
the erased positions to flip, ascending.  ``erasures_solvable`` is its
rule for an erasure count that can never be solved.
``parity_check_matrix`` builds the same checks as a binary matrix for code
outside the decoders.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable

import numpy as np

from .galois import FieldArrays, build_field

# Entries of one budget's dict memo before it is cleared (some 100 B each).
# A sweep decodes the same seeded frames with each decoder and nested error
# patterns across its p points, so it keeps hitting old entries: at 2^16,
# `repro --figures pc842 --max-frames 300 --workers 1` ran 2.2x slower.
_BDD_CACHE_CAP = 1 << 21
_TABLE_BITS = 20  # widest packed syndrome with a dense decode table (4 MiB)
_BLOCK = 1 << 10  # memo slots a table code fills per miss
_MISS = object()


class _DictMemo(dict):
    """One budget's memo on a code without a decode table: packed
    syndrome -> decode result; a syndrome not decoded yet reads _MISS."""

    __slots__ = ()

    def __missing__(self, packed: int) -> object:
        return _MISS


# every budget's memo until its first miss; never written
_NO_MEMO = _DictMemo()


class _IntOps:
    """numpy's ``where``, ``minimum`` and ``maximum`` on Python ints, so a
    closed form written for arrays of syndromes runs on one."""

    minimum, maximum = min, max

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


def _two_roots(ops, f: FieldArrays, s1, l1, c):
    """Positions, ascending, of the roots S1*y and S1*(y+1) of the
    two-error locator, where y^2 + y = c; the sentinel log where c has no
    root (the table's 0)."""
    x1 = f.exp[l1 + f.log[f.quad[c]]]
    a, b = f.log[x1], f.log[x1 ^ s1]
    return ops.minimum(a, b), ops.maximum(a, b)


def _core_t2(ops, f: FieldArrays, s1, s3) -> tuple:
    """t=2 error locator: X1 + X2 = S1 and X1 X2 = (S3 + S1^3)/S1.  Returns
    the two core positions, ascending and -1 padded; a missing root reads
    as the sentinel log."""
    exp, log, where = f.exp, f.log, ops.where
    l1 = log[s1]
    d = s3 ^ exp[3 * l1]
    # two errors: x = S1 y with y^2 + y = D / S1^3
    a, b = _two_roots(ops, f, s1, l1, exp[log[d] + 3 * f.nlog[s1]])
    one = d == 0
    none = (s1 | s3) == 0
    return where(none, -1, where(one, l1, a)), where(one, -1, b)


def _core_t3(ops, f: FieldArrays, s1, s3, s5) -> tuple:
    """Peterson's closed-form locator for t=3 plus table root finding.

    With D = S1^3 + S3 the locator x^3 + g1 x^2 + g2 x + g3 has g1 = S1,
    g2 = (S1^2 S3 + S5)/D and g3 = D + S1 g2.  D vanishes for at most one
    error, since D = (X1+X2)(X1+X3)(X2+X3) for three errors and
    X1 X2 (X1+X2) for two; g3 = X1 X2 X3 vanishes for two.  Every branch
    is evaluated, then each syndrome takes the one that holds.  Returns
    the three core positions, ascending and -1 padded; a missing root
    reads as the sentinel log."""
    exp, log, where = f.exp, f.log, ops.where
    l1 = log[s1]
    d = s3 ^ exp[3 * l1]
    g2 = exp[log[s5 ^ exp[2 * l1 + log[s3]]] + f.nlog[d]]
    # three errors: y^3 + p y + D with x = y + S1, y = sqrt(p) z and
    # z^3 + z = D / p^(3/2); when p = 0, y runs over the cube roots of D
    p = g2 ^ exp[2 * l1]
    r = f.sqrt[p]
    c, lr, dp = exp[log[d] + 3 * f.nlog[r]], log[r], d * (p == 0)
    (z0, z1, z2), (r0, r1, r2) = f.cubic, f.cbrt
    y0 = exp[lr + log[z0[c]]] | r0[dp]
    y1 = exp[lr + log[z1[c]]] | r1[dp]
    y2 = exp[lr + log[z2[c]]] | r2[dp]
    x0, x1, x2 = log[y0 ^ s1], log[y1 ^ s1], log[y2 ^ s1]
    x0, x1 = ops.minimum(x0, x1), ops.maximum(x0, x1)
    x1, x2 = ops.minimum(x1, x2), ops.maximum(x1, x2)
    x0, x1 = ops.minimum(x0, x1), ops.maximum(x0, x1)
    x0 = where(y0 == 0, f.zero, x0)  # fewer than three roots
    # g3 = D + S1 g2 = 0: two errors
    a, b = _two_roots(ops, f, s1, l1, exp[log[g2] + 2 * f.nlog[s1]])
    two = exp[l1 + log[g2]] == d
    # D = 0: at most one error, and then S5 = S1^5
    one = d == 0
    single = where(s5 == exp[5 * l1], l1, f.zero)
    none = (s1 | s3 | s5) == 0
    return (
        where(one, where(none, -1, single), where(two, a, x0)),
        where(one, -1, where(two, b, x1)),
        where(one | two, -1, x2),
    )


class ComponentCodeSpec:
    """A (possibly extended/shortened) BCH component code.

    Attributes
    ----------
    nu, t, e, s : construction parameters
    n : transmitted length 2^nu - 1 + e - s
    k : dimension 2^nu - 1 - nu*t - s
    d_min : 2t+1 for e=0, 2t+2 otherwise
    """

    def __init__(self, nu: int, t: int, e: int = 0, s: int = 0):
        nu, t, e, s = map(operator.index, (nu, t, e, s))
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if e not in (0, 1, 2):
            raise ValueError(f"e must be 0, 1 or 2, got {e}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        f = build_field(nu)
        n0 = f.order - 1

        # the generator's roots: alpha^j over the cosets {m 2^i mod n0}; n0
        # is odd, so the odd m below 2 n0 already reach every residue
        roots: set[int] = set()
        for m in range(1, min(2 * t, 2 * n0), 2):
            j = m % n0
            while j not in roots:  # cosets are disjoint: a new one is all new
                roots.add(j)
                j = j * 2 % n0
        r0 = len(roots)
        if r0 != nu * t:
            raise ValueError(
                f"unsupported (nu={nu}, t={t}): generator degree {r0} != nu*t={nu * t}"
            )
        k = n0 - r0 - s
        if k < 1:
            raise ValueError(f"shortening s={s} leaves no information bits (k={k})")

        self.nu = nu
        self.t = t
        self.e = e
        self.s = s
        self.field = f
        self.n0 = n0
        self.n_core = n0 - s  # transmitted BCH positions: polynomial degrees 0..n_core-1
        self.n = self.n_core + e
        self.k = k
        self.d_min = 2 * t + 1 if e == 0 else 2 * t + 2

        # parity_mask[pos] = bitmask of extension checks toggled by flipping pos
        if e == 0:
            pmask = [0] * self.n_core
        elif e == 1:
            pmask = [1] * self.n
        else:
            # check bit 0 covers even 1-based (odd 0-based) core positions plus
            # the first extension bit; check bit 1 covers the rest
            pmask = [2 if pos % 2 == 0 else 1 for pos in range(self.n_core)]
            pmask += [1, 2]
        self.parity_mask: list[int] = pmask
        # single-int syndrome packing: parity bits in the low e bits, odd
        # syndrome S_(2i+1) in the nu-bit lane starting at e + i*nu, where
        # flipping core position pos adds alpha^(pos*(2i+1))
        exp = f.exp_table
        self.packed_bits = e + nu * t
        self.contrib_packed: list[int] = [
            pmask[pos]
            | sum(exp[pos * (2 * i + 1) % n0] << (e + i * nu) for i in range(t))
            for pos in range(self.n_core)
        ] + pmask[self.n_core :]

        self.has_table = self.packed_bits <= _TABLE_BITS
        # decode_batch runs the t=2/t=3 closed forms over arrays; otherwise
        # a code without a table loops over decode_packed
        self.batch_closed_form = not self.has_table and t in (2, 3)
        # parity_mask plus a 0 read by the -1 padding of batched supports
        self._pmask_np = np.array(pmask + [0], dtype=np.int64)

        # built on first use: (the field's antilog, Chien index matrix) for
        # Berlekamp-Massey, the dense decode table
        self._chien: tuple[np.ndarray, np.ndarray] | None = None
        self._table: np.ndarray | None = None
        self._memos: list = [_NO_MEMO] * (t + 1)  # by budget, see memo()
        self._pcm: np.ndarray | None = None
        self._contrib_packed_np: np.ndarray | None = None

    @property
    def contrib_packed_np(self) -> np.ndarray:
        """contrib_packed as int64, for vectorized whole-frame syndromes."""
        if self._contrib_packed_np is None:
            if self.packed_bits > 62:
                raise OverflowError("packed syndrome exceeds int64")
            self._contrib_packed_np = np.array(self.contrib_packed, dtype=np.int64)
        return self._contrib_packed_np

    def __getstate__(self) -> dict:
        """Pickle without the memos, whose _MISS would not survive, and
        without the table, up to 4 MiB: the copy rebuilds both on first
        use, as a new code does."""
        state = self.__dict__.copy()
        del state["_memos"]
        state["_table"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memos = [_NO_MEMO] * (self.t + 1)

    def __repr__(self) -> str:
        return (
            f"ComponentCodeSpec(nu={self.nu}, t={self.t}, e={self.e}, s={self.s}, "
            f"n={self.n}, k={self.k}, d_min={self.d_min})"
        )

    # --- bounded-distance decoding --------------------------------------

    def _solve_core(self, odd: tuple[int, ...]) -> tuple[int, ...] | None:
        """Unique error pattern of weight <= t on the core positions matching
        the odd-power syndromes, or None.  Shortened positions are rejected.

        t=2 and t=3 run the closed form on Python ints; other t run
        Berlekamp-Massey and a Chien search.  decode_packed reaches this
        only for syndromes wider than 20 bits; narrower ones read the dense
        decode table, for which this is the test oracle."""
        if self.t in (2, 3):
            core, ok = self._closed_form(_IntOps, self.field.lists(), odd)
            return tuple(x for x in core if x >= 0) if ok else None
        if not any(odd):
            return ()
        return self._solve_core_bm(odd)

    def _closed_form(self, ops, f: FieldArrays, odd) -> tuple:
        """The t=2 or t=3 closed form under ``ops`` (numpy or _IntOps): the
        core positions, ascending and -1 padded, and whether every one lies
        below n_core, which the sentinel log of a missing root does not."""
        core = (_core_t2 if self.t == 2 else _core_t3)(ops, f, *odd)
        return core, reduce(ops.maximum, core) < self.n_core

    def _solve_core_bm(self, odd: tuple[int, ...]) -> tuple[int, ...] | None:
        """Berlekamp-Massey over the 2t syndromes plus a vectorized root
        search.  Products are reads of the sentinel tables of
        ``FieldTable.lists``, so a zero factor reads 0."""
        f = self.field.lists()
        exp, log = f.exp, f.log
        t = self.t
        syn = [0] * (2 * t)  # S_1 .. S_2t
        syn[::2] = odd
        for mm in range(2, 2 * t + 1, 2):
            syn[mm - 1] = exp[2 * log[syn[mm // 2 - 1]]]

        lam = [1]
        prev = [1]
        ll = 0
        gap = 1
        b = 1
        for step in range(2 * t):
            d = syn[step]
            for i in range(1, min(ll + 1, len(lam))):
                d ^= exp[log[lam[i]] + log[syn[step - i]]]
            if d == 0:
                gap += 1
                continue
            scale = log[d] + f.nlog[b]  # log of d / b
            cand = lam + [0] * (gap + len(prev) - len(lam))
            for i, c in enumerate(prev, gap):
                cand[i] ^= exp[scale + log[c]]
            if 2 * ll <= step:
                prev = lam
                ll = step + 1 - ll
                b = d
                gap = 1
            else:
                gap += 1
            lam = cand
        while lam and lam[-1] == 0:
            lam.pop()
        deg = len(lam) - 1
        if deg > t or deg != ll:
            return None

        # evaluate lambda at alpha^{-j} for all j at once
        if self._chien is None:
            m = self.n0
            # entry [i-1, j] = exponent of alpha^{-j*i}
            idx = (m - np.outer(np.arange(1, t + 1), np.arange(m)) % m) % m
            self._chien = (self.field.arrays().exp, idx)
        exp_np, chien_idx = self._chien
        vals = np.full(self.n0, lam[0], dtype=np.int64)
        for i in range(1, deg + 1):
            if lam[i]:
                vals ^= exp_np[log[lam[i]] + chien_idx[i - 1]]
        roots = np.nonzero(vals == 0)[0]
        if len(roots) != deg:
            return None
        if roots.size and int(roots[-1]) >= self.n_core:
            return None
        return tuple(int(r) for r in roots)

    def memo(self, budget: int):
        """The memo of decodes at ``budget``, indexed by packed syndrome;
        a syndrome not decoded yet reads ``_MISS``.  Before the budget's
        first miss it is an empty shared dict, never written.  On a code
        with a dense table a slot reads ``_MISS`` until the first miss in
        its block of ``_BLOCK`` syndromes, and its decode from then on."""
        if not 0 <= budget <= self.t:
            raise ValueError(f"budget {budget} outside [0, t={self.t}]")
        return self._memos[budget]

    def decode_packed(
        self, packed: int, budget: int | None = None
    ) -> tuple[int, ...] | None:
        """BDD on the packed syndrome; the engine's miss path.

        Returns the unique error support, ascending, of total weight <=
        budget (default t, at most t) consistent with all syndromes and
        parity checks, or None on failure.  All decoding is memoized here,
        in ``memo(budget)``, after the budget and the syndrome's range are
        checked: a negative list index would wrap.  When the syndrome has
        at most 20 bits, a miss fills the whole block of ``_BLOCK`` memo
        slots holding it from the dense decode table; wider syndromes solve
        the error locator and are kept in the budget's dict, which is
        cleared when it holds ``_BDD_CACHE_CAP`` entries.
        """
        if budget is None:
            budget = self.t
        if not 0 <= budget <= self.t:
            raise ValueError(f"budget {budget} outside [0, t={self.t}]")
        if not 0 <= packed < 1 << self.packed_bits:
            raise ValueError(f"syndrome {packed} does not fit {self.packed_bits} bits")
        memo = self._memos[budget]
        hit = memo[packed]
        if hit is not _MISS:
            return hit
        memo = self._writable_memo(budget, 1)
        if self.has_table:
            self._fill_block(memo, packed, budget)
            return memo[packed]
        memo[packed] = result = self._decode_algebraic(packed, budget)
        return result

    def _writable_memo(self, budget: int, room: int):
        """The budget's memo, allocated on its first miss: a list of _MISS
        slots over every syndrome with a table, else a _DictMemo, cleared
        when it has no room for ``room`` more entries."""
        memo = self._memos[budget]
        if memo is _NO_MEMO:
            memo = [_MISS] * (1 << self.packed_bits) if self.has_table else _DictMemo()
            self._memos[budget] = memo
        elif not self.has_table and len(memo) + room > _BDD_CACHE_CAP:
            memo.clear()
        return memo

    def decode_batch(
        self, packed: np.ndarray, budget: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """BDD of an array of packed syndromes, one row per syndrome.

        Returns ``(pos, ok)``: ``ok[i]`` is False where decode_packed would
        return None, and ``pos[i]`` is an integer row of t ascending
        positions padded with -1 holding what it would return otherwise
        (all -1 on failure): table rows (int8 or int16), or the t=2 and
        t=3 closed forms over arrays, both leaving the memo untouched, or
        at t >= 4 a loop over decode_packed.
        """
        if budget is None:
            budget = self.t
        if not 0 <= budget <= self.t:
            raise ValueError(f"budget {budget} outside [0, t={self.t}]")
        packed = np.asarray(packed, dtype=np.int64)
        if packed.size and (packed.min() < 0 or packed.max() >> self.packed_bits):
            raise ValueError(f"syndromes do not fit {self.packed_bits} bits")
        if self.has_table:  # failed rows are all -1, and so is syndrome 0's
            pos = self.decode_rows(packed, budget)
            return pos, (pos[:, 0] >= 0) | (packed == 0)
        if self.batch_closed_form:
            pos, ok = self._batch_solve(packed)
        else:
            pos = np.full((packed.size, self.t), -1, dtype=np.int64)
            ok = np.zeros(packed.size, dtype=bool)
            for i, syn in enumerate(packed.tolist()):
                got = self.decode_packed(syn, budget)
                if got is not None:
                    pos[i, : len(got)] = got
                    ok[i] = True
            return pos, ok
        if budget < self.t:  # rows ascend: weight <= budget iff pos[budget] < 0
            ok &= pos[:, budget] < 0
        pos[~ok] = -1
        return pos, ok

    def decode_rows(self, packed: np.ndarray, budget: int) -> np.ndarray:
        """decode_batch's positions of nonzero syndromes the engine computed,
        unchecked: on a table code one gather, failed rows all -1."""
        if not self.has_table:
            return self.decode_batch(packed, budget)[0]
        pos = self._load_table().take(packed, axis=0)
        if budget < self.t:  # rows ascend: weight <= budget iff pos[budget] < 0
            pos[pos[:, budget] >= 0] = -1
        return pos

    def prefetch(self, packed: Iterable[int], budget: int) -> None:
        """Memoize, in one decode_batch call, the decodes of the given
        syndromes that miss ``memo(budget)``.  On a code without a table
        at most ``_BDD_CACHE_CAP`` of them are decoded, and the memo is
        cleared first if they would not fit.

        A dict memo is probed with ``in``, which skips its per-key
        ``__missing__`` call, and only the rows that decoded are turned
        into tuples; the failed ones are stored as None."""
        syns = set(packed)
        if syns and not 0 <= min(syns) <= max(syns) < 1 << self.packed_bits:
            raise ValueError(f"syndromes do not fit {self.packed_bits} bits")
        memo = self.memo(budget)
        if self.has_table:
            miss = [syn for syn in syns if memo[syn] is _MISS]
        else:
            miss = [syn for syn in syns if syn not in memo][:_BDD_CACHE_CAP]
        if not miss:
            return
        miss = np.array(miss, dtype=np.int64)
        pos, ok = self.decode_batch(miss, budget)
        memo = self._writable_memo(budget, miss.size)
        for syn in miss[~ok].tolist():
            memo[syn] = None
        pos = pos[ok]
        weight = (pos >= 0).sum(axis=1).tolist()
        for syn, row, w in zip(miss[ok].tolist(), pos.tolist(), weight):
            memo[syn] = tuple(row[:w])

    def _fill_block(self, memo: list, packed: int, budget: int) -> None:
        """Miss path of table codes: fill the block of ``_BLOCK`` memo slots
        holding ``packed`` (the whole memo when shorter) from the table's
        rows, each weight's supports as tuples built from columns.  Slot 0
        is the empty support; heavier supports and failures stay None."""
        size = min(_BLOCK, len(memo))
        lo = packed & -size
        pos = self._load_table()[lo : lo + size]
        weight = (pos >= 0).sum(axis=1)
        block = [None] * size
        if not lo:
            block[0] = ()
        for w in range(1, budget + 1):
            slots = np.flatnonzero(weight == w)
            for slot, support in zip(slots.tolist(), zip(*pos[slots, :w].T.tolist())):
                block[slot] = support
        memo[lo : lo + size] = block

    def _load_table(self) -> np.ndarray:
        """The dense decode table, built on first use."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> np.ndarray:
        """Dense decode table: row s holds the unique support of weight
        <= t with packed syndrome s, as described in the module docstring;
        d_min >= 2t+1 makes it unique, so no row is written twice.
        Supports of weight w+1 extend those of weight w by every position
        above their last; syndromes fit int32."""
        n = self.n
        contrib = np.array(self.contrib_packed, dtype=np.int32)
        dtype = np.int8 if n <= 128 else np.int16
        table = np.full((1 << self.packed_bits, self.t), -1, dtype=dtype)
        last = np.arange(n, dtype=np.int32)  # last position of each support
        syn = contrib
        support = [last]  # the supports' positions, one array per column
        for w in range(1, self.t + 1):
            for j, col in enumerate(support):
                table[syn, j] = col
            if w == self.t:
                break
            grow = n - 1 - last  # positions above each support's last
            start = np.cumsum(grow, dtype=np.int32) - grow
            last = np.arange(start[-1] + grow[-1], dtype=np.int32) - np.repeat(
                start - last - 1, grow
            )
            syn = np.repeat(syn, grow) ^ contrib[last]
            support = [np.repeat(col, grow) for col in support] + [last]
        return table

    def _decode_algebraic(self, packed: int, budget: int) -> tuple[int, ...] | None:
        """Miss path for wider syndromes, and the decode table's test
        oracle: solve the core positions from the odd syndromes, then add
        the extension bits the parity checks leave in error, within the
        budget."""
        e = self.e
        mask = (1 << self.nu) - 1
        odd = tuple((packed >> (e + i * self.nu)) & mask for i in range(self.t))
        core = self._solve_core(odd)
        if core is None:
            return None
        # extension bit i is in error iff bit i of h is set (see _batch_solve)
        h = packed & ((1 << e) - 1)
        pmask = self.parity_mask
        for pos in core:
            h ^= pmask[pos]
        out = core + tuple(self.n_core + i for i in range(e) if h >> i & 1)
        return out if len(out) <= budget else None

    def _batch_solve(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """decode_batch for wider syndromes at t=2 and t=3: the closed form
        over arrays, then the extension bits.  Positions are built as
        (t, B), one contiguous row per support slot."""
        e, nu, t, n_core = self.e, self.nu, self.t, self.n_core
        mask = (1 << nu) - 1
        odd = [packed >> (e + i * nu) & mask for i in range(t)]
        core, ok = self._closed_form(np, self.field.arrays(), odd)
        core = np.where(ok, core, -1)
        if not e:
            return core.T, ok
        # the parity checks fix which extension bits are in error: they have
        # parity_mask 1 and 2, so h = the parity bits XOR the core's parity
        # contribution has bit i set iff extension bit i is
        h = packed & ((1 << e) - 1)
        for row in core:
            h ^= self._pmask_np[row]
        pos = np.concatenate([core, np.full((e, packed.size), -1)])
        col = (core >= 0).sum(axis=0)
        for i in range(e):
            hit = np.flatnonzero(h >> i & 1)
            pos[col[hit], hit] = n_core + i
            col[hit] += 1
        return pos[:t].T, ok & (col <= t)

    # --- erasure decoding ------------------------------------------------

    def parity_check_matrix(self) -> np.ndarray:
        """Binary parity-check matrix, (nu*t + e) x n, built on first use
        from the packed columns: row r < nu*t is packed bit e + r, and row
        nu*t + j is parity bit j."""
        if self._pcm is None:
            width = (self.packed_bits + 7) // 8
            raw = b"".join(c.to_bytes(width, "little") for c in self.contrib_packed)
            bits = np.unpackbits(
                np.frombuffer(raw, np.uint8).reshape(self.n, width),
                axis=1, count=self.packed_bits, bitorder="little",
            )
            self._pcm = np.ascontiguousarray(np.roll(bits.T, -self.e, axis=0))
        return self._pcm

    def erasures_solvable(self, count):
        """Whether ``count`` erased positions may have a unique solution.
        More unknowns than syndrome bits never do, whatever the syndrome:
        their columns are dependent.  Works elementwise on an array."""
        return count <= self.packed_bits

    def erasure_decode(
        self, syndrome: int, erasures: Iterable[int]
    ) -> tuple[int, ...] | None:
        """Solve for erased positions, assuming all other bits are correct.

        ``syndrome`` is the word's packed syndrome.  Returns the erased
        positions, ascending, whose flip clears it, when the restricted
        parity system has a unique solution; None when the system is
        inconsistent or underdetermined.  Guaranteed unique for fewer than
        d_min erasures.

        Gaussian elimination over GF(2) on the packed columns
        ``contrib_packed[pos]``: an XOR basis keyed by leading bit, each
        entry carrying the bitmask of erased columns it combines.
        """
        syndrome = operator.index(syndrome)  # numpy ints have no bit_length
        if not 0 <= syndrome < 1 << self.packed_bits:
            raise ValueError(f"syndrome {syndrome} does not fit {self.packed_bits} bits")
        erased = set(erasures)
        if erased and not 0 <= min(erased) <= max(erased) < self.n:
            raise ValueError("erasure position out of range")
        if not self.erasures_solvable(len(erased)):
            return None
        idx = sorted(map(int, erased))
        contrib = self.contrib_packed
        basis: dict[int, tuple[int, int]] = {}
        for j, pos in enumerate(idx):
            v, mask = contrib[pos], 1 << j
            while v:
                lead = basis.get(v.bit_length())
                if lead is None:
                    break
                v ^= lead[0]
                mask ^= lead[1]
            if not v:
                return None  # dependent column: multiple completions
            basis[v.bit_length()] = (v, mask)
        chosen = 0
        while syndrome:
            lead = basis.get(syndrome.bit_length())
            if lead is None:
                return None  # inconsistent
            syndrome ^= lead[0]
            chosen ^= lead[1]
        return tuple(pos for j, pos in enumerate(idx) if chosen >> j & 1)


def build_component_code(nu: int, t: int, e: int = 0, s: int = 0) -> ComponentCodeSpec:
    """Construct a component code; raises ValueError on unsupported parameters."""
    return ComponentCodeSpec(nu, t, e, s)
