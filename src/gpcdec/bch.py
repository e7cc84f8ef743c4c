"""Binary BCH component codes with shortening and parity extensions.

A component code is parameterized by (nu, t, e, s):

- base code: primitive BCH of length 2^nu - 1 correcting t errors, with
  generator polynomial lcm(m_1, m_3, ..., m_{2t-1}); its degree must equal
  nu*t so that k = 2^nu - 1 - nu*t - s holds exactly
- e in {0, 1, 2} extra parity bits: e=1 appends one overall parity bit,
  e=2 appends two bits checking the odd- and even-indexed positions
  separately; either extension raises the design distance from 2t+1 to 2t+2
- s leading information positions are shortened (fixed to zero and removed)

Bounded-distance decoding (BDD) operates purely on syndromes: t odd-power
syndromes S_1, S_3, ..., S_{2t-1} plus the e parity bits.  A pattern of
weight <= t is unique for a given syndrome, so the decoder either returns
exactly that pattern or fails.  Errors on the extension bits are correctable
and count toward the weight budget.

A syndrome has one form, the packed int of ``syndrome_packed``: the e
parity bits in the low bits, then S_1, S_3, ... in nu-bit lanes.  BDD has
one result form: ``decode_packed`` returns the error support as a tuple
of ascending positions, or None on failure, and ``decode_batch`` returns
the same supports as rows of an array.  Both refuse a budget outside
[0, t].

Which method serves a code depends on its packed syndrome width nu*t + e:

- at most 20 bits, e.g. (7,2,1,0) at 15 bits and (8,2,1,61) at 17: a
  dense table over all 2^(nu*t+e) syndromes, built with numpy on the first
  cache miss, names the unique support of weight <= t per syndrome
- wider syndromes solve the error locator algebraically: closed form plus a
  quadratic table at t=2, Peterson's locator plus a cubic table at t=3,
  Berlekamp-Massey plus a Chien search at t >= 4; the decoder then
  enumerates the 2^e extension-error hypotheses and keeps the unique
  candidate consistent with every parity check

Both paths sit behind one memo keyed by (budget, syndrome).

``decode_batch`` decodes an array of syndromes in one pass with the same
results, for the engine's batched half-iterations: a gather from the dense
table, or the t=2 and t=3 closed forms evaluated over arrays with the
field's numpy tables (``FieldTable.arrays``).  At t >= 4 without a table
it loops over the memoized scalar decoder.  ``prefetch`` uses it to fill
the memo for a set of syndromes at once.

The erasure solver takes the packed syndrome too: ``erasure_decode``
eliminates over GF(2) on the packed columns ``contrib_packed`` and returns
the erased positions to flip, ascending.  ``parity_check_matrix`` builds
the same checks as a binary matrix for code outside the decoders.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .galois import FieldTable, build_field

_BDD_CACHE_CAP = 1 << 21
_TABLE_BITS = 20  # widest packed syndrome with a dense decode table (4 MiB)
_MISS = object()


def _minimal_poly(f: FieldTable, exponent: int) -> tuple[int, frozenset[int]]:
    """Minimal polynomial of alpha^exponent as a GF(2) bitmask, plus its
    conjugacy orbit of exponents."""
    m = f.order - 1
    orbit = []
    cur = exponent % m
    while cur not in orbit:
        orbit.append(cur)
        cur = cur * 2 % m
    # poly = prod (x + alpha^i) over the orbit, computed in the field
    coeffs = [1]
    for i in orbit:
        root = f.exp_table[i]
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= f.mul(c, root)
        coeffs = nxt
    mask = 0
    for d, c in enumerate(coeffs):
        if c not in (0, 1):  # conjugate-closed products always land in GF(2)
            raise AssertionError("minimal polynomial has non-binary coefficient")
        mask |= c << d
    return mask, frozenset(orbit)


class ComponentCodeSpec:
    """A (possibly extended/shortened) BCH component code.

    Attributes
    ----------
    nu, t, e, s : construction parameters
    n : transmitted length 2^nu - 1 + e - s
    k : dimension 2^nu - 1 - nu*t - s
    d_min : 2t+1 for e=0, 2t+2 otherwise
    gen_poly : generator polynomial bitmask of degree nu*t
    """

    def __init__(self, nu: int, t: int, e: int = 0, s: int = 0):
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if e not in (0, 1, 2):
            raise ValueError(f"e must be 0, 1 or 2, got {e}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        f = build_field(nu)
        n0 = f.order - 1

        gen = 1
        seen: set[frozenset[int]] = set()
        for m in range(1, 2 * t, 2):
            mask, orbit = _minimal_poly(f, m)
            if orbit in seen:
                continue
            seen.add(orbit)
            # gen *= mask over GF(2)
            acc = 0
            mm = mask
            shift = 0
            while mm:
                if mm & 1:
                    acc ^= gen << shift
                mm >>= 1
                shift += 1
            gen = acc
        r0 = gen.bit_length() - 1
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
        self.gen_poly = gen
        self.r0 = r0

        # per-position syndrome contributions for incremental updates:
        # contrib_odd[pos] = (alpha^{pos*1}, alpha^{pos*3}, ...) for core
        # positions, zeros for extension bits; parity_mask[pos] = bitmask of
        # extension checks toggled by flipping pos
        exp = f.exp_table
        m_ord = f.order - 1
        odds = range(1, 2 * t, 2)
        contrib = [tuple(exp[(pos * m) % m_ord] for m in odds) for pos in range(self.n_core)]
        contrib += [(0,) * t] * e
        if e == 0:
            pmask = [0] * self.n_core
        elif e == 1:
            pmask = [1] * self.n
        else:
            # check bit 0 covers even 1-based (odd 0-based) core positions plus
            # the first extension bit; check bit 1 covers the rest
            pmask = [2 if pos % 2 == 0 else 1 for pos in range(self.n_core)]
            pmask += [1, 2]
        self.contrib_odd: list[tuple[int, ...]] = contrib
        self.parity_mask: list[int] = pmask
        # single-int syndrome packing: parity bits in the low e bits, odd
        # syndrome i in the nu-bit lane starting at e + i*nu
        self.packed_bits = e + nu * t
        self.contrib_packed: list[int] = [
            pmask[pos]
            | sum(c << (e + i * nu) for i, c in enumerate(contrib[pos]))
            for pos in range(self.n)
        ]

        # decode-table slots hold position+1 in fields this wide, ascending
        self._slot_width = self.n.bit_length()
        self.has_table = self.packed_bits <= _TABLE_BITS
        # decode_batch runs the t=2/t=3 closed forms over arrays; otherwise
        # a code without a table loops over decode_packed
        self.batch_closed_form = not self.has_table and t in (2, 3)
        # parity_mask plus a 0 read by the -1 padding of batched supports
        self._pmask_np = np.array(pmask + [0], dtype=np.int64)

        # built on first use: (the field's antilog, Chien index matrix) for
        # Berlekamp-Massey, the dense decode table, the encoder's byte table
        self._chien: tuple[np.ndarray, np.ndarray] | None = None
        self._table: np.ndarray | None = None
        self._rem_table: list[int] | None = None
        self._bdd_cache: dict[tuple, tuple[int, ...] | None] = {}
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

    def __repr__(self) -> str:
        return (
            f"ComponentCodeSpec(nu={self.nu}, t={self.t}, e={self.e}, s={self.s}, "
            f"n={self.n}, k={self.k}, d_min={self.d_min})"
        )

    # --- encoding ------------------------------------------------------

    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Systematic encoding: message bits land at positions r0..r0+k-1."""
        msg = np.asarray(message, dtype=np.uint8)
        if msg.shape != (self.k,):
            raise ValueError(f"message must have length k={self.k}, got {msg.shape}")
        table = self._rem_table
        if table is None:
            table = self._rem_table = self._remainder_table()
        # parity = m(x) x^r0 mod g(x), reduced a byte at a time from the top
        # message byte down, as in a table-driven CRC
        r0 = self.r0
        low = (1 << r0) - 1
        rem = 0
        for byte in reversed(np.packbits(msg, bitorder="little").tobytes()):
            s = rem << 8
            rem = table[byte ^ (s >> r0)] ^ (s & low)
        parity = np.frombuffer(rem.to_bytes((r0 + 7) // 8, "little"), np.uint8)
        word = np.zeros(self.n, dtype=np.uint8)
        word[:r0] = np.unpackbits(parity, count=r0, bitorder="little")
        word[r0 : self.n_core] = msg
        if self.e == 1:
            word[self.n_core] = int(word[: self.n_core].sum()) & 1
        elif self.e == 2:
            word[self.n_core] = int(word[1 : self.n_core : 2].sum()) & 1
            word[self.n_core + 1] = int(word[0 : self.n_core : 2].sum()) & 1
        return word

    def _remainder_table(self) -> list[int]:
        """rem[b] = b(x) x^r0 mod g(x) for every byte b, by linearity over
        the bits of b."""
        g, r0 = self.gen_poly, self.r0
        by_bit = []
        v = g ^ (1 << r0)  # x^r0 mod g
        for _ in range(8):
            by_bit.append(v)
            v <<= 1
            if v >> r0 & 1:
                v ^= g
        rem = [0] * 256
        for b in range(1, 256):
            low = b & -b
            rem[b] = rem[b ^ low] ^ by_bit[low.bit_length() - 1]
        return rem

    # --- syndromes -----------------------------------------------------

    def syndrome(self, word: Sequence[int]) -> int:
        """Packed syndrome of a received word (see syndrome_packed)."""
        w = np.asarray(word, dtype=np.uint8)
        if w.shape != (self.n,):
            raise ValueError(f"word must have length n={self.n}, got {w.shape}")
        return self.syndrome_packed(np.flatnonzero(w).tolist())

    # --- bounded-distance decoding --------------------------------------

    def _solve_core(self, odd: tuple[int, ...]) -> tuple[int, ...] | None:
        """Unique error pattern of weight <= t on the core positions matching
        the odd-power syndromes, or None.  Shortened positions are rejected.

        t=2 and t=3 solve the error locator in closed form and find its
        roots by table; larger t run Berlekamp-Massey and a Chien search.
        decode_packed reaches this only for syndromes wider than 20 bits;
        narrower ones read the dense decode table, for which this is the
        test oracle."""
        if not any(odd):
            return ()
        if self.t == 2:
            return self._solve_core_t2(*odd)
        if self.t == 3:
            return self._solve_core_t3(*odd)
        return self._solve_core_bm(odd)

    def _solve_core_t2(self, s1: int, s3: int) -> tuple[int, ...] | None:
        if s1 == 0:
            return None  # lone S3: no weight<=2 pattern has S1=0, S3!=0
        f = self.field
        log = f.log_table
        exp = f.exp_table
        m = f.order - 1
        l1 = log[s1]
        d = s3 ^ exp[l1 * 3 % m]
        if d == 0:
            return (l1,) if l1 < self.n_core else None
        # two errors X1, X2: X1+X2 = S1, X1*X2 = (S3 + S1^3)/S1
        return self._two_errors(s1, exp[(log[d] - l1) % m])

    def _two_errors(self, s1: int, prod: int) -> tuple[int, ...] | None:
        """Positions of the two roots of x^2 + s1*x + prod, or None when the
        field holds no root or a root lies past the core positions.  Callers
        pass s1, prod != 0, so the roots are distinct and nonzero: x = s1*y
        with y^2 + y = prod/s1^2 != 0, hence y not in {0, 1}."""
        f = self.field
        log = f.log_table
        exp = f.exp_table
        m = f.order - 1
        l1 = log[s1]
        y = f.solve_quadratic(exp[(log[prod] - 2 * l1) % m])
        if y < 0:
            return None
        x1 = exp[(l1 + log[y]) % m]
        p1, p2 = log[x1], log[x1 ^ s1]
        if p1 >= self.n_core or p2 >= self.n_core:
            return None
        return (p1, p2) if p1 < p2 else (p2, p1)

    def _solve_core_t3(self, s1: int, s3: int, s5: int) -> tuple[int, ...] | None:
        """Peterson's closed-form locator for t=3 plus table root finding.

        With D = S1^3 + S3 the locator x^3 + g1 x^2 + g2 x + g3 has g1 = S1,
        g2 = (S1^2 S3 + S5)/D and g3 = D + S1 g2.  D vanishes for at most
        one error, since D = (X1+X2)(X1+X3)(X2+X3) for three errors and
        X1 X2 (X1+X2) for two; g3 = X1 X2 X3 vanishes for two."""
        f = self.field
        log = f.log_table
        exp = f.exp_table
        m = f.order - 1
        l1 = log[s1]
        d = s3 ^ exp[3 * l1 % m] if s1 else s3
        if d == 0:
            if s1 and s5 == exp[5 * l1 % m] and l1 < self.n_core:
                return (l1,)
            return None
        num = s5 ^ exp[(2 * l1 + log[s3]) % m] if s1 and s3 else s5
        g2 = exp[(log[num] - log[d]) % m] if num else 0
        if s1 and g2 and exp[(l1 + log[g2]) % m] == d:
            return self._two_errors(s1, g2)  # g3 = 0
        # x = y + g1 turns the locator into y^3 + p y + q with
        # p = g1^2 + g2 and q = g1 g2 + g3 = D
        p = g2 ^ exp[2 * l1 % m] if s1 else g2
        if p:
            # y = sqrt(p) z turns it into z^3 + z = D / p^(3/2)
            lp = log[p]
            lr = lp >> 1 if lp % 2 == 0 else (lp + m) >> 1  # log sqrt(p)
            zs = f.solve_cubic(exp[(log[d] - 3 * lr) % m])
            xs = [exp[(lr + log[z]) % m] ^ s1 for z in zs]
        else:
            xs = [y ^ s1 for y in f.cube_roots(d)]
        if not xs or 0 in xs:
            return None
        pos = sorted(log[x] for x in xs)
        if pos[2] >= self.n_core:
            return None
        return tuple(pos)

    def _solve_core_bm(self, odd: tuple[int, ...]) -> tuple[int, ...] | None:
        """Berlekamp-Massey over the 2t syndromes plus a vectorized root search."""
        f = self.field
        t = self.t
        syn = [0] * (2 * t)  # S_1 .. S_2t
        for i, v in enumerate(odd):
            syn[2 * i] = v
        for mm in range(2, 2 * t + 1, 2):
            syn[mm - 1] = f.mul(syn[mm // 2 - 1], syn[mm // 2 - 1])

        lam = [1]
        prev = [1]
        ll = 0
        gap = 1
        b = 1
        for step in range(2 * t):
            d = syn[step]
            for i in range(1, ll + 1):
                if i < len(lam) and lam[i]:
                    d ^= f.mul(lam[i], syn[step - i])
            if d == 0:
                gap += 1
                continue
            scale = f.div(d, b)
            cand = lam[:]
            shift = [0] * gap + prev
            if len(shift) > len(cand):
                cand += [0] * (len(shift) - len(cand))
            for i, c in enumerate(shift):
                if c:
                    cand[i] ^= f.mul(scale, c)
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
            self._chien = (f.arrays().exp, idx)
        exp_np, chien_idx = self._chien
        log = f.log_table
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

    def syndrome_packed(self, positions: Iterable[int]) -> int:
        """Single-int syndrome of an error pattern given by its support."""
        acc = 0
        contrib = self.contrib_packed
        for pos in positions:
            acc ^= contrib[pos]
        return acc

    def decode_packed(
        self, packed: int, budget: int | None = None
    ) -> tuple[int, ...] | None:
        """BDD on the packed syndrome; the engine's hot path.

        Returns the unique error support, ascending, of total weight <=
        budget (default t, at most t) consistent with all syndromes and
        parity checks, or None on failure.  All decoding is memoized here,
        keyed by (budget, packed syndrome).  A miss reads the dense decode
        table when the syndrome has at most 20 bits and solves the error
        locator otherwise.
        """
        if budget is None:
            budget = self.t
        key = (budget, packed)
        cache = self._bdd_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        if not 0 <= packed < 1 << self.packed_bits:
            raise ValueError(f"syndrome {packed} does not fit {self.packed_bits} bits")
        if not 0 <= budget <= self.t:
            raise ValueError(f"budget {budget} outside [0, t={self.t}]")
        if self.has_table:
            result = self._decode_table(packed, budget)
        else:
            result = self._decode_algebraic(packed, budget)
        if len(cache) < _BDD_CACHE_CAP:
            cache[key] = result
        return result

    def decode_batch(
        self, packed: np.ndarray, budget: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """BDD of an array of packed syndromes, one row per syndrome.

        Returns ``(pos, ok)``: ``ok[i]`` is False where decode_packed would
        return None, and ``pos[i]`` is an int64 row of t ascending
        positions padded with -1 holding what it would return otherwise
        (all -1 on failure).  Codes with a dense table gather from it; wider
        codes at t=2 and t=3 run the closed forms over arrays.  Both leave
        the memo untouched.  Wider codes at t >= 4 loop over decode_packed.
        """
        if budget is None:
            budget = self.t
        if not 0 <= budget <= self.t:
            raise ValueError(f"budget {budget} outside [0, t={self.t}]")
        packed = np.asarray(packed, dtype=np.int64)
        if packed.size and (packed.min() < 0 or packed.max() >> self.packed_bits):
            raise ValueError(f"syndromes do not fit {self.packed_bits} bits")
        if self.has_table:
            pos, ok = self._batch_table(packed)
        elif self.batch_closed_form:
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
        if budget < self.t:
            ok &= (pos >= 0).sum(axis=1) <= budget
        pos[~ok] = -1
        return pos, ok

    def prefetch(self, packed: Iterable[int], budget: int) -> None:
        """Memoize, in one decode_batch call, the decodes of the given
        syndromes that miss the memo.  The memo's size cap still holds."""
        cache = self._bdd_cache
        miss = [syn for syn in set(packed) if (budget, syn) not in cache]
        del miss[max(0, _BDD_CACHE_CAP - len(cache)) :]
        if not miss:
            return
        pos, ok = self.decode_batch(np.array(miss, dtype=np.int64), budget)
        weight = np.where(ok, (pos >= 0).sum(axis=1), -1).tolist()
        for syn, row, w in zip(miss, pos.tolist(), weight):
            cache[(budget, syn)] = tuple(row[:w]) if w >= 0 else None

    def _decode_table(self, packed: int, budget: int) -> tuple[int, ...] | None:
        """Miss path for syndromes of at most 20 bits: one table read."""
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        v = int(table[packed])
        if v < 0:
            return None
        width = self._slot_width
        field_mask = (1 << width) - 1
        out = []
        while v:
            out.append((v & field_mask) - 1)
            v >>= width
        return tuple(out) if len(out) <= budget else None

    def _build_table(self) -> np.ndarray:
        """Dense decode table: slot s holds the unique support of weight
        <= t with packed syndrome s, as position+1 in ascending
        ``_slot_width``-bit fields (0 for the empty support), or -1 when no
        such support exists.  d_min >= 2t+1 makes the support unique, so no
        slot is written twice.  An entry fits int32: n <= 2^nu + 1, so the
        t fields take at most t(nu+1) <= 20 + t <= 26 bits (nu >= 3), and
        so does every syndrome, so the growth runs in int32 throughout.
        Supports of weight w+1 extend those of weight w by every position
        above their last."""
        n, width = self.n, self._slot_width
        contrib = np.array(self.contrib_packed, dtype=np.int32)
        table = np.full(1 << self.packed_bits, -1, dtype=np.int32)
        table[0] = 0
        last = np.arange(n, dtype=np.int32)  # last position of each support
        syn = contrib
        entry = last + 1
        for w in range(1, self.t + 1):
            table[syn] = entry
            if w == self.t:
                break
            grow = n - 1 - last  # positions above each support's last
            start = np.cumsum(grow, dtype=np.int32) - grow
            last = np.arange(start[-1] + grow[-1], dtype=np.int32) - np.repeat(
                start - last - 1, grow
            )
            syn = np.repeat(syn, grow) ^ contrib[last]
            entry = np.repeat(entry, grow) | (last + 1) << (w * width)
        return table

    def _decode_algebraic(self, packed: int, budget: int) -> tuple[int, ...] | None:
        """Miss path for wider syndromes, and the decode table's test
        oracle: solve the core positions from the odd syndromes, then pick
        the extension-error hypothesis that matches the parity bits within
        the budget."""
        e = self.e
        ext = packed & ((1 << e) - 1)  # _split, inlined on the miss path
        mask = (1 << self.nu) - 1
        odd = tuple((packed >> (e + i * self.nu)) & mask for i in range(self.t))
        core = self._solve_core(odd)
        if core is None:
            return None
        pmask = self.parity_mask
        core_par = 0
        for pos in core:
            core_par ^= pmask[pos]
        w = len(core)
        for h in range(1 << e):
            if w + bin(h).count("1") > budget:
                continue
            par = core_par
            if h & 1:
                par ^= pmask[self.n_core]
            if h & 2:
                par ^= pmask[self.n_core + 1]
            if par == ext:
                return core + tuple(self.n_core + i for i in range(e) if h >> i & 1)
        return None

    def _batch_table(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """decode_batch for syndromes of at most 20 bits: unpack the table's
        fields; a field of 0 is padding and reads as position -1."""
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        v = table[packed].astype(np.int64)
        shifts = np.arange(self.t)[:, None] * self._slot_width
        pos = ((v >> shifts) & ((1 << self._slot_width) - 1)) - 1
        return pos.T, v >= 0

    def _batch_solve(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """decode_batch for wider syndromes at t=2 and t=3: the closed forms
        of _solve_core_t2/_solve_core_t3 over arrays, then the extension
        bits.  Positions are built as (t, B), one contiguous row per
        support slot.  A row is valid when every core position lies below
        n_core; a missing root reads as the log of 0, the sentinel, which
        does not."""
        e, nu, t, n_core = self.e, self.nu, self.t, self.n_core
        mask = (1 << nu) - 1
        odd = [packed >> (e + i * nu) & mask for i in range(t)]
        f = self.field.arrays()
        core = self._batch_core_t2(f, *odd) if t == 2 else self._batch_core_t3(f, *odd)
        ok = core.max(axis=0) < n_core
        core[:, ~ok] = -1
        if not e:
            return core.T, ok
        # the parity checks fix which extension bits are in error: with
        # parity_mask 1 and 2 on them, hypothesis h matches iff h equals
        # the parity bits XOR the core's parity contribution
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

    def _batch_two(self, f, s1: np.ndarray, l1: np.ndarray, c: np.ndarray):
        """Positions, ascending, of the roots S1*y and S1*(y+1) of the
        two-error locator, where y^2 + y = c; the sentinel where c has no
        root (the table's 0), as in _two_errors."""
        x1 = f.exp[l1 + f.log[f.quad[c]]]
        a, b = f.log[x1], f.log[x1 ^ s1]
        return np.minimum(a, b), np.maximum(a, b)

    def _batch_core_t2(self, f, s1: np.ndarray, s3: np.ndarray) -> np.ndarray:
        """_solve_core_t2 over arrays: (2, B) core positions, -1 padded."""
        exp, log = f.exp, f.log
        l1 = log[s1]
        d = s3 ^ exp[3 * l1]
        # two errors: x = S1 y with y^2 + y = D / S1^3
        a, b = self._batch_two(f, s1, l1, exp[log[d] + 3 * f.nlog[s1]])
        one = d == 0
        core = np.array([np.where(one, l1, a), np.where(one, -1, b)])
        core[:, (s1 | s3) == 0] = -1
        return core

    def _batch_core_t3(
        self, f, s1: np.ndarray, s3: np.ndarray, s5: np.ndarray
    ) -> np.ndarray:
        """_solve_core_t3 over arrays: (3, B) core positions, -1 padded.
        Every branch is evaluated for every row, then each row takes the
        branch the scalar form would return from."""
        exp, log = f.exp, f.log
        l1 = log[s1]
        d = s3 ^ exp[3 * l1]
        g2 = exp[log[s5 ^ exp[2 * l1 + log[s3]]] + f.nlog[d]]
        # three errors: y^3 + p y + D with x = y + S1, y = sqrt(p) z and
        # z^3 + z = D / p^(3/2); when p = 0, y runs over the cube roots of D
        p = g2 ^ exp[2 * l1]
        r = f.sqrt[p]
        c, lr, dp = exp[log[d] + 3 * f.nlog[r]], log[r], d * (p == 0)
        y = [exp[lr + log[zk[c]]] | rk[dp] for zk, rk in zip(f.cubic, f.cbrt)]
        x0, x1, x2 = (log[yk ^ s1] for yk in y)
        x0, x1 = np.minimum(x0, x1), np.maximum(x0, x1)
        x1, x2 = np.minimum(x1, x2), np.maximum(x1, x2)
        x0, x1 = np.minimum(x0, x1), np.maximum(x0, x1)
        x0[y[0] == 0] = f.zero  # fewer than three roots
        # g3 = D + S1 g2 = 0: two errors
        a, b = self._batch_two(f, s1, l1, exp[log[g2] + 2 * f.nlog[s1]])
        two = exp[l1 + log[g2]] == d
        # D = 0: at most one error, and then S5 = S1^5
        one = d == 0
        single = np.where(s5 == exp[5 * l1], l1, f.zero)
        core = np.array([
            np.where(one, single, np.where(two, a, x0)),
            np.where(one | two, np.where(one, -1, b), x1),
            np.where(one | two, -1, x2),
        ])
        core[:, (s1 | s3 | s5) == 0] = -1
        return core

    # --- erasure decoding ------------------------------------------------

    def parity_check_matrix(self) -> np.ndarray:
        """Binary parity-check matrix, (nu*t + e) x n, built on first use."""
        if self._pcm is None:
            rows = self.nu * self.t + self.e
            h = np.zeros((rows, self.n), dtype=np.uint8)
            for pos in range(self.n_core):
                for i, c in enumerate(self.contrib_odd[pos]):
                    for b in range(self.nu):
                        h[i * self.nu + b, pos] = (c >> b) & 1
            base = self.nu * self.t
            for pos in range(self.n):
                mask = self.parity_mask[pos]
                for i in range(self.e):
                    if mask >> i & 1:
                        h[base + i, pos] = 1
            self._pcm = h
        return self._pcm

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
        if len(erased) > self.packed_bits:
            return None  # more unknowns than checks: dependent columns
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
