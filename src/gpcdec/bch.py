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
and count toward the weight budget: the decoder enumerates the 2^e
extension-error hypotheses and keeps the unique candidate consistent with
every parity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .galois import FieldTable, build_field

_BDD_CACHE_CAP = 1 << 21
_MISS = object()


@dataclass(frozen=True)
class Syndrome:
    """Component syndrome: t odd-power field elements plus e parity bits."""

    odd: tuple[int, ...]
    ext: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.odd) and not any(self.ext)

    def __xor__(self, other: "Syndrome") -> "Syndrome":
        return Syndrome(
            tuple(a ^ b for a, b in zip(self.odd, other.odd)),
            tuple(a ^ b for a, b in zip(self.ext, other.ext)),
        )


@dataclass(frozen=True)
class DecodeOutcome:
    """BDD result: either a definite error pattern or failure."""

    corrected: bool
    error_positions: tuple[int, ...] = ()


FAIL = DecodeOutcome(False, ())


def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


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

        # Chien-search index matrix: entry [i-1, j] = exponent of alpha^{-j*i}
        self._chien_idx = np.array(
            [[(m_ord - (j * i) % m_ord) % m_ord for j in range(n0)] for i in range(1, t + 1)],
            dtype=np.int64,
        )
        self._exp_np = f.exp_np()
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
        poly = int.from_bytes(np.packbits(msg, bitorder="little").tobytes(), "little")
        poly <<= self.r0
        cw_int = poly ^ _poly_mod(poly, self.gen_poly)
        core = np.frombuffer(cw_int.to_bytes((self.n_core + 7) // 8, "little"), np.uint8)
        word = np.zeros(self.n, dtype=np.uint8)
        word[: self.n_core] = np.unpackbits(core, count=self.n_core, bitorder="little")
        if self.e == 1:
            word[self.n_core] = int(word[: self.n_core].sum()) & 1
        elif self.e == 2:
            word[self.n_core] = int(word[1 : self.n_core : 2].sum()) & 1
            word[self.n_core + 1] = int(word[0 : self.n_core : 2].sum()) & 1
        return word

    # --- syndromes -----------------------------------------------------

    def syndrome_key(self, positions: Iterable[int]) -> tuple[tuple[int, ...], int]:
        """(odd syndromes, packed parity bits) of an error pattern given by
        its support. This is the engine-facing representation."""
        return self._split(self.syndrome_packed(positions))

    def _split(self, packed: int) -> tuple[tuple[int, ...], int]:
        """(odd syndromes, packed parity bits) of a packed syndrome."""
        e, nu = self.e, self.nu
        mask = (1 << nu) - 1
        odd = tuple((packed >> (e + i * nu)) & mask for i in range(self.t))
        return odd, packed & ((1 << e) - 1)

    def syndrome(self, word: Sequence[int]) -> Syndrome:
        w = np.asarray(word, dtype=np.uint8)
        if w.shape != (self.n,):
            raise ValueError(f"word must have length n={self.n}, got {w.shape}")
        odd, ext = self._split(self.syndrome_packed(np.flatnonzero(w).tolist()))
        return Syndrome(odd, tuple((ext >> i) & 1 for i in range(self.e)))

    # --- bounded-distance decoding --------------------------------------

    def _solve_core(self, odd: tuple[int, ...]) -> tuple[int, ...] | None:
        """Unique error pattern of weight <= t on the core positions matching
        the odd-power syndromes, or None.  Shortened positions are rejected.

        t=2 and t=3 solve the error locator in closed form and find its
        roots by table; larger t run Berlekamp-Massey and a Chien search."""
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
        log = self.field.log_table
        vals = np.full(self.n0, lam[0], dtype=np.int64)
        for i in range(1, deg + 1):
            if lam[i]:
                vals ^= self._exp_np[log[lam[i]] + self._chien_idx[i - 1]]
        roots = np.nonzero(vals == 0)[0]
        if len(roots) != deg:
            return None
        if roots.size and int(roots[-1]) >= self.n_core:
            return None
        return tuple(int(r) for r in roots)

    def decode_key(
        self, odd: tuple[int, ...], ext: int, budget: int | None = None
    ) -> tuple[int, ...] | None:
        """BDD on the packed syndrome representation.

        Returns the unique error support of total weight <= budget (default t)
        consistent with all syndromes and parity checks, or None on failure.
        Results are memoized; the decoder is a pure function of the syndrome.
        """
        if budget is None:
            budget = self.t
        packed = ext
        shift = self.e
        for v in odd:
            packed |= v << shift
            shift += self.nu
        return self.decode_packed(packed, budget)

    def syndrome_packed(self, positions: Iterable[int]) -> int:
        """Single-int syndrome of an error pattern given by its support."""
        acc = 0
        contrib = self.contrib_packed
        for pos in positions:
            acc ^= contrib[pos]
        return acc

    def decode_packed(self, packed: int, budget: int | None = None):
        """BDD on the single-int syndrome; the engine's hot path.

        Same contract as decode_key.  All decoding is memoized here, keyed
        by (budget, packed syndrome).
        """
        if budget is None:
            budget = self.t
        key = (budget, packed)
        cache = self._bdd_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        e = self.e
        ext = packed & ((1 << e) - 1)  # _split, inlined on the miss path
        mask = (1 << self.nu) - 1
        odd = tuple((packed >> (e + i * self.nu)) & mask for i in range(self.t))
        core = self._solve_core(odd)
        result: tuple[int, ...] | None = None
        if core is not None:
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
                    extra = tuple(self.n_core + i for i in range(e) if h >> i & 1)
                    result = core + extra
                    break
        if len(cache) < _BDD_CACHE_CAP:
            cache[key] = result
        return result

    def bdd_decode(self, syn: Syndrome, budget: int | None = None) -> DecodeOutcome:
        """Bounded-distance decoding from a syndrome alone."""
        ext = 0
        for i, bit in enumerate(syn.ext):
            ext |= (bit & 1) << i
        got = self.decode_key(syn.odd, ext, budget)
        if got is None:
            return FAIL
        return DecodeOutcome(True, got)

    def idealized_bdd_decode(
        self, received: Sequence[int], true_codeword: Sequence[int]
    ) -> DecodeOutcome:
        """Genie-aided BDD: corrects iff the received word is within distance t
        of the true codeword; never miscorrects."""
        r = np.asarray(received, dtype=np.uint8)
        c = np.asarray(true_codeword, dtype=np.uint8)
        if r.shape != (self.n,) or c.shape != (self.n,):
            raise ValueError(f"words must have length n={self.n}")
        if not self.syndrome(c).is_zero:
            raise ValueError("true_codeword is not a codeword")
        diff = np.nonzero(r ^ c)[0]
        if len(diff) > self.t:
            return FAIL
        return DecodeOutcome(True, tuple(int(p) for p in diff))

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
        self, word: Sequence[int], erasures: Iterable[int]
    ) -> np.ndarray | None:
        """Fill in the erased positions assuming all other bits are correct.

        Returns the completed codeword when the restricted parity system has a
        unique solution; None when the system is inconsistent or
        underdetermined.  Guaranteed unique for fewer than d_min erasures.
        """
        w = np.asarray(word, dtype=np.uint8).copy()
        if w.shape != (self.n,):
            raise ValueError(f"word must have length n={self.n}")
        idx = sorted(set(int(p) for p in erasures))
        if idx and not 0 <= idx[0] <= idx[-1] < self.n:
            raise ValueError("erasure position out of range")
        h = self.parity_check_matrix()
        rhs = (h @ w) % 2
        if not idx:
            return w if not rhs.any() else None
        aug = np.concatenate([h[:, idx], rhs[:, None]], axis=1).astype(np.uint8)
        nrows, ncols = aug.shape
        r = 0
        for c in range(ncols - 1):
            piv = None
            for i in range(r, nrows):
                if aug[i, c]:
                    piv = i
                    break
            if piv is None:
                return None  # free variable: multiple completions
            if piv != r:
                aug[[r, piv]] = aug[[piv, r]]
            mask = aug[:, c].copy()
            mask[r] = 0
            aug[mask == 1] ^= aug[r]
            r += 1
        if aug[r:, -1].any():
            return None  # inconsistent
        # full column rank: pivot row j corresponds to erased position idx[j]
        for j, pos in enumerate(idx):
            if aug[j, -1]:
                w[pos] ^= 1
        return w


def build_component_code(nu: int, t: int, e: int = 0, s: int = 0) -> ComponentCodeSpec:
    """Construct a component code; raises ValueError on unsupported parameters."""
    return ComponentCodeSpec(nu, t, e, s)


def encode(code: ComponentCodeSpec, message: Sequence[int]) -> np.ndarray:
    return code.encode(message)


def syndrome(code: ComponentCodeSpec, word: Sequence[int]) -> Syndrome:
    return code.syndrome(word)


def bdd_decode(code: ComponentCodeSpec, syn: Syndrome) -> DecodeOutcome:
    return code.bdd_decode(syn)


def idealized_bdd_decode(
    code: ComponentCodeSpec, received: Sequence[int], true_codeword: Sequence[int]
) -> DecodeOutcome:
    return code.idealized_bdd_decode(received, true_codeword)


def erasure_decode(
    code: ComponentCodeSpec, word: Sequence[int], erasures: Iterable[int]
) -> np.ndarray | None:
    return code.erasure_decode(word, erasures)
