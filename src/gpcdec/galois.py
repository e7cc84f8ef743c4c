"""Binary extension field arithmetic GF(2^nu) via exp/log tables.

Fields are built for 3 <= nu <= 12 from the lexicographically smallest
primitive polynomial of degree nu, found by exhaustive search over monic
polynomials with nonzero constant term.  For reference, the search yields

    nu :  3     4      5      6      7      8        9       10      11      12
    p(x): x3+x+1 x4+x+1 x5+x2+1 x6+x+1 x7+x+1 x8+x4+x3+x2+1 x9+x4+1 x10+x3+1
          x11+x2+1 x12+x6+x4+x+1

Field elements are plain Python ints in [0, 2^nu): the integer's bits are the
polynomial coefficients.  Addition is XOR; multiplication and inversion go
through the tables.  ``FieldTable.arrays`` holds numpy copies of the tables
for arithmetic over arrays of elements, built once per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NU_MIN = 3
NU_MAX = 12


def _xtimes(value: int, poly: int, nu: int) -> int:
    """Multiply by x modulo poly (one LFSR step)."""
    value <<= 1
    if value >> nu & 1:
        value ^= poly
    return value


def _is_primitive(poly: int, nu: int) -> bool:
    """True iff x has multiplicative order 2^nu - 1 modulo poly.

    The order test subsumes irreducibility: if x generates 2^nu - 1 distinct
    nonzero residues, every nonzero residue is a unit, so the quotient ring is
    a field and poly is irreducible.
    """
    order = (1 << nu) - 1
    cur = 1
    for i in range(1, order + 1):
        cur = _xtimes(cur, poly, nu)
        if cur == 1:
            return i == order
    return False


# widest log combination the batched decoders index the antilog table with:
# a sum of at most this many logs (counted with multiplicity), e.g. S1^5
LOG_TERMS = 5


class FieldArrays(NamedTuple):
    """numpy tables for arithmetic over arrays of field elements.

    ``log[0]`` and ``nlog[0]`` hold the sentinel ``zero``, and ``exp`` is
    alpha^(i mod (2^nu - 1)) below ``zero`` and 0 from ``zero`` on.  A sum
    of at most ``LOG_TERMS`` logs of nonzero elements stays below ``zero``,
    and one sentinel term lifts it to ``zero`` or above, so a product or
    quotient of arrays is one ``exp[...]`` read with neither a modulo nor a
    select for zero operands: a product with 0, or a quotient by 0, reads 0.
    Tables of roots hold 0 where no root exists; the three roots of one
    value share a column, so a gather yields one row per root.
    """

    zero: int
    log: np.ndarray  # (2^nu,) log a
    nlog: np.ndarray  # (2^nu,) log 1/a
    exp: np.ndarray  # (LOG_TERMS * zero + 1,) antilog, periodic below zero
    sqrt: np.ndarray  # (2^nu,) the square root of a
    quad: np.ndarray  # (2^nu,) one y with y^2 + y = c, or 0
    cubic: np.ndarray  # (3, 2^nu) solve_cubic(c) down column c, or zeros
    cbrt: np.ndarray  # (3, 2^nu) cube_roots(a) down column a, or zeros


@dataclass(frozen=True)
class FieldTable:
    """GF(2^nu) with antilog/log tables.

    exp_table[i] = alpha^i for 0 <= i < 2^nu - 1, where alpha is the class of
    x (a primitive element by construction).  log_table[a] is the discrete log
    of a for nonzero a; log_table[0] = -1 is a sentinel.
    """

    nu: int
    prim_poly: int
    exp_table: tuple[int, ...]
    log_table: tuple[int, ...]
    _quad_table: tuple[int, ...] = field(repr=False, default=())
    _cubic_table: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    _arrays: FieldArrays | None = field(repr=False, default=None, compare=False)

    @property
    def order(self) -> int:
        """Number of field elements 2^nu."""
        return 1 << self.nu

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        m = self.order - 1
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % m]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^nu)")
        m = self.order - 1
        return self.exp_table[(m - self.log_table[a]) % m]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0 in GF(2^nu)")
            return 0
        m = self.order - 1
        return self.exp_table[(self.log_table[a] * e) % m]

    def solve_quadratic(self, c: int) -> int:
        """Return y with y^2 + y = c, or -1 if no solution exists.

        y and y+1 are the two solutions when one exists (half of all c).
        Backed by a table built on first use.
        """
        tbl = self._quad_table
        if not tbl:
            sol = [-1] * self.order
            for y in range(self.order):
                key = self.mul(y, y) ^ y
                if sol[key] == -1:
                    sol[key] = y
            tbl = tuple(sol)
            object.__setattr__(self, "_quad_table", tbl)
        return tbl[c]

    def solve_cubic(self, c: int) -> tuple[int, ...]:
        """Return the three distinct z with z^3 + z = c, ascending, or ()
        when the cubic has fewer than three distinct roots in the field.

        Backed by a table built on first use.  c = 0 is the only value with
        a repeated root (0 and 1 twice), so its entry is () as well.
        """
        tbl = self._cubic_table
        if not tbl:
            exp, log = self.exp_table, self.log_table
            m = self.order - 1
            roots: list[list[int]] = [[] for _ in range(self.order)]
            for z in range(1, self.order):
                roots[exp[3 * log[z] % m] ^ z].append(z)
            tbl = tuple(tuple(r) if len(r) == 3 else () for r in roots)
            object.__setattr__(self, "_cubic_table", tbl)
        return tbl[c]

    def cube_roots(self, a: int) -> tuple[int, ...]:
        """Return the three distinct cube roots of a, ascending by log, or ()
        when a has fewer than three.  Three exist only when 3 divides
        2^nu - 1 and log a is a multiple of 3."""
        m = self.order - 1
        if a == 0 or m % 3:
            return ()
        la = self.log_table[a]
        if la % 3:
            return ()
        return tuple(self.exp_table[la // 3 + k * (m // 3)] for k in range(3))

    def arrays(self) -> FieldArrays:
        """The field's numpy tables, built on first use and shared by every
        code over this field."""
        got = self._arrays
        if got is None:
            got = self._build_arrays()
            object.__setattr__(self, "_arrays", got)
        return got

    def _build_arrays(self) -> FieldArrays:
        q = self.order
        m = q - 1
        zero = LOG_TERMS * m
        log = np.array(self.log_table, dtype=np.int64)
        log[0] = zero
        nlog = (m - log) % m
        nlog[0] = zero
        exp = np.zeros(LOG_TERMS * zero + 1, dtype=np.int64)
        exp[:zero] = np.tile(self.exp_table, LOG_TERMS)
        # sqrt(a) = a^(2^(nu-1)): halve an even log, or log + m when odd
        half = np.where(log % 2 == 0, log, log + m) // 2
        sqrt = exp[half % m]
        sqrt[0] = 0
        self.solve_quadratic(0)  # builds the tuple tables read below
        self.solve_cubic(0)
        quad = np.maximum(np.array(self._quad_table, dtype=np.int64), 0)
        cubic = np.zeros((3, q), dtype=np.int64)
        three = [c for c, roots in enumerate(self._cubic_table) if roots]
        cubic[:, three] = np.array([self._cubic_table[c] for c in three]).T
        cbrt = np.zeros((3, q), dtype=np.int64)
        if m % 3 == 0:  # as in cube_roots: log a a multiple of 3
            a = np.flatnonzero(log[1:] % 3 == 0) + 1
            cbrt[:, a] = exp[log[a] // 3 + np.arange(3)[:, None] * (m // 3)]
        return FieldArrays(zero, log, nlog, exp, sqrt, quad, cubic, cbrt)


_FIELD_CACHE: dict[int, FieldTable] = {}


def build_field(nu: int) -> FieldTable:
    """Construct GF(2^nu) for 3 <= nu <= 12.

    The primitive polynomial is the lexicographically smallest one of degree
    nu (smallest integer bitmask among monic degree-nu polynomials), found by
    exhaustive search with an order check on x.
    """
    if not NU_MIN <= nu <= NU_MAX:
        raise ValueError(f"nu must be in [{NU_MIN}, {NU_MAX}], got {nu}")
    cached = _FIELD_CACHE.get(nu)
    if cached is not None:
        return cached

    poly = -1
    for candidate in range((1 << nu) | 1, 1 << (nu + 1), 2):
        if _is_primitive(candidate, nu):
            poly = candidate
            break
    if poly < 0:  # unreachable: primitive polynomials exist for every degree
        raise ValueError(f"no primitive polynomial of degree {nu}")

    q = 1 << nu
    exp = [0] * (q - 1)
    log = [-1] * q
    cur = 1
    for i in range(q - 1):
        exp[i] = cur
        log[cur] = i
        cur = _xtimes(cur, poly, nu)

    table = FieldTable(nu=nu, prim_poly=poly, exp_table=tuple(exp), log_table=tuple(log))
    _FIELD_CACHE[nu] = table
    return table

