"""Binary extension field arithmetic GF(2^nu) via exp/log tables.

Fields are built for 3 <= nu <= 12 from the lexicographically smallest
primitive polynomial of degree nu, found by exhaustive search over monic
polynomials with nonzero constant term.  For reference, the search yields

    nu :  3     4      5      6      7      8        9       10      11      12
    p(x): x3+x+1 x4+x+1 x5+x2+1 x6+x+1 x7+x+1 x8+x4+x3+x2+1 x9+x4+1 x10+x3+1
          x11+x2+1 x12+x6+x4+x+1

Field elements are plain Python ints in [0, 2^nu): the integer's bits are the
polynomial coefficients.  Addition is XOR; a product or quotient is one
read of a sentinel antilog table (see ``FieldArrays``).  ``FieldTable.arrays``
holds those tables, plus the root tables the BCH decoders read, as numpy
arrays, and ``FieldTable.lists`` the same tables as Python lists, so one
expression can run over an array of elements or over a single one.  Both
are built once per field.
"""

from __future__ import annotations

import operator
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


# widest log combination the closed-form decoders index the antilog table
# with: a sum of at most this many logs (counted with multiplicity), e.g. S1^5
LOG_TERMS = 5


class FieldArrays(NamedTuple):
    """Tables for arithmetic over arrays of field elements: numpy arrays
    from ``FieldTable.arrays``, or Python lists from ``FieldTable.lists``.

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
    cubic: np.ndarray  # (3, 2^nu) the z != 0 with z^3 + z = c, ascending, or zeros
    cbrt: np.ndarray  # (3, 2^nu) the cube roots of a, ascending by log, or zeros


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
    _arrays: FieldArrays | None = field(repr=False, default=None, compare=False)
    _lists: FieldArrays | None = field(repr=False, default=None, compare=False)

    @property
    def order(self) -> int:
        """Number of field elements 2^nu."""
        return 1 << self.nu

    def arrays(self) -> FieldArrays:
        """The field's numpy tables, built on first use and shared by every
        code over this field."""
        if self._arrays is None:
            object.__setattr__(self, "_arrays", self._build_arrays())
        return self._arrays

    def lists(self) -> FieldArrays:
        """The tables of ``arrays`` as Python lists, for the same arithmetic
        on one element at a time, built on first use."""
        if self._lists is None:
            lists = (v if isinstance(v, int) else v.tolist() for v in self.arrays())
            object.__setattr__(self, "_lists", FieldArrays._make(lists))
        return self._lists

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
        # y and y + 1 solve y^2 + y = c alike, so each solvable c has one
        # even root: quad holds it, and so the smaller root
        y = np.arange(0, q, 2)
        quad = np.zeros(q, dtype=np.int64)
        quad[exp[2 * log[y]] ^ y] = y
        # z^3 + z = c over z != 0: keep the c hit three times, their roots
        # ascending down the column (a stable sort keeps z ascending)
        z = np.arange(1, q)
        c = exp[3 * log[z]] ^ z
        count = np.bincount(c, minlength=q)
        three = np.flatnonzero(count == 3)
        first = np.cumsum(count) - count
        by_c = z[np.argsort(c, kind="stable")]
        cubic = np.zeros((3, q), dtype=np.int64)
        cubic[:, three] = by_c[first[three] + np.arange(3)[:, None]]
        # three cube roots exist only when 3 divides 2^nu - 1 and log a is
        # a multiple of 3; they are ascending by log
        cbrt = np.zeros((3, q), dtype=np.int64)
        if m % 3 == 0:
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
    nu = operator.index(nu)
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

