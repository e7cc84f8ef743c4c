"""Field-table tests against an independent GF(2)[x] oracle.

The oracle does polynomial arithmetic with its own shift/xor routines,
checks irreducibility by trial division and primitivity by computing the
order of x from the factorization of 2^nu - 1.  Nothing here reuses the
library's table construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcdec.galois import LOG_TERMS, build_field

# --- oracle: polynomial arithmetic over GF(2) -------------------------------


def pdeg(a: int) -> int:
    return a.bit_length() - 1


def pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def pmod(a: int, m: int) -> int:
    dm = pdeg(m)
    while pdeg(a) >= dm:
        a ^= m << (pdeg(a) - dm)
    return a


def ppow_mod(base: int, e: int, m: int) -> int:
    out = 1
    base = pmod(base, m)
    while e:
        if e & 1:
            out = pmod(pmul(out, base), m)
        base = pmod(pmul(base, base), m)
        e >>= 1
    return out


def oracle_irreducible(p: int) -> bool:
    d = pdeg(p)
    if d < 1 or not p & 1:
        return False
    for f in range(2, 1 << (d // 2 + 1)):
        if pdeg(f) >= 1 and pmod(p, f) == 0:
            return False
    return True


def prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def oracle_primitive(p: int) -> bool:
    if not oracle_irreducible(p):
        return False
    order = (1 << pdeg(p)) - 1
    if ppow_mod(2, order, p) != 1:
        return False
    return all(ppow_mod(2, order // q, p) != 1 for q in prime_factors(order))


# --- frozen values (computed via the oracle above) --------------------------

SMALLEST_PRIMITIVE = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


@pytest.mark.parametrize("nu", range(3, 13))
def test_prim_poly_is_smallest_primitive(nu):
    f = build_field(nu)
    assert f.prim_poly == SMALLEST_PRIMITIVE[nu]
    assert oracle_primitive(f.prim_poly)
    # nothing smaller of the same degree is primitive
    for candidate in range((1 << nu) | 1, f.prim_poly, 2):
        assert not oracle_primitive(candidate)


@pytest.mark.parametrize("nu", [3, 13, 2, 0, -1])
def test_nu_out_of_range(nu):
    if 3 <= nu <= 12:
        build_field(nu)
    else:
        with pytest.raises(ValueError):
            build_field(nu)


@pytest.mark.parametrize("nu", [3, 4, 5, 6, 7, 8])
def test_tables_roundtrip(nu):
    f = build_field(nu)
    q = f.order
    assert len(f.exp_table) == q - 1
    assert len(f.log_table) == q
    assert sorted(f.exp_table) == list(range(1, q))  # alpha generates all nonzero
    for a in range(1, q):
        assert f.exp_table[f.log_table[a]] == a


@pytest.mark.parametrize("nu", [4, 6, 8])
def test_mul_matches_polynomial_oracle(nu):
    f = build_field(nu)
    q = f.order
    step = max(1, q // 37)
    for a in range(0, q, step):
        for b in range(0, q, step):
            assert f.mul(a, b) == pmod(pmul(a, b), f.prim_poly)


def test_mul_examples_nu4():
    f = build_field(4)
    a3, a5 = f.exp_table[3], f.exp_table[5]
    assert f.mul(a3, a5) == f.exp_table[8]
    assert f.mul(0, 7) == 0
    assert f.mul(1, 13) == 13


@pytest.mark.parametrize("nu", [4, 8])
def test_fermat(nu):
    f = build_field(nu)
    for a in range(1, f.order):
        assert f.pow(a, f.order - 1) == 1


@pytest.mark.parametrize("nu", [4, 5])
def test_inverse(nu):
    f = build_field(nu)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@settings(max_examples=300, deadline=None)
@given(
    nu=st.sampled_from([3, 4, 8]),
    a=st.integers(min_value=0, max_value=4095),
    b=st.integers(min_value=0, max_value=4095),
    c=st.integers(min_value=0, max_value=4095),
)
def test_distributivity(nu, a, b, c):
    f = build_field(nu)
    q = f.order
    a, b, c = a % q, b % q, c % q
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("nu", [4, 8])
def test_solve_quadratic_exhaustive(nu):
    f = build_field(nu)
    for c in range(f.order):
        brute = [y for y in range(f.order) if f.mul(y, y) ^ y == c]
        y = f.solve_quadratic(c)
        if brute:
            assert y in brute and len(brute) == 2
        else:
            assert y == -1


@pytest.mark.parametrize("nu", [4, 8])
def test_solve_cubic_exhaustive(nu):
    f = build_field(nu)
    for c in range(f.order):
        brute = [z for z in range(f.order) if f.mul(z, f.mul(z, z)) ^ z == c]
        got = f.solve_cubic(c)
        if len(brute) == 3:
            assert got == tuple(brute)
        else:
            # a single root, none, or c = 0 with its repeated root
            assert len(brute) in (0, 1) or c == 0
            assert got == ()


@pytest.mark.parametrize("nu", [4, 5, 8])
def test_cube_roots_exhaustive(nu):
    # 3 divides 2^nu - 1 for even nu only; for nu = 5 cubing is a bijection
    f = build_field(nu)
    roots = {a: [] for a in range(f.order)}
    for y in range(1, f.order):
        roots[f.pow(y, 3)].append(y)
    for a in range(f.order):
        got = f.cube_roots(a)
        if len(roots[a]) == 3:
            assert sorted(got) == roots[a]
            assert f.log_table[a] % 3 == 0
        else:
            assert got == ()
    assert any(len(r) == 3 for r in roots.values()) == (nu % 2 == 0)


@pytest.mark.parametrize("nu", [4, 5, 8])
def test_arrays_match_scalar_arithmetic(nu):
    f = build_field(nu)
    a = f.arrays()
    assert build_field(nu).arrays() is a  # built once, shared by the field
    q = f.order
    x, y = np.arange(q)[:, None], np.arange(q)[None, :]
    # a zero operand reads 0 through the sentinel, with no select
    prod = a.exp[a.log[x] + a.log[y]]
    quot = a.exp[a.log[x] + a.nlog[y]]
    for i in range(q):
        assert prod[i].tolist() == [f.mul(i, j) for j in range(q)]
        assert quot[i].tolist() == [f.div(i, j) if j else 0 for j in range(q)]
        # the widest log combination the decoders form
        assert a.exp[LOG_TERMS * a.log[i]] == f.pow(i, LOG_TERMS)
        assert f.mul(int(a.sqrt[i]), int(a.sqrt[i])) == i
        assert a.quad[i] == max(f.solve_quadratic(i), 0)
        assert tuple(a.cubic[:, i][a.cubic[:, i] > 0]) == f.solve_cubic(i)
        assert tuple(a.cbrt[:, i][a.cbrt[:, i] > 0]) == f.cube_roots(i)
    assert a.exp.size == LOG_TERMS * a.zero + 1 and a.exp[-1] == 0


def test_build_field_cached():
    assert build_field(7) is build_field(7)
