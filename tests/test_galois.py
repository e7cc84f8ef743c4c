"""Field-table tests against an independent GF(2)[x] oracle.

The oracle does polynomial arithmetic with the shift/xor routines of
``bch_oracle``, checks irreducibility by trial division and primitivity
by computing the order of x from the factorization of 2^nu - 1.  Nothing
here reuses the library's table construction.  The arithmetic under test
is the one the decoders run: products and quotients as one read of the
sentinel tables of ``FieldTable.lists`` and ``FieldTable.arrays``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import pdeg, pmod, pmul, ppow_mod
from gpcdec.galois import LOG_TERMS, FieldTable, build_field

# --- oracle: polynomial arithmetic over GF(2) -------------------------------


def oracle_mul(f, a: int, b: int) -> int:
    """a*b in the field f by polynomial arithmetic."""
    return pmod(pmul(a, b), f.prim_poly)


def table_mul(tables, a: int, b: int) -> int:
    """a*b as the decoders form it: one read of the sentinel antilog."""
    return tables.exp[tables.log[a] + tables.log[b]]


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
    tab = f.lists()
    q = f.order
    step = max(1, q // 37)
    for a in range(0, q, step):
        for b in range(0, q, step):
            assert table_mul(tab, a, b) == oracle_mul(f, a, b)


def test_mul_examples_nu4():
    f = build_field(4)
    tab = f.lists()
    a3, a5 = f.exp_table[3], f.exp_table[5]
    assert table_mul(tab, a3, a5) == f.exp_table[8]
    assert table_mul(tab, 0, 7) == 0
    assert table_mul(tab, 1, 13) == 13


@pytest.mark.parametrize("nu", [4, 8])
def test_fermat(nu):
    # a^(q-1) = 1, by q-2 table products of a with itself
    f = build_field(nu)
    tab = f.lists()
    for a in range(1, f.order):
        x = a
        for _ in range(f.order - 2):
            x = table_mul(tab, x, a)
        assert x == 1


@pytest.mark.parametrize("nu", [4, 5])
def test_inverse(nu):
    f = build_field(nu)
    tab = f.lists()
    for a in range(1, f.order):
        assert oracle_mul(f, a, tab.exp[tab.nlog[a]]) == 1
        assert tab.exp[tab.log[a] + tab.nlog[a]] == 1


@settings(max_examples=300, deadline=None)
@given(
    nu=st.sampled_from([3, 4, 8]),
    a=st.integers(min_value=0, max_value=4095),
    b=st.integers(min_value=0, max_value=4095),
    c=st.integers(min_value=0, max_value=4095),
)
def test_distributivity(nu, a, b, c):
    f = build_field(nu)
    tab = f.lists()
    q = f.order
    a, b, c = a % q, b % q, c % q
    assert table_mul(tab, a, b ^ c) == table_mul(tab, a, b) ^ table_mul(tab, a, c)
    assert table_mul(tab, a, b) == table_mul(tab, b, a)


@pytest.mark.parametrize("nu", [4, 8])
def test_solve_quadratic_exhaustive(nu):
    f = build_field(nu)
    quad = f.arrays().quad
    value = [oracle_mul(f, y, y) ^ y for y in range(f.order)]
    for c in range(f.order):
        brute = [y for y in range(f.order) if value[y] == c]
        y = int(quad[c])
        if brute:
            assert y in brute and len(brute) == 2
        else:
            assert y == 0


@pytest.mark.parametrize("nu", [4, 8])
def test_solve_cubic_exhaustive(nu):
    f = build_field(nu)
    cubic = f.arrays().cubic
    value = [oracle_mul(f, z, oracle_mul(f, z, z)) ^ z for z in range(f.order)]
    for c in range(f.order):
        brute = [z for z in range(f.order) if value[z] == c]
        got = cubic[:, c].tolist()
        if len(brute) == 3:
            assert got == brute
        else:
            # a single root, none, or c = 0 with its repeated root
            assert len(brute) in (0, 1) or c == 0
            assert got == [0, 0, 0]


@pytest.mark.parametrize("nu", [4, 5, 8])
def test_cube_roots_exhaustive(nu):
    # 3 divides 2^nu - 1 for even nu only; for nu = 5 cubing is a bijection
    f = build_field(nu)
    cbrt = f.arrays().cbrt
    roots = {a: [] for a in range(f.order)}
    for y in range(1, f.order):
        roots[ppow_mod(y, 3, f.prim_poly)].append(y)
    for a in range(f.order):
        got = cbrt[:, a].tolist()
        if len(roots[a]) == 3:
            assert sorted(got) == roots[a]
            assert [f.log_table[y] for y in got] == sorted(f.log_table[y] for y in got)
            assert f.log_table[a] % 3 == 0
        else:
            assert got == [0, 0, 0]
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
        assert prod[i].tolist() == [oracle_mul(f, i, j) for j in range(q)]
        row = quot[i].tolist()  # i / j times j is i, and i / 0 reads 0
        assert row[0] == 0 and all(oracle_mul(f, row[j], j) == i for j in range(1, q))
        # powers up to the widest log combination the decoders form
        for e in range(1, LOG_TERMS + 1):
            assert a.exp[e * a.log[i]] == ppow_mod(i, e, f.prim_poly)
        assert oracle_mul(f, int(a.sqrt[i]), int(a.sqrt[i])) == i
    assert a.exp.size == LOG_TERMS * a.zero + 1 and a.exp[-1] == 0


@pytest.mark.parametrize("nu", [3, 8, 12])
def test_lists_match_arrays(nu):
    f = build_field(nu)
    got = f.lists()
    assert build_field(nu).lists() is got  # built once, shared by the field
    a = f.arrays()
    assert got._fields == a._fields
    for name, lst, arr in zip(a._fields, got, a):
        if name == "zero":
            assert type(lst) is int and lst == arr
        else:
            assert type(lst) is list and lst == arr.tolist(), name


def test_tables_leave_hash_and_equality_alone():
    # the tables are caches: building them must not change which fields
    # compare equal, nor a field's hash
    f = build_field(5)
    fresh = FieldTable(f.nu, f.prim_poly, f.exp_table, f.log_table)
    twin = FieldTable(f.nu, f.prim_poly, f.exp_table, f.log_table)
    before = hash(fresh)
    assert fresh == twin
    fresh.arrays()
    assert hash(fresh) == before and fresh == twin
    fresh.lists()
    assert hash(fresh) == before == hash(twin)
    assert fresh == twin and fresh == f


def test_build_field_cached():
    assert build_field(7) is build_field(7)


def test_build_field_takes_integers_only():
    f = build_field(7)
    with pytest.raises(TypeError):
        build_field(7.0)  # would read the cached GF(2^7)
    assert build_field(np.int64(7)) is f
