"""Test-side oracle for the BCH component codes.

The library defines a component code once, by its parity-check columns
``contrib_packed``, and only decodes.  This module defines the same code
a second way, by its generator polynomial lcm(m_1, m_3, ..., m_(2t-1)),
with GF(2)[x] arithmetic of its own: the minimal polynomials, the
generator, a bit-serial systematic encoder, and the syndromes of a word
and of an error support.  Of the library it reads only a field's
primitive polynomial and tables and a code's parameters and columns.

It also decodes a syndrome a second way: the textbook Berlekamp-Massey
over all 2t syndromes, with a division per update, and a Chien search
by an index matrix of its own.
"""

from __future__ import annotations

import functools

import numpy as np

from gpcdec.galois import build_field

# --- polynomial arithmetic over GF(2), polynomials as int bitmasks -----------


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
    """Bit-serial remainder of a(x) mod m(x)."""
    dm = pdeg(m)
    while (da := pdeg(a)) >= dm:
        a ^= m << (da - dm)
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


# --- the code by its generator polynomial ------------------------------------


@functools.cache
def minimal_poly(nu: int, exponent: int) -> tuple[int, frozenset[int]]:
    """Minimal polynomial over GF(2) of alpha^exponent, alpha the class of
    x modulo GF(2^nu)'s primitive polynomial, as a bitmask, plus the
    exponent's cyclotomic coset: the product of (x + alpha^j) over the
    coset, multiplied out in the field."""
    prim = build_field(nu).prim_poly
    n0 = (1 << nu) - 1
    coset = []
    j = exponent % n0
    while j not in coset:
        coset.append(j)
        j = j * 2 % n0
    coeffs = [1]  # field elements, lowest degree first
    root = ppow_mod(0b10, coset[0], prim)
    for _ in coset:
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= pmod(pmul(c, root), prim)
        coeffs = nxt
        root = pmod(pmul(root, root), prim)  # the coset's next exponent
    assert set(coeffs) <= {0, 1}, "a conjugate-closed product lies in GF(2)"
    return sum(c << d for d, c in enumerate(coeffs)), frozenset(coset)


@functools.cache
def generator_poly(nu: int, t: int) -> int:
    """lcm(m_1, m_3, ..., m_(2t-1)): the product of the distinct minimal
    polynomials of alpha, alpha^3, ..., alpha^(2t-1)."""
    gen = 1
    seen = set()
    for m in range(1, 2 * t, 2):
        mask, coset = minimal_poly(nu, m)
        if coset not in seen:
            seen.add(coset)
            gen = pmul(gen, mask)
    return gen


def encode(code, message) -> np.ndarray:
    """Systematic codeword of ``message``: its bits at positions
    nu*t .. nu*t+k-1, the parity m(x) x^(nu*t) mod g(x) below them, then
    the extension bits (e=1: overall parity; e=2: parity of the odd core
    positions, then of the even ones)."""
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape != (code.k,):
        raise ValueError(f"message must have length k={code.k}, got {msg.shape}")
    poly = int.from_bytes(np.packbits(msg, bitorder="little").tobytes(), "little")
    poly <<= code.nu * code.t
    cw = poly ^ pmod(poly, generator_poly(code.nu, code.t))
    n_core = code.n_core
    word = np.zeros(code.n, dtype=np.uint8)
    raw = np.frombuffer(cw.to_bytes((n_core + 7) // 8, "little"), np.uint8)
    word[:n_core] = np.unpackbits(raw, count=n_core, bitorder="little")
    if code.e == 1:
        word[n_core] = int(word[:n_core].sum()) & 1
    elif code.e == 2:
        word[n_core] = int(word[1:n_core:2].sum()) & 1
        word[n_core + 1] = int(word[0:n_core:2].sum()) & 1
    return word


# --- syndromes ---------------------------------------------------------------


def support_syndrome(code, positions) -> int:
    """Packed syndrome of the error pattern with the given support: the
    XOR of its positions' parity-check columns."""
    acc = 0
    for pos in positions:
        acc ^= code.contrib_packed[pos]
    return acc


def word_syndrome(code, word) -> int:
    """Packed syndrome of a received word."""
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (code.n,):
        raise ValueError(f"word must have length n={code.n}, got {w.shape}")
    return support_syndrome(code, np.flatnonzero(w).tolist())


# --- decoding by the textbook Berlekamp-Massey ----------------------------------


@functools.cache
def _chien_index(n0: int, t: int) -> np.ndarray:
    """Entry [i-1, j] is the exponent of alpha^(-j*i) mod n0."""
    return (n0 - np.outer(np.arange(1, t + 1), np.arange(n0)) % n0) % n0


def solve_core_bm(code, odd) -> tuple[int, ...] | None:
    """The unique core error pattern of weight <= t with the odd-power
    syndromes ``odd``, or None: Berlekamp-Massey over the 2t syndromes
    S_1 .. S_2t (S_2j = S_j^2), then a root search over every core
    position, rejecting a root among the shortened positions.  Products
    read the field's sentinel tables, so a zero factor reads 0."""
    f = code.field.lists()
    exp, log = f.exp, f.log
    t = code.t
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
    exp_np, chien_idx = code.field.arrays().exp, _chien_index(code.n0, t)
    vals = np.full(code.n0, lam[0], dtype=np.int64)
    for i in range(1, deg + 1):
        if lam[i]:
            vals ^= exp_np[log[lam[i]] + chien_idx[i - 1]]
    roots = np.nonzero(vals == 0)[0]
    if len(roots) != deg:
        return None
    if roots.size and int(roots[-1]) >= code.n_core:
        return None
    return tuple(int(r) for r in roots)


def decode_bm(code, packed: int, budget: int) -> tuple[int, ...] | None:
    """BDD of a packed syndrome through solve_core_bm: the core errors,
    then each extension bit whose parity check the core errors leave
    unmet, or None past ``budget``."""
    mask = (1 << code.nu) - 1
    odd = tuple(packed >> (code.e + i * code.nu) & mask for i in range(code.t))
    core = solve_core_bm(code, odd)
    if core is None:
        return None
    h = packed & ((1 << code.e) - 1)
    for pos in core:
        h ^= code.parity_mask[pos]
    out = core + tuple(code.n_core + i for i in range(code.e) if h >> i & 1)
    return out if len(out) <= budget else None
