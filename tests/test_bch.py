"""Component-code tests.

The oracles here are deliberately independent of the implementation:
codebooks are enumerated exhaustively from the systematic encoder of
``bch_oracle``, which builds the code from its generator polynomial,
minimum distances are measured rather than asserted from formulas, and
erasure decoding is cross-checked against brute force over all
completions.
"""

import functools
import itertools
import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bch_oracle import encode, generator_poly, pdeg, pmod, support_syndrome, word_syndrome
import gpcdec.bch
from gpcdec.bch import _TABLE_BITS, ComponentCodeSpec, build_component_code
from gpcdec.engine import anchor_decode, genie_decode, iterative_bdd
from gpcdec.galois import build_field
from gpcdec.layout import build_product_layout


# ---------------------------------------------------------------------------
# oracle helpers


def enumerate_codebook(code: ComponentCodeSpec) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) uint8 array, via the encoder."""
    assert code.k <= 16, "exhaustive oracle only for small codes"
    msgs = ((np.arange(1 << code.k)[:, None] >> np.arange(code.k)) & 1).astype(np.uint8)
    return np.array([encode(code, m) for m in msgs], dtype=np.uint8)


def codebook_min_distance(book: np.ndarray) -> int:
    weights = book.sum(axis=1)
    return int(weights[weights > 0].min())


def decoder(code, path):
    """decode(packed, budget) through one miss path of decode_packed: the
    public decode_packed, which reads the dense table behind the memo, or
    the algebraic solver the table replaces for syndromes of at most 20
    bits."""
    if path == "table":
        assert code.packed_bits <= _TABLE_BITS
        return code.decode_packed
    return code._decode_algebraic


def odd_syndromes(code, packed):
    """The odd-power syndromes S_1, S_3, ... held in a packed syndrome."""
    mask = (1 << code.nu) - 1
    return tuple(packed >> (code.e + i * code.nu) & mask for i in range(code.t))


def pack(code, odd, ext):
    """Packed syndrome of odd-power syndromes and parity bits."""
    return ext | sum(v << (code.e + i * code.nu) for i, v in enumerate(odd))


def expected_column_bits(code, alpha) -> np.ndarray:
    """contrib_packed as an (n, packed_bits) bit matrix, packed bit j in
    column j, from the syndrome's definition: core position pos adds
    alpha^(pos*(2i+1)) to the nu-bit lane of S_(2i+1), above the e parity
    bits; e=1 checks every position, e=2 the odd core positions plus the
    first extension bit (bit 0) and the rest (bit 1)."""
    nu, e, n_core = code.nu, code.e, code.n_core
    bits = np.zeros((code.n, code.packed_bits), dtype=np.uint8)
    pos = np.arange(n_core)
    for i in range(code.t):
        lane = alpha[pos * (2 * i + 1) % len(alpha)]
        bits[:n_core, e + i * nu : e + (i + 1) * nu] = lane[:, None] >> np.arange(nu) & 1
    if e == 1:
        bits[:, 0] = 1
    elif e == 2:
        bits[:n_core, 0] = pos % 2
        bits[:n_core, 1] = 1 - pos % 2
        bits[n_core:, :2] = np.eye(2, dtype=np.uint8)
    return bits


def reference_build_table(code) -> np.ndarray:
    """The decode table from every support of weight <= t, enumerated by
    itertools: row s lists, ascending and padded with -1, the support whose
    packed syndrome is s.  The library grows the same supports column by
    column from those of one weight less."""
    contrib = np.array(code.contrib_packed, dtype=np.int64)
    table = np.full((1 << code.packed_bits, code.t), -1, dtype=np.int64)
    for w in range(1, code.t + 1):
        support = np.array(list(itertools.combinations(range(code.n), w)))
        syn = np.bitwise_xor.reduce(contrib[support], axis=1)
        assert (table[syn, 0] < 0).all()  # no syndrome names two supports
        table[syn, :w] = support
    return table


def batch_rows(decode, packed, t):
    """decode_batch's (pos, ok) built from a scalar decoder, row by row."""
    pos = np.full((len(packed), t), -1, dtype=np.int64)
    ok = np.zeros(len(packed), dtype=bool)
    for i, syn in enumerate(packed):
        got = decode(syn)
        if got is not None:
            pos[i, : len(got)] = got
            ok[i] = True
    return pos, ok


def brute_force_erasure(code, word, erasures):
    """Try all completions of the erased positions; return the unique one
    that satisfies every check, or None."""
    erasures = sorted(erasures)
    hits = []
    for bits in itertools.product((0, 1), repeat=len(erasures)):
        cand = word.copy()
        for pos, b in zip(erasures, bits):
            cand[pos] = b
        if word_syndrome(code, cand) == 0:
            hits.append(cand)
    return hits[0] if len(hits) == 1 else None


def reference_erasure_decode(code, word, erasures):
    """The erasure solver's former numpy form: Gaussian elimination on
    the binary parity-check matrix restricted to the erased columns.
    Returns the completed word, or None when the system is inconsistent
    or underdetermined."""
    w = np.asarray(word, dtype=np.uint8).copy()
    idx = sorted(set(int(p) for p in erasures))
    h = code.parity_check_matrix()
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


def erasure_complete(code, word, erasures):
    """The word completed by erasure_decode on its packed syndrome, or None."""
    flips = code.erasure_decode(word_syndrome(code, word), erasures)
    if flips is None:
        return None
    out = np.array(word, dtype=np.uint8)
    out[list(flips)] ^= 1
    return out


# ---------------------------------------------------------------------------
# parameter validation


class TestParameters:
    @pytest.mark.parametrize(
        "nu,t,e,s,n,k,dmin",
        [
            (4, 2, 0, 0, 15, 7, 5),
            (4, 2, 1, 0, 16, 7, 6),
            (4, 2, 2, 0, 17, 7, 6),
            (7, 2, 0, 0, 127, 113, 5),
            (7, 2, 1, 0, 128, 113, 6),
            (8, 2, 1, 61, 195, 178, 6),
            (8, 3, 0, 0, 255, 231, 7),
            (8, 4, 2, 0, 257, 223, 10),
            (9, 3, 1, 0, 512, 484, 8),
        ],
    )
    def test_dimensions(self, nu, t, e, s, n, k, dmin):
        code = build_component_code(nu, t, e, s)
        assert (code.n, code.k, code.d_min) == (n, k, dmin)
        assert code.n_core == (1 << nu) - 1 - s
        assert pdeg(generator_poly(nu, t)) == nu * t

    def test_classic_generator(self):
        # the (15,7) double-error-correcting code; generator 721 octal,
        # g(x) = x^8 + x^7 + x^6 + x^4 + 1
        assert generator_poly(4, 2) == 0b111010001

    def test_degenerate_generator_rejected(self):
        # minimal polynomials of alpha and alpha^3 coincide for some (nu, t),
        # which would break the dimension formula; the builder must refuse
        with pytest.raises(ValueError, match="generator"):
            build_component_code(4, 3, 0, 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_component_code(4, 0, 0, 0)
        with pytest.raises(ValueError):
            build_component_code(4, 2, 3, 0)
        with pytest.raises(ValueError):
            build_component_code(4, 2, 0, -1)
        with pytest.raises(ValueError):
            build_component_code(4, 2, 0, 9)  # k would drop below 1

    @pytest.mark.parametrize("field", range(4))
    def test_float_parameters_refused(self, field):
        args = [9, 7, 1, 3]
        args[field] = float(args[field])
        with pytest.raises(TypeError):
            build_component_code(*args)

    @pytest.mark.parametrize(
        "args,supports",
        [((9, 7, 0, 0), [(3, 70), (0, 1, 2, 3, 4, 5, 500)]),
         ((7, 2, 1, 0), [(3, 70), (5, 127)]), ((8, 2, 1, 61), [(0, 194)])],
    )
    def test_numpy_int_parameters(self, args, supports):
        # (9,7,0,0) packs 63 bits: a numpy packed_bits would overflow 1 << 63
        want = build_component_code(*args)
        for kind in (np.int64, np.int32, np.uint8):
            code = build_component_code(*map(kind, args))
            for name in ("nu", "t", "e", "s", "n", "k", "packed_bits"):
                assert type(getattr(code, name)) is int, name
                assert getattr(code, name) == getattr(want, name), name
            assert code.contrib_packed == want.contrib_packed
            for support in supports:
                syn = support_syndrome(code, support)
                assert code.decode_packed(syn) == want.decode_packed(syn) == support

    def test_coset_degree_decides_acceptance(self):
        """The library's generator degree, the total size of the distinct
        cyclotomic cosets of 1, 3, ..., 2t-1, against the degree of the
        oracle's generator polynomial, for every t with nu*t < 2^nu - 1
        and the first t past it.  Accepted codes have the dimensions and
        parity-check columns of the generator's code; refused ones the
        message naming the degree."""
        accepted = 0
        for nu in range(3, 13):
            n0 = (1 << nu) - 1
            prim = build_field(nu).prim_poly
            alpha = [1]  # alpha^j, by the oracle's reduction
            for _ in range(n0 - 1):
                alpha.append(pmod(alpha[-1] << 1, prim))
            alpha = np.array(alpha)
            for t in range(1, n0 // nu + 2):
                degree = pdeg(generator_poly(nu, t))
                if degree != nu * t:
                    with pytest.raises(ValueError) as err:
                        build_component_code(nu, t)
                    assert str(err.value) == (
                        f"unsupported (nu={nu}, t={t}): generator degree {degree} != nu*t={nu * t}"
                    )
                    continue
                accepted += 1
                k0 = n0 - degree
                # unshortened, and shortened to one information bit
                for e, s in ((0, 0), (1 + t % 2, k0 - 1)):
                    code = build_component_code(nu, t, e, s)
                    assert (code.n, code.k) == (n0 + e - s, k0 - s)
                    assert code.d_min == 2 * t + 1 + (e > 0)
                    assert code.packed_bits == e + nu * t
                    # the parity-check matrix is contrib_packed's bits, its
                    # parity rows moved below the syndrome lanes
                    got = np.roll(code.parity_check_matrix(), code.e, axis=0).T
                    assert np.array_equal(got, expected_column_bits(code, alpha))
        assert accepted == 124

    def test_huge_t_refused_at_once(self):
        """The coset walk stops once every residue is reached, so a t far
        past 2^nu - 1 is refused as fast as a small one, with the same
        message (generator degree 2^nu - 1, every residue a root)."""
        t = 10**30
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            build_component_code(4, t)
        assert time.perf_counter() - start < 1
        assert str(err.value) == f"unsupported (nu=4, t={t}): generator degree 15 != nu*t={4 * t}"

    def test_shortening_reduces_length_only(self):
        full = build_component_code(8, 2, 1, 0)
        short = build_component_code(8, 2, 1, 61)
        assert short.n == full.n - 61
        assert short.k == full.k - 61
        assert short.d_min == full.d_min


# ---------------------------------------------------------------------------
# encoder / codebook structure


class TestEncoder:
    def test_codebook_is_linear_and_distance_5(self):
        code = build_component_code(4, 2, 0, 0)
        book = enumerate_codebook(code)
        assert codebook_min_distance(book) == 5
        # closure under addition on a random sample
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(book), size=(64, 2))
        book_set = {tuple(c) for c in book.tolist()}
        for i, j in idx:
            assert tuple((book[i] ^ book[j]).tolist()) in book_set

    def test_extended_codebook_distance_6(self):
        for e in (1, 2):
            code = build_component_code(4, 2, e, 0)
            book = enumerate_codebook(code)
            assert codebook_min_distance(book) == 6

    def test_systematic_positions(self):
        code = build_component_code(4, 2, 0, 0)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
        word = encode(code, msg)
        r = code.nu * code.t
        assert np.array_equal(word[r : r + code.k], msg)

    def test_all_codewords_have_zero_syndrome(self):
        for args in [(4, 2, 1, 0), (7, 2, 1, 0), (8, 2, 1, 61)]:
            code = build_component_code(*args)
            rng = np.random.default_rng(2)
            for _ in range(20):
                msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
                assert word_syndrome(code, encode(code, msg)) == 0

    def test_parity_check_matrix_annihilates_codewords(self):
        code = build_component_code(4, 2, 2, 0)
        pcm = code.parity_check_matrix()
        assert pcm.shape == (code.nu * code.t + code.e, code.n)
        book = enumerate_codebook(code)
        assert not ((pcm @ book.T) & 1).any()

    def test_encode_rejects_wrong_length(self):
        code = build_component_code(4, 2, 0, 0)
        with pytest.raises(ValueError):
            encode(code, np.zeros(code.k + 1, dtype=np.uint8))


# ---------------------------------------------------------------------------
# syndromes


class TestSyndrome:
    def test_single_error_syndromes_distinct(self):
        code = build_component_code(7, 2, 1, 0)
        seen = set()
        for pos in range(code.n):
            key = support_syndrome(code, (pos,))
            assert key not in seen
            seen.add(key)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_syndrome_additivity(self, data):
        code = build_component_code(4, 2, 2, 0)
        a = data.draw(st.lists(st.integers(0, code.n - 1), max_size=5))
        b = data.draw(st.lists(st.integers(0, code.n - 1), max_size=5))
        wa = np.zeros(code.n, dtype=np.uint8)
        wb = np.zeros(code.n, dtype=np.uint8)
        for p in a:
            wa[p] ^= 1
        for p in b:
            wb[p] ^= 1
        assert word_syndrome(code, wa) ^ word_syndrome(code, wb) == word_syndrome(code, wa ^ wb)

    @pytest.mark.parametrize("args", [(4, 2, 2, 0), (8, 3, 0, 0), (9, 7, 0, 0)])
    def test_syndrome_matches_parity_check_matrix(self, args):
        # (9,7,0,0) packs 63 bits, so its syndromes need Python ints
        code = build_component_code(*args)
        pcm = code.parity_check_matrix().astype(np.int64)
        rng = np.random.default_rng(3)
        for _ in range(20):
            word = rng.integers(0, 2, size=code.n).astype(np.uint8)
            syn = word_syndrome(code, word)
            bits = (pcm @ word) & 1
            for i, v in enumerate(odd_syndromes(code, syn)):
                assert v == sum(int(b) << j for j, b in enumerate(bits[i * code.nu : (i + 1) * code.nu]))
            ext = [int(b) for b in bits[code.nu * code.t :]]
            assert syn & ((1 << code.e) - 1) == sum(b << i for i, b in enumerate(ext))
            msg = rng.integers(0, 2, size=code.k)
            assert word_syndrome(code, encode(code, msg)) == 0

    def test_zero_word_zero_syndrome(self):
        code = build_component_code(8, 3, 0, 0)
        assert word_syndrome(code, np.zeros(code.n, dtype=np.uint8)) == 0


# ---------------------------------------------------------------------------
# bounded-distance decoding


class TestBddExhaustive:
    """Exhaustive BDD checks on (15,7)-based codes through the dense
    decode table; TestBddExhaustiveAlgebraic reruns them on the solver."""

    path = "table"

    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_all_correctable_patterns_recovered(self, e):
        code = build_component_code(4, 2, e, 0)
        decode = decoder(code, self.path)
        for wgt in range(code.t + 1):
            for pos in itertools.combinations(range(code.n), wgt):
                assert decode(support_syndrome(code, pos), code.t) == pos

    def test_weight_3_always_fails_when_extended(self):
        # with d_min = 6 a weight-3 error is never within t=2 of a codeword
        for e in (1, 2):
            code = build_component_code(4, 2, e, 0)
            decode = decoder(code, self.path)
            for pos in itertools.combinations(range(code.n), 3):
                assert decode(support_syndrome(code, pos), code.t) is None

    def test_weight_3_miscorrections_land_on_codebook(self):
        # for the unextended code (d_min = 5) some weight-3 patterns decode;
        # the output must then differ from the input by a weight-5 codeword
        code = build_component_code(4, 2, 0, 0)
        decode = decoder(code, self.path)
        book_set = {tuple(c) for c in enumerate_codebook(code).tolist()}
        n_misses = 0
        for pos in itertools.combinations(range(code.n), 3):
            out = decode(support_syndrome(code, pos), code.t)
            if out is None:
                continue
            n_misses += 1
            assert len(out) == 2
            assert not set(out) & set(pos)
            word = np.zeros(code.n, dtype=np.uint8)
            for p in pos + out:
                word[p] ^= 1
            assert tuple(word.tolist()) in book_set
            assert word.sum() == 5
        assert n_misses > 0

    def test_decodable_syndrome_count(self):
        # number of decodable syndromes equals the number of correctable
        # patterns: sum_i C(n, i) for i <= t (syndrome map is injective there)
        code = build_component_code(4, 2, 0, 0)
        decode = decoder(code, self.path)
        n_dec = sum(decode(s, code.t) is not None for s in range(1 << code.packed_bits))
        assert n_dec == 1 + 15 + 105

    def test_reduced_budget(self):
        code = build_component_code(4, 2, 1, 0)
        decode = decoder(code, self.path)
        one = (3,)
        two = (3, 9)
        for pos, budget, want in [
            (one, 1, one),
            (two, 1, None),
            (two, 2, two),
            ((), 0, ()),
            (one, 0, None),
        ]:
            assert decode(support_syndrome(code, pos), budget) == want


class TestBddExhaustiveAlgebraic(TestBddExhaustive):
    path = "algebraic"


class TestBddRandomized:
    @pytest.mark.parametrize("args", [(7, 2, 1, 0), (8, 2, 1, 61), (8, 3, 0, 0), (8, 4, 2, 0)])
    def test_roundtrip_on_random_codewords(self, args):
        code = build_component_code(*args)
        rng = np.random.default_rng(hash(args) % 2**32)
        for _ in range(40):
            msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
            word = encode(code, msg)
            wgt = int(rng.integers(0, code.t + 1))
            pos = rng.choice(code.n, size=wgt, replace=False)
            rcv = word.copy()
            rcv[pos] ^= 1
            out = code.decode_packed(word_syndrome(code, rcv))
            assert out == tuple(sorted(pos.tolist()))
            fixed = rcv.copy()
            for p in out:
                fixed[p] ^= 1
            assert np.array_equal(fixed, word)

    def test_closed_form_matches_berlekamp_massey(self):
        # t=2 has a dedicated quadratic solver; it must agree with the
        # general algorithm on every syndrome, decodable or not
        code = build_component_code(4, 2, 0, 0)
        for s1 in range(16):
            for s3 in range(16):
                assert code._solve_core((s1, s3)) == code._solve_core_bm((s1, s3))

        big = build_component_code(8, 2, 1, 61)
        rng = np.random.default_rng(5)
        for _ in range(400):
            odd = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
            assert big._solve_core(odd) == big._solve_core_bm(odd)

    def test_shortened_positions_never_reported(self):
        # random syndromes whose locator roots fall in the shortened range
        # must fail rather than report out-of-range positions
        code = build_component_code(8, 2, 1, 61)
        rng = np.random.default_rng(6)
        for _ in range(3000):
            odd = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
            ext = int(rng.integers(0, 2))
            out = code.decode_packed(pack(code, odd, ext))
            if out is not None:
                assert all(0 <= p < code.n for p in out)

    def test_cache_transparency(self):
        code = build_component_code(7, 2, 1, 0)
        rng = np.random.default_rng(8)
        keys = [
            ((int(rng.integers(0, 128)), int(rng.integers(0, 128))), int(rng.integers(0, 2)))
            for _ in range(200)
        ]
        cold = [code.decode_packed(pack(code, odd, ext)) for odd, ext in keys]
        warm = [code.decode_packed(pack(code, odd, ext)) for odd, ext in keys]
        assert cold == warm


class TestTripleErrorSolver:
    """The t=3 closed-form solver against brute force and Berlekamp-Massey."""

    @staticmethod
    def brute_force_table(code):
        """Packed syndrome -> support for every support of weight <= t over
        all n positions, extension bits included."""
        table = {}
        for wgt in range(code.t + 1):
            for pos in itertools.combinations(range(code.n), wgt):
                table[support_syndrome(code, pos)] = pos
        assert len(table) == sum(comb(code.n, w) for w in range(code.t + 1))
        return table

    CODES = [(5, 3, 0, 0), (6, 3, 0, 0), (6, 3, 1, 0), (6, 3, 0, 20)]

    def check_every_syndrome(self, args, path):
        code = build_component_code(*args)
        decode = decoder(code, path)
        table = self.brute_force_table(code)
        for budget in (2, 3):
            want = {k: v for k, v in table.items() if len(v) <= budget}
            for packed in range(1 << code.packed_bits):
                assert decode(packed, budget) == want.get(packed), packed
        # the table path memoizes in one fixed-size list per budget, so
        # its memory is bounded without clearing; the algebraic one not at all
        sizes = [len(code.memo(budget)) for budget in (2, 3)]
        assert sizes == [1 << code.packed_bits] * 2 if path == "table" else [0, 0]

    @pytest.mark.parametrize("args", CODES)
    def test_every_syndrome_matches_brute_force(self, args):
        self.check_every_syndrome(args, "table")

    @pytest.mark.parametrize("args", CODES)
    def test_every_syndrome_matches_brute_force_algebraic(self, args):
        self.check_every_syndrome(args, "algebraic")

    def test_random_syndromes_match_berlekamp_massey(self):
        code = build_component_code(8, 3, 0, 0)
        rng = np.random.default_rng(13)
        odds = [tuple(int(v) for v in rng.integers(0, 256, size=3)) for _ in range(1500)]
        for wgt in (1, 2, 3, 4):
            for _ in range(300):
                packed = support_syndrome(code, rng.choice(code.n, size=wgt, replace=False).tolist())
                odds.append(odd_syndromes(code, packed))
        decoded = 0
        for odd in odds:
            got = code._solve_core(odd)
            assert got == code._solve_core_bm(odd), odd
            decoded += got is not None
        assert decoded >= 900  # every planted weight <= 3 pattern, at least


class TestDecodeTable:
    """The dense decode table against the algebraic solvers it replaces."""

    @pytest.mark.parametrize(
        "args",
        [(4, 2, 0, 0), (4, 2, 1, 0), (4, 2, 2, 0), (6, 2, 1, 20), (7, 2, 1, 0),
         (8, 2, 1, 61), (5, 3, 0, 0), (7, 1, 1, 0)],
    )
    def test_every_syndrome_and_budget_matches_algebra(self, args):
        # through decode_packed, so through the memo's block fill: (4,2,0,0)
        # is narrower than a block, (8,2,1,61) spans 128 of them
        code = build_component_code(*args)
        for packed in range(1 << code.packed_bits):
            for budget in range(code.t + 1):
                got = code.decode_packed(packed, budget)
                assert got == code._decode_algebraic(packed, budget), (packed, budget)
        # every support of weight <= t owns its own row; slot 0 is the only
        # row of padding alone that decodes
        assert (code._table[0] < 0).all()
        filled = 1 + int((code._table[:, 0] >= 0).sum())
        assert filled == sum(comb(code.n, w) for w in range(code.t + 1))

    def test_built_once_on_first_miss(self, monkeypatch):
        code = build_component_code(7, 2, 1, 0)
        assert code._table is None
        builds = []
        build = code._build_table
        monkeypatch.setattr(code, "_build_table", lambda: builds.append(1) or build())
        assert code.decode_packed(support_syndrome(code, (3, 70))) == (3, 70)
        assert code.decode_packed(support_syndrome(code, (5,)), 1) == (5,)
        assert code.decode_packed(support_syndrome(code, (3, 70))) == (3, 70)
        assert len(builds) == 1
        # n = 128 positions fit int8: one byte per position, t per syndrome
        assert code._table.dtype == np.int8
        assert code._table.nbytes == code.t << code.packed_bits

    def test_wide_syndromes_never_build_a_table(self):
        code = build_component_code(8, 3, 0, 0)  # 24-bit syndrome
        assert code.packed_bits > _TABLE_BITS
        rng = np.random.default_rng(14)
        for _ in range(50):
            pos = tuple(sorted(rng.choice(code.n, size=3, replace=False).tolist()))
            assert code.decode_packed(support_syndrome(code, pos)) == pos
        assert code._table is None

    @pytest.mark.parametrize("args", [(4, 2, 1, 0), (8, 3, 0, 0)])
    def test_out_of_range_syndrome_rejected(self, args):
        code = build_component_code(*args)
        for packed in (-1, 1 << code.packed_bits):
            with pytest.raises(ValueError, match="does not fit"):
                code.decode_packed(packed)

    def test_out_of_range_syndrome_rejected_once_memo_list_exists(self):
        # a negative index would read the list's last slot, and
        # 1 << packed_bits would run past it
        code = build_component_code(7, 2, 1, 0)
        top = (1 << code.packed_bits) - 1
        for budget in range(code.t + 1):
            code.decode_packed(top, budget)
            assert len(code.memo(budget)) == top + 1
            for packed in (-1, top + 1):
                with pytest.raises(ValueError, match="does not fit"):
                    code.decode_packed(packed, budget)
                with pytest.raises(ValueError, match="do not fit"):
                    code.prefetch([0, packed], budget)

    @pytest.mark.parametrize(
        "args,budgets", [((8, 3, 1, 0), (4, -1)), ((7, 2, 1, 0), (3,))]
    )
    def test_budget_outside_range_rejected(self, args, budgets):
        # a weight-(t+1) pattern with an extension error, which the
        # algebraic path of (8,3,1,0) would return under budget t+1
        code = build_component_code(*args)
        packed = support_syndrome(code, [3, 17, 40, code.n_core])
        for budget in budgets:
            with pytest.raises(ValueError, match="budget"):
                code.decode_packed(packed, budget)
            with pytest.raises(ValueError, match="budget"):
                code.decode_batch(np.array([packed]), budget)
            with pytest.raises(ValueError, match="budget"):
                code.memo(budget)
        # a refused call memoizes nothing
        assert all(not code.memo(budget) for budget in range(code.t + 1))

    @pytest.mark.parametrize(
        "args",
        [((10, 2, 0, 0), np.int16), ((6, 3, 2, 0), np.int8), ((8, 2, 1, 61), np.int16),
         ((7, 2, 1, 0), np.int8), ((7, 2, 2, 0), np.int16)],
    )
    def test_builder_matches_reference(self, args):
        # n = 128 is the widest code with int8 rows, 129 the narrowest int16
        args, dtype = args
        code = build_component_code(*args)
        got = code._build_table()
        assert got.dtype == dtype
        assert got.shape == (1 << code.packed_bits, code.t)
        assert np.array_equal(got, reference_build_table(code))

    def test_every_table_fits_4_mib(self):
        # every code with a table, unshortened (shortening only narrows n)
        sizes = {}
        for nu, t, e in itertools.product(range(3, 13), range(1, 8), range(3)):
            try:
                code = build_component_code(nu, t, e)
            except ValueError:
                continue
            if code.has_table:
                sizes[nu, t, e] = code._build_table().nbytes
        assert len(sizes) == 59 and max(sizes.values()) == 4 << 20
        # the 20-bit codes of n <= 128 need int8 rows: int16 would take 8
        # and 6 MiB
        assert sizes[5, 4, 0] == 4 << 20 and sizes[6, 3, 2] == 3 << 20

    def test_chien_tables_only_for_berlekamp_massey(self):
        for args in [(7, 2, 1, 0), (8, 3, 0, 0)]:
            code = build_component_code(*args)
            code.decode_packed(support_syndrome(code, (1, 2)))
            assert code._chien is None
        code = build_component_code(8, 4, 2, 0)
        assert code._chien is None
        assert code.decode_packed(support_syndrome(code, (1, 2, 3, 4))) == (1, 2, 3, 4)
        assert code._chien[1].shape == (code.t, code.n0)


class TestDecodeBatch:
    """decode_batch against the scalar decoders, row by row."""

    @pytest.mark.parametrize(
        "args",
        [(4, 2, 0, 0), (4, 2, 1, 0), (4, 2, 2, 0), (6, 2, 1, 20), (7, 2, 1, 0),
         (8, 2, 1, 61), (5, 3, 0, 0), (7, 1, 1, 0)],
    )
    def test_every_syndrome_and_budget_matches_decode_packed(self, args):
        code = build_component_code(*args)
        packed = np.arange(1 << code.packed_bits)
        for budget in range(code.t + 1):
            pos, ok = code.decode_batch(packed, budget)
            want_pos, want_ok = batch_rows(
                lambda s: code.decode_packed(s, budget), packed.tolist(), code.t
            )
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(pos, want_pos)
            # the engine's unchecked gather, on the nonzero syndromes
            assert np.array_equal(code.decode_rows(packed[1:], budget), pos[1:])
            # one fixed-size list per budget, so memory stays bounded
            assert len(code.memo(budget)) == 1 << code.packed_bits

    @pytest.mark.parametrize(
        "args",
        [(7, 3, 0, 0), (7, 3, 1, 0), (6, 3, 0, 0), (6, 3, 2, 0), (4, 2, 2, 0),
         (7, 2, 1, 0)],
    )
    def test_closed_forms_match_table_on_every_syndrome(self, args):
        # the closed forms run on a code told to use them; the oracle is
        # the same code reading the dense table, built at any width.
        # (7,3,*) are wider than 20 bits; nu = 6 has cube roots, so the
        # p = 0 branch there finds three roots
        code = build_component_code(*args)
        oracle = build_component_code(*args)
        code.has_table, code.batch_closed_form = False, True
        oracle.has_table = True
        for lo in range(0, 1 << code.packed_bits, 1 << 16):
            chunk = np.arange(lo, min(lo + (1 << 16), 1 << code.packed_bits))
            for budget in (code.t, code.t - 1):
                got = code.decode_batch(chunk, budget)
                want = oracle.decode_batch(chunk, budget)
                assert np.array_equal(got[1], want[1]), lo
                assert np.array_equal(got[0], want[0]), lo
        assert code._table is None
        assert all(not code.memo(budget) for budget in range(code.t + 1))

    @pytest.mark.parametrize(
        "args", [(8, 3, 0, 0), (8, 3, 2, 0), (10, 2, 1, 0), (8, 4, 2, 0)]
    )
    def test_random_and_planted_syndromes_match_algebra(self, args):
        code = build_component_code(*args)
        assert code.packed_bits > _TABLE_BITS
        rng = np.random.default_rng(sum(args))
        size = 300 if code.t >= 4 else 3000
        planted = [
            support_syndrome(code, rng.choice(code.n, int(w), replace=False).tolist())
            for w in rng.integers(0, code.t + 1, size)
        ]
        packed = np.concatenate(
            [rng.integers(0, 1 << code.packed_bits, size), planted]
        )
        for budget in range(code.t + 1):
            pos, ok = code.decode_batch(packed, budget)
            want_pos, want_ok = batch_rows(
                lambda s: code._decode_algebraic(s, budget), packed.tolist(), code.t
            )
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(pos, want_pos)
            assert ok[size:].all() or budget < code.t

    def test_pure_below_t4(self):
        for args in [(7, 2, 1, 0), (8, 3, 0, 0)]:
            code = build_component_code(*args)
            code.decode_batch(np.arange(1000), code.t)
            assert all(not code.memo(budget) for budget in range(code.t + 1))

    @pytest.mark.parametrize("args", [(4, 2, 1, 0), (8, 3, 0, 0), (8, 4, 2, 0)])
    def test_shapes_and_range_check(self, args):
        code = build_component_code(*args)
        pos, ok = code.decode_batch(np.zeros(0, dtype=np.int64))
        assert pos.shape == (0, code.t) and ok.shape == (0,)
        pos, ok = code.decode_batch(np.array([0]))
        assert pos.tolist() == [[-1] * code.t] and ok.tolist() == [True]
        for packed in (-1, 1 << code.packed_bits):
            with pytest.raises(ValueError, match="do not fit"):
                code.decode_batch(np.array([0, packed]))

    @pytest.mark.parametrize("args", [(8, 3, 0, 0), (8, 3, 2, 0)])
    def test_prefetch_fills_memo(self, args, monkeypatch):
        code = build_component_code(*args)
        rng = np.random.default_rng(15)
        packed = rng.integers(0, 1 << code.packed_bits, 400).tolist()
        code.decode_packed(packed[0], 2)  # a hit is left alone
        code.prefetch(packed + packed[:50], 2)
        assert set(code.memo(2)) == set(packed)
        for s, got in code.memo(2).items():
            assert got == code._decode_algebraic(s, 2)
        assert all(not code.memo(budget) for budget in (0, 1, 3))
        # each budget's memo has its own size cap, which it never passes:
        # prefetch decodes at most the cap and clears a memo its decodes
        # would not fit, decode_packed clears a full one, and what either
        # decoded is memoized when it returns
        monkeypatch.setattr("gpcdec.bch._BDD_CACHE_CAP", 7)
        code.prefetch(packed, 3)
        memo = code.memo(3)
        assert len(memo) == 7
        code.prefetch(packed, 3)  # 393 misses, 7 decoded after a clear
        assert len(memo) == 7 and set(memo) < set(packed)
        fresh = min(set(range(len(packed) + 1)) - set(packed))
        code.decode_packed(fresh, 3)
        assert list(memo) == [fresh]
        code.prefetch(packed[:3], 3)
        assert set(memo) == {fresh, *packed[:3]}
        code.prefetch(packed[3:10], 3)
        assert set(memo) == set(packed[3:10])
        for s, got in memo.items():
            assert got == code._decode_algebraic(s, 3)
        code.prefetch(packed, 1)
        assert len(code.memo(1)) == 7
        assert set(code.memo(2)) == set(packed)

    @pytest.mark.parametrize("args, decoder, p", [
        ((8, 3, 0, 0), "anchor", 0.017),
        ((8, 4, 2, 0), "iterative", 0.022),
        ((8, 4, 2, 0), "anchor", 0.022),
    ])
    def test_memo_cap_never_changes_a_decode(self, args, decoder, p, monkeypatch):
        """The cap decides only which decodes are remembered: frames
        decoded with a 7-entry memo equal those decoded at the default
        cap, stats included, and no budget's dict ever passes the cap."""
        def run():
            layout = build_product_layout(build_component_code(*args))
            rng = np.random.default_rng(17)
            out = []
            for _ in range(3):
                frame = (rng.random(layout.n_bits) < p).astype(np.uint8)
                if decoder == "anchor":
                    out.append(anchor_decode(layout, frame, 6))
                else:
                    out.append(iterative_bdd(layout, frame, 6))
            return out

        default = run()
        sizes = []

        def setitem(memo, packed, result):
            dict.__setitem__(memo, packed, result)
            sizes.append(len(memo))

        monkeypatch.setattr(gpcdec.bch, "_BDD_CACHE_CAP", 7)
        monkeypatch.setattr(gpcdec.bch._DictMemo, "__setitem__", setitem)
        capped = run()
        assert sizes and max(sizes) <= 7
        for (frame, stats), (want, want_stats) in zip(capped, default):
            assert np.array_equal(frame, want) and stats == want_stats


class TestIdealizedBdd:
    """The genie, component BDD that corrects only within distance t of
    the truth, as genie_decode runs it on a product layout."""

    @staticmethod
    def product_codeword(code, rng):
        """A random codeword of the n x n product of ``code``."""
        msg = rng.integers(0, 2, size=(code.k, code.k)).astype(np.uint8)
        rows = np.array([encode(code, m) for m in msg])
        return np.array([encode(code, rows[:, j]) for j in range(code.n)]).T.ravel()

    def test_corrects_within_radius_flags_beyond(self):
        code = build_component_code(4, 2, 1, 0)
        lay = build_product_layout(code)
        word = self.product_codeword(code, np.random.default_rng(16))
        rcv = word.copy()
        rcv[[3 * code.n + 1, 3 * code.n + 5]] ^= 1  # row 3, columns 1 and 5
        out, stats = genie_decode(lay, rcv, word, 4)
        assert np.array_equal(out, word) and stats.syndromes_zero
        assert stats.corrections == 2

        # weight 3 from the truth in every touched row and column: the
        # genie refuses every component decode
        grid = [r * code.n + c for r in (1, 5, 10) for c in (1, 5, 10)]
        rcv = word.copy()
        rcv[grid] ^= 1
        out, stats = genie_decode(lay, rcv, word, 4)
        assert np.array_equal(out, rcv) and not stats.syndromes_zero
        assert stats.corrections == 0

    def test_never_miscorrects(self):
        # patterns that fool plain BDD are left alone by the genie
        code = build_component_code(4, 2, 0, 0)
        lay = build_product_layout(code)
        for pos in itertools.combinations(range(code.n), 3):
            if code.decode_packed(support_syndrome(code, pos)) is not None:
                break
        else:
            pytest.fail("no miscorrecting pattern found")
        rcv = np.zeros(lay.n_bits, dtype=np.uint8)
        rcv[[r * code.n + c for r in pos for c in pos]] = 1
        out, stats = genie_decode(lay, rcv, None, 4)
        assert np.array_equal(out, rcv) and stats.corrections == 0

    def test_rejects_non_codeword_reference(self):
        code = build_component_code(4, 2, 0, 0)
        lay = build_product_layout(code)
        bad = np.zeros(lay.n_bits, dtype=np.uint8)
        bad[0] = 1
        with pytest.raises(ValueError):
            genie_decode(lay, bad, bad, 4)


def support_syndromes(code, pos):
    """The XOR of the parity-check columns of each row of a decode_batch
    ``pos`` array, whose -1 padding adds nothing."""
    cols = np.where(pos >= 0, code.contrib_packed_np[pos], 0)
    return np.bitwise_xor.reduce(cols, axis=1)


class TestDecodedSupportSyndrome:
    """Every decode that succeeds returns a support whose columns XOR back
    to the syndrome it was given: the anchor decoder sets a decoded
    codeword's syndrome to 0 on that basis, without folding its flips.
    The support also has distinct positions, ascending, at most the
    budget of them."""

    @staticmethod
    def check(code, syn, budget, out):
        if out is None:
            return
        assert support_syndrome(code, out) == syn, (syn, budget, out)
        assert list(out) == sorted(set(out)) and len(out) <= budget

    @pytest.mark.parametrize("args", [(7, 2, 1, 0), (8, 2, 1, 61)])
    def test_every_syndrome_and_budget(self, args):
        code = build_component_code(*args)
        packed = np.arange(1 << code.packed_bits)
        for budget in range(code.t + 1):
            decoded = 0
            for syn in packed.tolist():
                out = code.decode_packed(syn, budget)
                self.check(code, syn, budget, out)
                decoded += out is not None
            pos, ok = code.decode_batch(packed, budget)
            assert np.array_equal(support_syndromes(code, pos)[ok], packed[ok])
            assert ok.sum() == decoded == sum(comb(code.n, w) for w in range(budget + 1))

    @pytest.mark.parametrize("args", [(8, 3, 0, 0), (8, 4, 2, 0)])
    def test_random_and_planted_syndromes(self, args):
        code = build_component_code(*args)
        rng = np.random.default_rng(sum(args) + 26)
        planted = [
            support_syndrome(code, rng.choice(code.n, int(w), replace=False).tolist())
            for w in rng.integers(0, code.t + 1, 4000)
        ]
        packed = np.concatenate([rng.integers(0, 1 << code.packed_bits, 4000), planted])
        for budget in (code.t, code.t - 1):
            for syn in packed.tolist():
                self.check(code, syn, budget, code.decode_packed(syn, budget))
            pos, ok = code.decode_batch(packed, budget)
            assert np.array_equal(support_syndromes(code, pos)[ok], packed[ok])
            assert ok[4000:].sum() >= 1000  # the planted supports mostly decode


# ---------------------------------------------------------------------------
# erasure decoding


# codes of the differential tests: every extension, table and algebraic
# decoders, t = 2..4
ERASURE_CODES = [
    (4, 2, 0, 0), (4, 2, 1, 0), (4, 2, 2, 0),
    (7, 2, 1, 0), (8, 2, 1, 61), (8, 3, 0, 0), (8, 4, 2, 0),
]


@functools.cache
def erasure_code(args):
    return build_component_code(*args)


def low_weight_codeword(code, rng):
    """Support of a nonzero codeword of weight at most d_min + t - 1:
    d_min - t random positions XOR the support BDD decodes their syndrome
    to."""
    while True:
        probe = rng.choice(code.n, size=code.d_min - code.t, replace=False).tolist()
        out = code.decode_packed(support_syndrome(code, probe))
        if out is not None:
            return sorted(set(probe) ^ set(out))


def erasure_problem(code, rng, n_er, kind):
    """A word and n_er erasures.  ``planted``: a codeword with random bits
    written into the erasures.  ``inconsistent``: the same plus one error
    outside them.  ``dependent``: the erasures cover the support of a
    nonzero codeword, so their columns are dependent.  ``random``: any
    word."""
    n_er = min(n_er, code.n)
    msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
    word = encode(code, msg)
    if kind == "dependent":
        supp = low_weight_codeword(code, rng)
        rest = np.setdiff1d(np.arange(code.n), supp)
        extra = rng.choice(rest, size=max(n_er - len(supp), 0), replace=False)
        erasures = sorted(supp + extra.tolist())
    else:
        erasures = sorted(rng.choice(code.n, size=n_er, replace=False).tolist())
    if kind == "random":
        word = rng.integers(0, 2, size=code.n).astype(np.uint8)
    word[erasures] = rng.integers(0, 2, size=len(erasures)).astype(np.uint8)
    if kind == "inconsistent" and len(erasures) < code.n:
        outside = np.setdiff1d(np.arange(code.n), erasures)
        word[rng.choice(outside)] ^= 1
    return word, erasures


def assert_matches_reference(code, word, erasures):
    got = code.erasure_decode(word_syndrome(code, word), erasures)
    want = reference_erasure_decode(code, word, erasures)
    if want is None:
        assert got is None
    else:
        assert got == tuple(np.flatnonzero(want != word).tolist())


class TestErasureDecode:
    @pytest.mark.parametrize("args", [(4, 2, 0, 0), (4, 2, 1, 0), (4, 2, 2, 0)])
    def test_matches_brute_force(self, args):
        code = build_component_code(*args)
        rng = np.random.default_rng(11)
        for _ in range(60):
            msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
            word = encode(code, msg)
            n_er = int(rng.integers(0, 9))
            erasures = sorted(rng.choice(code.n, size=n_er, replace=False).tolist())
            rcv = word.copy()
            rcv[erasures] = rng.integers(0, 2, size=n_er).astype(np.uint8)
            got = erasure_complete(code, rcv, erasures)
            want = brute_force_erasure(code, rcv, erasures)
            if want is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)

    def test_up_to_dmin_minus_1_erasures_always_recoverable(self):
        code = build_component_code(4, 2, 1, 0)
        word = encode(code, np.arange(code.k, dtype=np.uint8) % 2)
        rng = np.random.default_rng(12)
        for _ in range(100):
            erasures = sorted(rng.choice(code.n, size=code.d_min - 1, replace=False).tolist())
            rcv = word.copy()
            rcv[erasures] = 0
            got = erasure_complete(code, rcv, erasures)
            assert got is not None and np.array_equal(got, word)

    def test_errors_outside_erasures_are_detected(self):
        code = build_component_code(4, 2, 1, 0)
        word = encode(code, np.ones(code.k, dtype=np.uint8))
        rcv = word.copy()
        rcv[0] ^= 1  # unerased error makes the system inconsistent
        erasures = [4, 7]
        got = erasure_complete(code, rcv, erasures)
        # either inconsistent (None) or a valid codeword different from word
        if got is not None:
            assert word_syndrome(code, got) == 0

    def test_no_erasures_is_a_syndrome_check(self):
        code = build_component_code(4, 2, 0, 0)
        word = encode(code, np.zeros(code.k, dtype=np.uint8))
        assert code.erasure_decode(word_syndrome(code, word), []) == ()
        word[3] ^= 1
        assert code.erasure_decode(word_syndrome(code, word), []) is None

    @pytest.mark.parametrize("args", ERASURE_CODES)
    def test_matches_reference(self, args):
        """Every erasure count from 0 to packed_bits + 3, on planted,
        inconsistent, dependent and random problems."""
        code = erasure_code(args)
        rng = np.random.default_rng(sum(args))
        flipped = 0
        for n_er in range(code.packed_bits + 4):
            for kind in ("planted", "inconsistent", "dependent", "random"):
                for _ in range(6):
                    word, erasures = erasure_problem(code, rng, n_er, kind)
                    assert_matches_reference(code, word, erasures)
                    flipped += bool(code.erasure_decode(word_syndrome(code, word), erasures))
        # planted problems below d_min erasures always solve, most by flips
        assert flipped >= 3 * (code.d_min - 1)

    @settings(max_examples=150, deadline=None)
    @given(
        args=st.sampled_from(ERASURE_CODES),
        seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 3),
        frac=st.floats(0, 1),
        kind=st.sampled_from(["planted", "inconsistent", "dependent", "random"]),
    )
    def test_fuzz_matches_reference(self, args, seed, extra, frac, kind):
        code = erasure_code(args)
        n_er = round(frac * code.packed_bits) + extra
        word, erasures = erasure_problem(code, np.random.default_rng(seed), n_er, kind)
        assert_matches_reference(code, word, erasures)

    def test_dependent_columns_have_no_unique_completion(self):
        code = erasure_code((8, 2, 1, 61))
        rng = np.random.default_rng(3)
        word = encode(code, np.zeros(code.k, dtype=np.uint8))
        supp = low_weight_codeword(code, rng)
        assert code.erasure_decode(0, supp) is None
        # more erasures than parity checks: dependent before any elimination
        wide = list(range(code.packed_bits + 1))
        assert code.erasure_decode(word_syndrome(code, word), wide) is None
        assert reference_erasure_decode(code, word, wide) is None

    @pytest.mark.parametrize("args", ERASURE_CODES)
    def test_solvable_rule_bounds_every_solve(self, args):
        """erasures_solvable refuses exactly the counts above packed_bits,
        on ints and elementwise on arrays, and no erasure set it refuses
        is ever solved."""
        code = erasure_code(args)
        bits = code.packed_bits
        assert code.erasures_solvable(bits) and not code.erasures_solvable(bits + 1)
        counts = np.arange(bits + 4)
        assert code.erasures_solvable(counts).tolist() == [k <= bits for k in counts]
        rng = np.random.default_rng(sum(args) + 1)
        for n_er in range(max(bits - 2, 0), min(bits + 4, code.n + 1)):
            for kind in ("planted", "random"):
                for _ in range(4):
                    word, erasures = erasure_problem(code, rng, n_er, kind)
                    solved = code.erasure_decode(word_syndrome(code, word), erasures)
                    assert solved is None or code.erasures_solvable(len(erasures))

    def test_syndrome_out_of_range_rejected(self):
        code = erasure_code((4, 2, 1, 0))
        top = (1 << code.packed_bits) - 1
        code.erasure_decode(top, [0, 1])  # widest valid syndrome
        syn = support_syndrome(code, [0, 1])
        assert code.erasure_decode(np.int64(syn), [0, 1]) == (0, 1)
        with pytest.raises(TypeError):
            code.erasure_decode(float(syn), [0, 1])
        for bad in (-1, -top, 1 << code.packed_bits):
            with pytest.raises(ValueError):
                code.erasure_decode(bad, [0, 1])
        with pytest.raises(ValueError):
            code.erasure_decode(0, [code.n])
