"""Component-code tests.

The oracles here are deliberately independent of the implementation:
codebooks are enumerated exhaustively from the systematic encoder, minimum
distances are measured rather than asserted from formulas, and erasure
decoding is cross-checked against brute force over all completions.
"""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcdec.bch import (
    FAIL,
    ComponentCodeSpec,
    Syndrome,
    bdd_decode,
    build_component_code,
    encode,
    erasure_decode,
    idealized_bdd_decode,
    syndrome,
)


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


def brute_force_erasure(code, word, erasures):
    """Try all completions of the erased positions; return the unique one
    that satisfies every check, or None."""
    erasures = sorted(erasures)
    hits = []
    for bits in itertools.product((0, 1), repeat=len(erasures)):
        cand = word.copy()
        for pos, b in zip(erasures, bits):
            cand[pos] = b
        if syndrome(code, cand).is_zero:
            hits.append(cand)
    return hits[0] if len(hits) == 1 else None


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
        assert code.r0 == nu * t

    def test_classic_generator(self):
        # the (15,7) double-error-correcting code; generator 721 octal,
        # g(x) = x^8 + x^7 + x^6 + x^4 + 1
        code = build_component_code(4, 2, 0, 0)
        assert code.gen_poly == 0b111010001

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
        assert np.array_equal(word[code.r0 : code.r0 + code.k], msg)

    def test_all_codewords_have_zero_syndrome(self):
        for args in [(4, 2, 1, 0), (7, 2, 1, 0), (8, 2, 1, 61)]:
            code = build_component_code(*args)
            rng = np.random.default_rng(2)
            for _ in range(20):
                msg = rng.integers(0, 2, size=code.k).astype(np.uint8)
                syn = syndrome(code, encode(code, msg))
                assert syn.is_zero

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
            key = code.syndrome_key((pos,))
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
        assert syndrome(code, wa) ^ syndrome(code, wb) == syndrome(code, wa ^ wb)

    @pytest.mark.parametrize("args", [(4, 2, 2, 0), (8, 3, 0, 0), (9, 7, 0, 0)])
    def test_syndrome_matches_parity_check_matrix(self, args):
        # (9,7,0,0) packs 63 bits, so its syndromes need Python ints
        code = build_component_code(*args)
        pcm = code.parity_check_matrix().astype(np.int64)
        rng = np.random.default_rng(3)
        for _ in range(20):
            word = rng.integers(0, 2, size=code.n).astype(np.uint8)
            syn = syndrome(code, word)
            bits = (pcm @ word) & 1
            for i, v in enumerate(syn.odd):
                assert v == sum(int(b) << j for j, b in enumerate(bits[i * code.nu : (i + 1) * code.nu]))
            assert syn.ext == tuple(int(b) for b in bits[code.nu * code.t :])
            msg = rng.integers(0, 2, size=code.k)
            assert syndrome(code, encode(code, msg)).is_zero

    def test_zero_word_zero_syndrome(self):
        code = build_component_code(8, 3, 0, 0)
        assert syndrome(code, np.zeros(code.n, dtype=np.uint8)).is_zero


# ---------------------------------------------------------------------------
# bounded-distance decoding


class TestBddExhaustive:
    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_all_correctable_patterns_recovered(self, e):
        code = build_component_code(4, 2, e, 0)
        for wgt in range(code.t + 1):
            for pos in itertools.combinations(range(code.n), wgt):
                odd, ext = code.syndrome_key(pos)
                assert code.decode_key(odd, ext) == pos

    def test_weight_3_always_fails_when_extended(self):
        # with d_min = 6 a weight-3 error is never within t=2 of a codeword
        for e in (1, 2):
            code = build_component_code(4, 2, e, 0)
            for pos in itertools.combinations(range(code.n), 3):
                odd, ext = code.syndrome_key(pos)
                assert code.decode_key(odd, ext) is None

    def test_weight_3_miscorrections_land_on_codebook(self):
        # for the unextended code (d_min = 5) some weight-3 patterns decode;
        # the output must then differ from the input by a weight-5 codeword
        code = build_component_code(4, 2, 0, 0)
        book_set = {tuple(c) for c in enumerate_codebook(code).tolist()}
        n_misses = 0
        for pos in itertools.combinations(range(code.n), 3):
            odd, ext = code.syndrome_key(pos)
            out = code.decode_key(odd, ext)
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
        n_dec = sum(
            code.decode_key((s1, s3), 0) is not None
            for s1 in range(16)
            for s3 in range(16)
        )
        assert n_dec == 1 + 15 + 105

    def test_reduced_budget(self):
        code = build_component_code(4, 2, 1, 0)
        one = (3,)
        two = (3, 9)
        for pos, budget, want in [
            (one, 1, one),
            (two, 1, None),
            (two, 2, two),
            ((), 0, ()),
            (one, 0, None),
        ]:
            odd, ext = code.syndrome_key(pos)
            assert code.decode_key(odd, ext, budget=budget) == want


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
            out = bdd_decode(code, syndrome(code, rcv))
            assert out is not FAIL
            assert out.error_positions == tuple(sorted(pos.tolist()))
            fixed = rcv.copy()
            for p in out.error_positions:
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
            out = code.decode_key(odd, ext)
            if out is not None:
                assert all(0 <= p < code.n for p in out)

    def test_cache_transparency(self):
        code = build_component_code(7, 2, 1, 0)
        rng = np.random.default_rng(8)
        keys = [
            ((int(rng.integers(0, 128)), int(rng.integers(0, 128))), int(rng.integers(0, 2)))
            for _ in range(200)
        ]
        cold = [code.decode_key(odd, ext) for odd, ext in keys]
        warm = [code.decode_key(odd, ext) for odd, ext in keys]
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
                table[code.syndrome_packed(pos)] = pos
        assert len(table) == sum(comb(code.n, w) for w in range(code.t + 1))
        return table

    @pytest.mark.parametrize("args", [(5, 3, 0, 0), (6, 3, 0, 0), (6, 3, 1, 0), (6, 3, 0, 20)])
    def test_every_syndrome_matches_brute_force(self, args):
        code = build_component_code(*args)
        table = self.brute_force_table(code)
        for budget in (2, 3):
            want = {k: v for k, v in table.items() if len(v) <= budget}
            for start in range(0, 1 << code.packed_bits, 1 << 16):
                code._bdd_cache.clear()  # bounds memory; results are not reused
                for packed in range(start, min(start + (1 << 16), 1 << code.packed_bits)):
                    assert code.decode_packed(packed, budget) == want.get(packed), packed

    def test_random_syndromes_match_berlekamp_massey(self):
        code = build_component_code(8, 3, 0, 0)
        rng = np.random.default_rng(13)
        odds = [tuple(int(v) for v in rng.integers(0, 256, size=3)) for _ in range(1500)]
        for wgt in (1, 2, 3, 4):
            for _ in range(300):
                odd, _ = code.syndrome_key(rng.choice(code.n, size=wgt, replace=False).tolist())
                odds.append(odd)
        decoded = 0
        for odd in odds:
            got = code._solve_core(odd)
            assert got == code._solve_core_bm(odd), odd
            decoded += got is not None
        assert decoded >= 900  # every planted weight <= 3 pattern, at least


class TestIdealizedBdd:
    def test_corrects_within_radius_flags_beyond(self):
        code = build_component_code(4, 2, 1, 0)
        word = encode(code, np.ones(code.k, dtype=np.uint8))
        rcv = word.copy()
        rcv[[1, 5]] ^= 1
        out = idealized_bdd_decode(code, rcv, word)
        assert out is not FAIL and sorted(out.error_positions) == [1, 5]

        rcv[10] ^= 1  # now weight 3 from the truth: genie refuses
        assert idealized_bdd_decode(code, rcv, word) is FAIL

    def test_never_miscorrects(self):
        # patterns that fool plain BDD are flagged by the idealized decoder
        code = build_component_code(4, 2, 0, 0)
        word = np.zeros(code.n, dtype=np.uint8)
        for pos in itertools.combinations(range(code.n), 3):
            odd, ext = code.syndrome_key(pos)
            if code.decode_key(odd, ext) is not None:
                rcv = word.copy()
                rcv[list(pos)] ^= 1
                assert idealized_bdd_decode(code, rcv, word) is FAIL
                break
        else:
            pytest.fail("no miscorrecting pattern found")

    def test_rejects_non_codeword_reference(self):
        code = build_component_code(4, 2, 0, 0)
        bad = np.zeros(code.n, dtype=np.uint8)
        bad[0] = 1
        with pytest.raises(ValueError):
            idealized_bdd_decode(code, bad, bad)


# ---------------------------------------------------------------------------
# erasure decoding


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
            got = erasure_decode(code, rcv, erasures)
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
            got = erasure_decode(code, rcv, erasures)
            assert got is not None and np.array_equal(got, word)

    def test_errors_outside_erasures_are_detected(self):
        code = build_component_code(4, 2, 1, 0)
        word = encode(code, np.ones(code.k, dtype=np.uint8))
        rcv = word.copy()
        rcv[0] ^= 1  # unerased error makes the system inconsistent
        erasures = [4, 7]
        got = erasure_decode(code, rcv, erasures)
        # either inconsistent (None) or a valid codeword different from word
        if got is not None:
            assert syndrome(code, got).is_zero

    def test_no_erasures_is_a_syndrome_check(self):
        code = build_component_code(4, 2, 0, 0)
        word = encode(code, np.zeros(code.k, dtype=np.uint8))
        assert erasure_decode(code, word, []) is not None
        word[3] ^= 1
        assert erasure_decode(code, word, []) is None


# ---------------------------------------------------------------------------
# syndrome value semantics


class TestSyndromeObject:
    def test_xor_and_zero(self):
        a = Syndrome((1, 2), (1,))
        b = Syndrome((1, 2), (1,))
        assert (a ^ b).is_zero
        assert not a.is_zero

    def test_hashable(self):
        syns = {Syndrome((0, 1), ()), Syndrome((0, 1), ()), Syndrome((0, 2), ())}
        assert len(syns) == 2
