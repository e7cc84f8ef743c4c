"""Monte Carlo harness tests.

The frozen counters below (frames/bit_errors/frame_errors for fixed seeds)
pin the full pipeline: per-frame counter-mode RNG, BSC sampling, decoding,
batch-boundary stopping.  They were produced by the same code path and are
locked to catch accidental changes to any stage; the semantic properties
(determinism across worker counts, pairing, monotonicity, translation
invariance) are tested independently of those constants.
"""

import numpy as np
import pytest

from gpcdec import (
    anchor_decode,
    build_component_code,
    build_product_layout,
    build_staircase_layout,
    genie_decode,
    iterative_bdd,
)
from gpcdec.engine import frame_syndromes
from gpcdec.sim import (
    CSV_HEADER,
    BerRecord,
    TrialConfig,
    format_csv_row,
    frame_rng,
    paired_records,
    run_trials,
    sample_bsc,
)


@pytest.fixture(scope="module")
def pc15():
    return build_product_layout(build_component_code(4, 2, 0, 0))


class TestSampleBsc:
    def test_p_zero_all_zero(self):
        rng = np.random.default_rng(0)
        assert not sample_bsc(rng, 4096, 0.0).any()

    def test_p_one_all_one(self):
        rng = np.random.default_rng(0)
        assert sample_bsc(rng, 4096, 1.0).all()

    def test_empirical_mean_within_three_sigma(self):
        p, n = 0.01, 10**7
        rng = np.random.default_rng(123)
        mean = sample_bsc(rng, n, p).mean()
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(mean - p) < 3 * sigma

    def test_validation(self):
        rng = np.random.default_rng(0)
        for bad_p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                sample_bsc(rng, 10, bad_p)
        with pytest.raises(ValueError):
            sample_bsc(rng, -1, 0.1)


class TestFrameRng:
    def test_reproducible_per_frame(self):
        a = frame_rng(42, 7).random(32)
        b = frame_rng(42, 7).random(32)
        assert (a == b).all()

    def test_distinct_frames_distinct_streams(self):
        a = frame_rng(42, 7).random(32)
        b = frame_rng(42, 8).random(32)
        c = frame_rng(43, 7).random(32)
        assert not (a == b).all()
        assert not (a == c).all()


class TestTrialConfigValidation:
    def test_rejects_bad_fields(self, pc15):
        good = dict(layout=pc15, p=0.02)
        TrialConfig(**good)
        bad = [
            {"p": 0.0},
            {"p": 0.5},
            {"variant": "magic"},
            {"pp": "soft"},
            {"ell": 0},
            {"delta": -1},
            {"ell": 3, "reduced_t_iters": 4},
            {"pp_extra_iters": 0},
            {"min_frame_errors": 0},
            {"max_frames": 0},
            {"batch_frames": 0},
            {"workers": 0},
            {"seed": -1},
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                TrialConfig(**{**good, **kw})


class TestRunTrials:
    def test_below_waterfall_is_error_free(self):
        layout = build_product_layout(build_component_code(7, 2, 1, 0))
        cfg = TrialConfig(
            layout=layout,
            variant="anchor",
            p=1e-6,
            ell=10,
            min_frame_errors=100,
            max_frames=1000,
            seed=1,
        )
        rec = run_trials(cfg)
        assert rec.frames == 1000
        assert rec.ber == 0.0 and rec.fer == 0.0

    def test_early_stop_at_batch_boundary(self, pc15):
        cfg = TrialConfig(
            layout=pc15,
            variant="iterative",
            p=0.14,
            ell=6,
            min_frame_errors=25,
            max_frames=50000,
            seed=7,
            batch_frames=64,
        )
        rec = run_trials(cfg)
        # frozen counters for this seed; the stop fires at a batch boundary
        # strictly after min_frame_errors is reached
        assert rec.frames == 192
        assert rec.frames % cfg.batch_frames == 0
        assert rec.bit_errors == 810
        assert rec.frame_errors == 33
        assert rec.frame_errors >= cfg.min_frame_errors
        assert rec.csv_row() == "iterative,0.14,192,810,33,0.01875,0.171875,6,1,7"
        assert rec.csv_row("x+pp") == "x+pp,0.14,192,810,33,0.01875,0.171875,6,1,7"
        # the analytic rows of ``gpcdec repro`` share the schema
        assert format_csv_row("de", 0.02, 0, 0, 0, 1e-3, 0.0, 10, 1, 0) == (
            "de,0.02,0,0,0,0.001,0.0,10,1,0"
        )
        assert CSV_HEADER == (
            "variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed"
        )

    def test_worker_count_does_not_change_records(self, pc15):
        base = dict(
            layout=pc15,
            variant="iterative",
            p=0.14,
            ell=6,
            min_frame_errors=25,
            max_frames=50000,
            seed=7,
            batch_frames=64,
        )
        r1 = run_trials(TrialConfig(**base))
        r3 = run_trials(TrialConfig(**base, workers=3))
        assert r1 == r3  # wall time excluded from comparison

    def test_max_frames_cap_with_partial_batch(self, pc15):
        cfg = TrialConfig(
            layout=pc15,
            variant="genie",
            p=0.01,
            ell=4,
            min_frame_errors=10**6,
            max_frames=100,
            seed=0,
            batch_frames=32,
        )
        rec = run_trials(cfg)
        assert rec.frames == 100

    def test_frame_stats_collection(self, pc15):
        cfg = TrialConfig(
            layout=pc15,
            variant="anchor",
            p=0.16,
            ell=6,
            min_frame_errors=30,
            max_frames=2000,
            seed=2,
            pp="erasure",
        )
        rec = run_trials(cfg, collect_frame_stats=True)
        assert rec.frame_stats is not None
        assert len(rec.frame_stats) == rec.frames
        assert [r["frame"] for r in rec.frame_stats] == list(range(rec.frames))
        assert sum(r["bit_errors"] for r in rec.frame_stats) == rec.bit_errors
        engaged = [r for r in rec.frame_stats if "pp_success" in r]
        assert engaged, "post-processing never engaged at this p"
        assert all(not r["syndromes_zero"] for r in engaged)

    def test_pp_never_raises_frame_error_count(self, pc15):
        base = dict(
            layout=pc15,
            variant="anchor",
            p=0.16,
            ell=6,
            min_frame_errors=10**6,
            max_frames=256,
            seed=2,
        )
        plain = run_trials(TrialConfig(**base))
        for pp in ("bitflip", "erasure"):
            rescued = run_trials(TrialConfig(**base, pp=pp))
            assert rescued.frames == plain.frames
            assert rescued.frame_errors <= plain.frame_errors
        erasure = run_trials(TrialConfig(**base, pp="erasure"))
        assert erasure.frame_errors < plain.frame_errors

    def test_staircase_counts_only_real_blocks(self):
        sc = build_staircase_layout(build_component_code(4, 2, 1, 0), 6, 3)
        cfg = TrialConfig(
            layout=sc,
            variant="anchor",
            p=0.09,
            ell=4,
            min_frame_errors=10,
            max_frames=3000,
            seed=5,
        )
        rec = run_trials(cfg)
        assert rec.counted_bits == 4 * 64  # 4 real blocks of 8 x 8
        assert rec.ber == rec.bit_errors / (rec.frames * 256)


class TestPairedRecords:
    def test_same_frames_clean_ordering(self, pc15):
        recs = paired_records(
            pc15, ("iterative", "anchor", "genie"), 0.13, 8, 500, 11
        )
        assert all(r.frames == 500 for r in recs.values())
        assert recs["genie"].bit_errors <= recs["anchor"].bit_errors
        assert recs["anchor"].bit_errors < recs["iterative"].bit_errors
        assert recs["genie"].frame_errors <= recs["anchor"].frame_errors
        assert recs["anchor"].frame_errors <= recs["iterative"].frame_errors


class TestInvariants:
    def test_codeword_translation_symmetry(self, pc15):
        """Decoding is equivariant under adding a valid codeword: the
        residual error pattern depends only on the channel errors."""
        code = pc15.code
        k, n = code.k, code.n
        rng = np.random.default_rng(99)
        msg = rng.integers(0, 2, size=(k, k), dtype=np.uint8)
        rows = np.array([code.encode(m) for m in msg])
        grid = np.array([code.encode(rows[:, l]) for l in range(n)]).T
        cw = np.ascontiguousarray(grid, dtype=np.uint8).reshape(-1)
        assert cw.any()
        assert not any(frame_syndromes(pc15, cw))
        for i in range(20):
            err = sample_bsc(frame_rng(55, i), pc15.n_bits, 0.1)
            shifted = (cw ^ err).astype(np.uint8)
            o1, _ = iterative_bdd(pc15, shifted, 6)
            o0, _ = iterative_bdd(pc15, err, 6)
            assert ((o1 ^ cw) == o0).all()
            a1, _ = anchor_decode(pc15, shifted, 6)
            a0, _ = anchor_decode(pc15, err, 6)
            assert ((a1 ^ cw) == a0).all()
            g1, _ = genie_decode(pc15, shifted, cw, 6)
            g0, _ = genie_decode(pc15, err, None, 6)
            assert ((g1 ^ cw) == g0).all()

    def test_genie_ber_monotone_in_ell(self, pc15):
        """With the frame set fixed, extra genie iterations only remove
        errors, so the measured BER is non-increasing in ell."""
        bers = []
        for ell in (1, 2, 3, 6):
            cfg = TrialConfig(
                layout=pc15,
                variant="genie",
                p=0.13,
                ell=ell,
                min_frame_errors=10**6,
                max_frames=300,
                seed=21,
            )
            bers.append(run_trials(cfg).ber)
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert bers[0] > bers[-1]  # the point is in the waterfall


class TestBerRecord:
    def test_rates_and_row(self):
        rec = BerRecord(
            variant="anchor",
            p=0.015,
            frames=2000,
            bit_errors=123,
            frame_errors=17,
            ell=10,
            delta=1,
            seed=4,
            counted_bits=16384,
        )
        assert rec.ber == 123 / (2000 * 16384)
        assert rec.fer == 17 / 2000
        row = rec.csv_row()
        assert row.split(",")[0] == "anchor"
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
