"""Monte Carlo harness tests.

The frozen counters below (frames/bit_errors/frame_errors for fixed seeds)
pin the full pipeline: per-frame counter-mode RNG, BSC sampling, decoding,
batch-boundary stopping.  They were produced by the same code path and are
locked to catch accidental changes to any stage; the semantic properties
(determinism across worker counts, pairing, monotonicity, translation
invariance) are tested independently of those constants.
"""

import math
import signal
import time
from dataclasses import fields
from math import ceil

import numpy as np
import pytest

from bch_oracle import encode
import gpcdec.sim
from gpcdec import (
    anchor_decode,
    build_component_code,
    build_product_layout,
    build_staircase_layout,
    genie_decode,
    iterative_bdd,
)
from gpcdec.engine import DecodeStats, frame_syndromes
from gpcdec.postprocess import PpResult
from gpcdec.sim import (
    CSV_HEADER,
    MAX_WORKERS,
    PP_MODES,
    BerRecord,
    TrialConfig,
    format_csv_row,
    frame_rng,
    paired_records,
    run_sweep,
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

    EDGE_P = [0.0, 2**-53, 1e-300, 0.016, 0.5, 1 - 2**-53, 1.0]

    @pytest.mark.parametrize("p", EDGE_P)
    @pytest.mark.parametrize("n", [0, 1, 4097])
    def test_philox_equals_random_compare(self, p, n):
        rng, ref = frame_rng(4, 2), frame_rng(4, 2)
        got = sample_bsc(rng, n, p)
        want = (ref.random(n) < p).astype(np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert rng_state(rng) == rng_state(ref)

    @pytest.mark.parametrize("p", EDGE_P)
    def test_philox_words_next_to_the_bound(self, p):
        """Drawn words almost never land next to the bound between bits
        0 and 1, so the generator's buffer is set to words that do: the
        last and first 53-bit draws on either side of p, plus both ends."""
        k = ceil(p * 2**53)  # the least 53-bit draw not below p
        words = [max(k - 1, 0) << 11 | 2047, min(k, 2**53 - 1) << 11, 0, 2**64 - 1]
        rng, ref = frame_rng(4, 2), frame_rng(4, 2)
        for gen in (rng, ref):
            state = gen.bit_generator.state
            state["buffer"], state["buffer_pos"] = np.array(words, np.uint64), 0
            gen.bit_generator.state = state
        got = sample_bsc(rng, 6, p)
        assert np.array_equal(got, (ref.random(6) < p).astype(np.uint8))
        assert rng_state(rng) == rng_state(ref)

    def test_other_bit_generators_draw_doubles(self):
        for p in (0.016, 1.0):
            rng = np.random.Generator(np.random.MT19937(5))
            ref = np.random.Generator(np.random.MT19937(5))
            got = sample_bsc(rng, 1000, p)
            assert np.array_equal(got, (ref.random(1000) < p).astype(np.uint8))
            assert rng.random() == ref.random()

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

    @pytest.mark.parametrize("seed, index", [(0, 0), (42, 7), (2**64 - 1, 2**40 + 3)])
    def test_stream_equals_philox_key(self, seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(10_000)
        assert (frame_rng(seed, index).random(10_000) == want).all()

    def test_reads_no_os_entropy(self, monkeypatch):
        import numpy.random.bit_generator as bit_generator

        calls = []
        monkeypatch.setattr(bit_generator, "randbits", lambda k: calls.append(k) or 1)
        np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
        assert calls == [128]  # the patch sees the draw frame_rng avoids
        calls.clear()
        frame_rng(1, 2).random(8)
        assert calls == []

    def test_generators_share_no_state(self):
        a, b = frame_rng(9, 1), frame_rng(9, 1)
        assert a.bit_generator is not b.bit_generator
        first = a.random(100)
        assert (b.random(100) == first).all()
        assert not (a.random(100) == first).all()

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            frame_rng(seed, 0)

    @pytest.mark.parametrize("index", [-1, 2**64, 5 + 2**64])
    def test_index_outside_64_bits_refused(self, index):
        with pytest.raises(ValueError, match="frame_index must lie in"):
            frame_rng(0, index)

    @pytest.mark.parametrize("index", [2.5, 2.0, math.inf, math.nan])
    def test_non_integer_index_refused(self, index):
        with pytest.raises(TypeError):
            frame_rng(0, index)  # 2.5 drew frame 2's stream

    def test_non_integer_seed_refused(self):
        with pytest.raises(TypeError):
            frame_rng(1.5, 0)  # numpy would truncate it to seed 1's key
        assert (frame_rng(np.uint64(7), 3).random(8) == frame_rng(7, 3).random(8)).all()


def rng_state(rng):
    """A generator's whole state, buffer included, as comparable values."""
    state = rng.bit_generator.state
    return {key: np.asarray(value).tolist() if key != "state" else
            {k: np.asarray(v).tolist() for k, v in value.items()}
            for key, value in state.items()}


class TestSampleFrame:
    """The pinned words of a staircase frame's stream are skipped, not
    drawn; the frame and the generator's state after it are those of a
    draw over every bit followed by zeroing the pinned bits."""

    @pytest.mark.parametrize("args, blocks, window", [
        ((7, 2, 1, 0), 12, 6),  # blocks of 64 x 64: whole Philox blocks
        ((5, 2, 1, 2), 5, 4),  # blocks of 15 x 15: 225 words, not a multiple of 4
    ])
    def test_equals_full_draw_then_zeroing(self, args, blocks, window):
        layout = build_staircase_layout(build_component_code(*args), blocks, window)
        assert len(layout.sent) < layout.n_bits
        for index in range(5):
            full_rng = frame_rng(3, index)
            want = sample_bsc(full_rng, layout.n_bits, 0.3)
            want[layout.pinned] = 0
            rng = frame_rng(3, index)
            got = gpcdec.sim._sample_frame(layout, rng, 0.3)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
            assert rng_state(rng) == rng_state(full_rng)
            # erasure post-processing draws on from here
            assert (rng.random(7) == full_rng.random(7)).all()

    def test_staircase_equals_random_compare(self):
        layout = build_staircase_layout(build_component_code(5, 2, 1, 2), 5, 4)
        for p in (0.016, 1.0):
            rng, ref = frame_rng(8, 1), frame_rng(8, 1)
            want = (ref.random(layout.n_bits) < p).astype(np.uint8)
            want[layout.pinned] = 0
            got = gpcdec.sim._sample_frame(layout, rng, p)
            assert np.array_equal(got, want)
            assert rng_state(rng) == rng_state(ref)

    def test_product_is_one_draw(self, pc15, monkeypatch):
        drawn = []
        orig = gpcdec.sim.sample_bsc

        def spy(rng, num_bits, p):
            drawn.append(orig(rng, num_bits, p))
            return drawn[-1]

        monkeypatch.setattr(gpcdec.sim, "sample_bsc", spy)
        frame = gpcdec.sim._sample_frame(pc15, frame_rng(1, 2), 0.2)
        assert len(drawn) == 1 and frame is drawn[0]  # no copy
        assert pc15.sent == range(pc15.n_bits)

    def test_skip_draws_equals_drawing(self):
        for pos in range(13):
            for stop in range(pos, 30):
                want, rng = frame_rng(5, 0), frame_rng(5, 0)
                want.bit_generator.random_raw(stop)
                rng.bit_generator.random_raw(pos)
                gpcdec.sim._skip_draws(rng.bit_generator, pos, stop)
                assert rng_state(rng) == rng_state(want), (pos, stop)

    def test_sampled_through_the_module_names(self, monkeypatch):
        """A staircase frame still goes through ``frame_rng`` and
        ``sample_bsc`` as looked up in ``gpcdec.sim``, where the
        benchmark's tracer and checker wrap them."""
        sc = build_staircase_layout(build_component_code(4, 2, 1, 0), 5, 3)
        calls = []
        for name in ("frame_rng", "sample_bsc"):
            orig = getattr(gpcdec.sim, name)
            monkeypatch.setattr(gpcdec.sim, name, lambda *a, o=orig, n=name:
                                calls.append(n) or o(*a))
        run_trials(TrialConfig(layout=sc, p=0.05, ell=2, max_frames=3, batch_frames=2))
        assert calls == ["frame_rng", "sample_bsc"] * 3


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
            {"workers": MAX_WORKERS + 1},  # checked by construction: none runs
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 5 + 2**64},  # would alias seed 5 in a 64-bit key
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                TrialConfig(**{**good, **kw})
        TrialConfig(**good, seed=2**64 - 1)
        TrialConfig(**good, workers=MAX_WORKERS)
        # integer fields that are no integers: ell, max_frames, batch_frames
        # and workers crashed at the first frame; the rest ran rounded
        not_int = [
            {"ell": 2.5},
            {"ell": 10.0},
            {"delta": 1.5},
            {"reduced_t_iters": 0.5},
            {"pp_extra_iters": 2.5},
            {"min_frame_errors": 10.5},
            {"max_frames": 100.0},
            {"batch_frames": 32.5},
            {"workers": 1.5},
            {"seed": 1.5},
        ]
        for kw in not_int:
            with pytest.raises(TypeError):
                TrialConfig(**{**good, **kw})
        TrialConfig(**good, ell=np.int64(4), workers=np.uint8(1), delta=True)

    def test_rejects_settings_the_run_ignores(self, pc15):
        """The genie decodes no reduced-budget phase, and only the bit-flip
        rescue reruns a decoder for pp_extra_iters."""
        good = dict(layout=pc15, p=0.02)
        for kw in (
            {"variant": "genie", "reduced_t_iters": 1},
            {"pp_extra_iters": 2},
            {"pp": "erasure", "pp_extra_iters": 2},
        ):
            with pytest.raises(ValueError):
                TrialConfig(**good, **kw)
        TrialConfig(**good, variant="genie", reduced_t_iters=0)
        TrialConfig(**good, variant="iterative", reduced_t_iters=1)
        TrialConfig(**good, pp="bitflip", pp_extra_iters=2)


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

    @pytest.mark.parametrize("variant", ["iterative", "anchor", "genie"])
    def test_frame_stats_carry_every_decode_stat(self, pc15, variant):
        """Every DecodeStats field, and for a rescued frame every PpResult
        field but the frame, reaches each per-frame record in field order,
        so no field the runs never report can sit in either."""
        head = ["frame", "bit_errors", "frame_error"]
        head += [f.name for f in fields(DecodeStats)]
        tail = ["pp_variant"] + [f"pp_{f.name}" for f in fields(PpResult)[1:]]
        for pp in PP_MODES:
            cfg = TrialConfig(layout=pc15, variant=variant, p=0.16, ell=6, pp=pp,
                              min_frame_errors=10**6, max_frames=40, seed=4)
            rec = run_trials(cfg, collect_frame_stats=True)
            for r in rec.frame_stats:
                assert list(r) in (head, head + tail)
                assert r.get("pp_variant", pp) == pp
            rescued = sum(len(r) > len(head) for r in rec.frame_stats)
            assert (rescued > 0) == (pp != "none")

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


# (variant, p) of a pc15 sweep under one stop rule (25 frame errors or 1000
# frames, batches of 64): the iterative 0.14 point stops mid-grid with
# batches of it still unsubmitted, the others run to max_frames, each
# ending on a partial batch (1000 = 15*64 + 40)
SWEEP = (("iterative", 0.08), ("iterative", 0.14), ("anchor", 0.1), ("genie", 0.14))


def sweep_configs(layout, workers, seed=7):
    return [
        TrialConfig(layout=layout, variant=variant, p=p, ell=6,
                    min_frame_errors=25, max_frames=1000, seed=seed,
                    batch_frames=64, workers=workers)
        for variant, p in SWEEP
    ]


def stop_configs(layout, workers, seed=2):
    """An anchor pc15 sweep stopped at 12 frame errors or 400 frames, in
    batches of 16 (25 per point).  Seed 2's 0.01 point decodes no error,
    and its 0.12 point runs past the likely stops of its first batches."""
    return [
        TrialConfig(layout=layout, variant="anchor", p=p, ell=6,
                    min_frame_errors=12, max_frames=400, seed=seed,
                    batch_frames=16, workers=workers)
        for p in (0.01, 0.12, 0.14, 0.16)
    ]


@pytest.fixture
def deadline():
    """Fail a test that has not returned within two minutes, so a pool
    that never delivers a result fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError("no return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestRunSweep:
    def test_worker_count_does_not_change_records(self, pc15):
        runs = {w: run_sweep(sweep_configs(pc15, w), collect_frame_stats=True)
                for w in (1, 2, 3)}
        one = runs[1]
        # frozen counters: the 0.14 iterative point equals
        # TestRunTrials.test_early_stop_at_batch_boundary
        assert [(r.variant, r.p, r.frames, r.frame_errors) for r in one] == [
            ("iterative", 0.08, 1000, 3),
            ("iterative", 0.14, 192, 33),
            ("anchor", 0.1, 1000, 7),
            ("genie", 0.14, 1000, 10),
        ]
        assert one[1].bit_errors == 810
        for rec in one:
            assert [f["frame"] for f in rec.frame_stats] == list(range(rec.frames))
        for workers in (2, 3):
            assert runs[workers] == one
            assert [r.frame_stats for r in runs[workers]] == [r.frame_stats for r in one]

    def test_likely_stops_do_not_change_records(self, pc15):
        """The pool holds batches back at each point's likely stop; what
        it counts stays that of one worker, also where a point runs past
        the stop its first batches foretold and where a point decodes no
        error and runs to max_frames."""
        runs = {w: run_sweep(stop_configs(pc15, w), collect_frame_stats=True)
                for w in (1, 2, 3)}
        one = runs[1]
        assert [(r.p, r.frames, r.frame_errors) for r in one] == [
            (0.01, 400, 0), (0.12, 208, 13), (0.14, 128, 12), (0.16, 64, 13)]
        for workers in (2, 3):
            assert runs[workers] == one
            assert [r.frame_stats for r in runs[workers]] == [r.frame_stats for r in one]
        cfg, rec = stop_configs(pc15, 1)[1], one[1]
        errors = np.cumsum([f["frame_error"] for f in rec.frame_stats])
        batches = rec.frames // cfg.batch_frames
        foretold = [gpcdec.sim._likely_stop(cfg, b, int(errors[b * 16 - 1]), 25)
                    for b in range(1, batches)]
        assert min(foretold) < batches

    def test_fewer_frames_decoded_than_counted_past_the_stops(self, pc15, monkeypatch):
        """Frames decoded but never counted.  Submitting in (point, batch)
        order with ``2 * workers`` in flight left ``2 * workers - 1``
        batches queued past each stop that came before a point's last
        batch.  A two-worker pool has handed all three to its workers by
        then (its call queue holds workers + 1), so all were decoded: 96
        frames here.  Held back at each point's likely stop, rounded down,
        one batch is: 16 frames.  The 0.14 point is foretold to stop after
        6 batches but needs 7, and before its held-back seventh goes out
        the pool fills with the last point's batches up to its fourth,
        which that point, stopping after 3, never counts."""
        import multiprocessing

        decoded = multiprocessing.Value("q", 0)  # shared with the forked workers
        orig = gpcdec.sim._simulate_batch

        def spy(layout, cfg, batch, collect):
            time.sleep(0.005)  # a batch outlasts the read of a result
            out = orig(layout, cfg, batch, collect)
            with decoded.get_lock():
                decoded.value += out[0]
            return out

        monkeypatch.setattr(gpcdec.sim, "_simulate_batch", spy)
        records = run_sweep(stop_configs(pc15, 2, seed=1))
        counted = sum(r.frames for r in records)
        assert [r.frames for r in records] == [400, 400, 112, 48]
        queued_past = sum(min(3, 25 - r.frames // 16) * 16 for r in records)
        assert queued_past == 96
        assert counted <= decoded.value <= counted + 16

    def test_no_worker_or_pool_thread_outlives_the_sweep(self, pc15, monkeypatch):
        """Every point stops early, and frames slow enough that batches
        are still running when the last one does.  They stop at their next
        frame, and the pool is shut down and reaped inside run_sweep: no
        child process and no thread is left when it returns."""
        import multiprocessing
        import threading

        orig = gpcdec.sim._decode_frame

        def slow(*args):
            time.sleep(0.002)
            return orig(*args)

        monkeypatch.setattr(gpcdec.sim, "_decode_frame", slow)
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        records = run_sweep(stop_configs(pc15, 2))
        assert all(r.frames < 400 for r in records[1:])
        assert set(multiprocessing.active_children()) == children
        assert set(threading.enumerate()) == threads

    def test_one_point_equals_run_trials(self, pc15):
        for cfg in sweep_configs(pc15, 2):
            assert run_sweep([cfg]) == [run_trials(cfg)]

    def test_one_pool_per_sweep(self, pc15, monkeypatch):
        pools = []

        class CountingPool(gpcdec.sim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gpcdec.sim, "ProcessPoolExecutor", CountingPool)
        assert len(run_sweep(sweep_configs(pc15, 2))) == len(SWEEP)
        assert len(pools) == 1
        run_sweep(sweep_configs(pc15, 1))
        assert len(pools) == 1  # one worker never starts a pool

    def test_one_worker_calls_run_trials_per_point(self, pc15, monkeypatch):
        # looked up at call time, so a wrapper on gpcdec.sim.run_trials
        # sees every point of a one-worker sweep
        seen = []
        orig = gpcdec.sim.run_trials

        def spy(cfg, collect_frame_stats=False):
            seen.append(cfg.p)
            return orig(cfg, collect_frame_stats)

        monkeypatch.setattr(gpcdec.sim, "run_trials", spy)
        run_sweep(sweep_configs(pc15, 1))
        assert seen == [p for _, p in SWEEP]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_exception_propagates(self, pc15, monkeypatch, workers):
        orig = gpcdec.sim.frame_rng

        def failing(seed, index):
            if seed == 99 and index == 70:
                raise RuntimeError("planted failure in frame 70")
            return orig(seed, index)

        # installed before the pool forks, so its workers run it too
        monkeypatch.setattr(gpcdec.sim, "frame_rng", failing)
        cfgs = sweep_configs(pc15, workers)
        cfgs[2] = sweep_configs(pc15, workers, seed=99)[2]
        with pytest.raises(RuntimeError, match="planted failure"):
            run_sweep(cfgs)

    def test_configs_must_agree_on_workers(self, pc15):
        assert run_sweep([]) == []
        mixed = sweep_configs(pc15, 1)[:1] + sweep_configs(pc15, 2)[1:]
        with pytest.raises(ValueError, match="workers"):
            run_sweep(mixed)


class TestPairedRecords:
    def test_same_frames_clean_ordering(self, pc15):
        recs = paired_records(
            pc15, ("iterative", "anchor", "genie"), 0.13, 8, 500, 11
        )
        assert paired_records(
            pc15, ("iterative", "anchor", "genie"), 0.13, 8, 500, 11, workers=2
        ) == recs
        assert all(r.frames == 500 for r in recs.values())
        assert recs["genie"].bit_errors <= recs["anchor"].bit_errors
        assert recs["anchor"].bit_errors < recs["iterative"].bit_errors
        assert recs["genie"].frame_errors <= recs["anchor"].frame_errors
        assert recs["anchor"].frame_errors <= recs["iterative"].frame_errors


    def test_reduced_phase_skips_the_genie(self):
        """The genie has no reduced phase: a paired run hands it 0 and
        the other variants their ``reduced_t_iters``."""
        layout = build_product_layout(build_component_code(4, 2, 0, 0))
        recs = paired_records(layout, ["anchor", "genie"], 0.05, 4, 8, 1,
                              reduced_t_iters=1)
        assert [r.frames for r in recs.values()] == [8, 8]
        for variant in ("anchor", "genie"):
            reduced = 1 if variant == "anchor" else 0
            cfg = TrialConfig(layout=layout, variant=variant, p=0.05, ell=4,
                              reduced_t_iters=reduced, min_frame_errors=9,
                              max_frames=8, seed=1)
            assert recs[variant] == run_trials(cfg)


class TestInvariants:
    def test_codeword_translation_symmetry(self, pc15):
        """Decoding is equivariant under adding a valid codeword: the
        residual error pattern depends only on the channel errors."""
        code = pc15.code
        k, n = code.k, code.n
        rng = np.random.default_rng(99)
        msg = rng.integers(0, 2, size=(k, k), dtype=np.uint8)
        rows = np.array([encode(code, m) for m in msg])
        grid = np.array([encode(code, rows[:, l]) for l in range(n)]).T
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
