"""BSC Monte Carlo harness with deterministic parallelism.

Every frame transmits the all-zero codeword (code, channel and all decoder
variants are symmetric under codeword translation, so this loses no
generality) and draws its error pattern from a counter-mode generator keyed
by (master seed, frame index).  Bit b takes word b of that stream; a
staircase's pinned termination blocks are not transmitted, so their words
are skipped with ``Philox.advance`` rather than drawn.  Frames are grouped
into fixed-size batches; the stop rule is evaluated at batch boundaries in
batch order, so the set of simulated frames -- and therefore every counter
in the result -- is bit-identical for any worker count.

With more than one worker, a sweep (``run_sweep``: several operating
points, such as a p grid or every decoder variant at one p) runs through
one process pool, whose workers keep the code's BDD memo warm from point
to point.  ``2 * workers`` batches are kept in flight: in point order, the
batches below each point's likely stop (extrapolated from its frame errors
so far, rounded down), so the next point starts while the current one
finishes, and batches past a likely stop only when no other is left and a
worker would idle.  Each point's results are still consumed in batch
order and stopped by its own rule; a held-back batch it turns out to need
is submitted then, and its batches in flight past the stop are cancelled
and never counted.  When the sweep ends, batches still running stop at
their next frame, and the pool is reaped before ``run_sweep`` returns.
"""

import operator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from multiprocessing import RawValue
from time import perf_counter

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .engine import (
    DecoderState,
    anchor_decode_state,
    check_schedule,
    genie_decode,
    iterative_bdd,
)
from .layout import GpcLayout
from .postprocess import bitflip_iterate_pp, erasure_pp

__all__ = [
    "TrialConfig",
    "BerRecord",
    "CSV_HEADER",
    "format_csv_row",
    "frame_rng",
    "sample_bsc",
    "run_trials",
    "run_sweep",
    "paired_records",
]

VARIANTS = ("iterative", "anchor", "genie")
PP_MODES = ("none", "bitflip", "erasure")

CSV_HEADER = "variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed"

# most worker processes a run may start: a pool forks all of them at its
# first batch, so an unchecked count would fork that many at once
MAX_WORKERS = 256


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """One Monte Carlo operating point.

    The run stops at the first batch boundary where ``min_frame_errors``
    is reached, or after ``max_frames`` frames, whichever comes first.
    ``batch_frames`` only moves those boundaries; it never changes the
    outcome of any individual frame.  A setting the run would ignore is
    refused: ``reduced_t_iters`` for the genie, which has no reduced
    phase, and ``pp_extra_iters`` unless ``pp`` is ``"bitflip"``.
    """

    layout: GpcLayout
    variant: str = "anchor"
    p: float = 0.01
    ell: int = 10
    delta: int = 1
    reduced_t_iters: int = 0
    pp: str = "none"
    pp_extra_iters: int | None = None
    min_frame_errors: int = 100
    max_frames: int = 10_000_000
    seed: int = 0
    batch_frames: int = 256
    workers: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.pp not in PP_MODES:
            raise ValueError(f"pp must be one of {PP_MODES}")
        if not 0.0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 0.5)")
        check_schedule(self.ell, self.reduced_t_iters)
        if operator.index(self.delta) < 0:
            raise ValueError("delta must be >= 0")
        if self.pp_extra_iters is not None and operator.index(self.pp_extra_iters) < 1:
            raise ValueError("pp_extra_iters must be >= 1")
        if operator.index(self.min_frame_errors) < 1 or operator.index(self.max_frames) < 1:
            raise ValueError("stop rule must be positive")
        if operator.index(self.batch_frames) < 1:
            raise ValueError("batch_frames must be >= 1")
        if operator.index(self.workers) < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")
        _check_word(self.seed, "seed")
        if self.variant == "genie" and self.reduced_t_iters:
            raise ValueError("the genie decoder takes no reduced_t_iters")
        if self.pp_extra_iters is not None and self.pp != "bitflip":
            raise ValueError("pp_extra_iters needs pp='bitflip'")


@dataclass(frozen=True)
class BerRecord:
    """Accumulated result of one operating point.

    ``counted_bits`` is the per-frame BER denominator: all bits of a
    product code, the real data blocks of a staircase.  ``wall_time`` and
    the optional per-frame stats are excluded from equality so records
    from runs with different worker counts compare equal.
    """

    variant: str
    p: float
    frames: int
    bit_errors: int
    frame_errors: int
    ell: int
    delta: int
    seed: int
    counted_bits: int
    pp: str = "none"
    wall_time: float = field(default=0.0, compare=False)
    frame_stats: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.counted_bits)

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames

    def csv_row(self, variant: str | None = None) -> str:
        """This record as a CSV row, labelled ``variant`` if given."""
        return format_csv_row(
            self.variant if variant is None else variant, self.p, self.frames,
            self.bit_errors, self.frame_errors, self.ber, self.fer, self.ell,
            self.delta, self.seed,
        )


def format_csv_row(variant: str, p: float, frames: int, bit_errors: int,
                   frame_errors: int, ber: float, fer: float, ell: int,
                   delta: int, seed: int) -> str:
    """One row of the CSV_HEADER schema; floats are written by repr."""
    cells = (variant, repr(p), frames, bit_errors, frame_errors, repr(ber),
             repr(fer), ell, delta, seed)
    return ",".join(str(c) for c in cells)


def _check_word(value: int, name: str) -> None:
    """Refuse a seed or frame index that is no integer or does not fit a
    Philox key word, where numpy would truncate it to another one's key."""
    if not 0 <= operator.index(value) < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


class _FrameKey(ISeedSequence):
    """Seed sequence that hands Philox a fixed key.  Philox draws its key
    as two uint64 words from its seed sequence, so it ends up keyed like
    ``Philox(key=key)`` without the OS entropy that ``key=`` first reads
    to seed a SeedSequence it then discards."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise TypeError("a frame key is two uint64 words")
        return self.key


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Counter-mode generator for one frame: the Philox key is the
    (master seed, frame index) pair, so streams never collide and any
    worker reproduces any frame independently.  Both must be integers
    that fit 64 bits; a wider one would alias a narrower one."""
    _check_word(seed, "seed")
    _check_word(frame_index, "frame_index")
    key = np.array([seed, frame_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_FrameKey(key)))


def sample_bsc(rng: np.random.Generator, num_bits: int, p: float) -> np.ndarray:
    """IID Bernoulli(p) error vector: bit i is ``rng.random() < p`` for
    the i-th draw.  On Philox the words are compared raw, which is faster
    and gives the same bits and the same generator state after: a draw
    is (word >> 11) / 2^53, below p exactly when the word is below
    ceil(p * 2^53) << 11.  At p = 1 that bound is 2^64, past every word,
    so the words are drawn and every bit is set.  Other bit generators
    may form their doubles differently and draw through ``random``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if num_bits < 0:
        raise ValueError("num_bits must be >= 0")
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        return (rng.random(num_bits) < p).astype(np.uint8)
    words = bitgen.random_raw(num_bits)
    if p == 1.0:
        return np.ones(num_bits, dtype=np.uint8)
    return (words < np.uint64(ceil(p * 2**53) << 11)).view(np.uint8)


def _skip_draws(bitgen, pos: int, stop: int) -> None:
    """Move ``bitgen`` from word ``pos`` of its stream to word ``stop`` as
    drawing the words in between would, buffer included.  ``advance``
    counts 4-word Philox blocks and empties the buffer, so it skips whole
    blocks only, and the last 1 to 4 words (with any left in the block
    holding ``pos``) are drawn and discarded."""
    base = -(-pos // 4) * 4  # the counter is past the block holding pos
    if stop - base > 4:
        blocks = (stop - base - 1) // 4
        bitgen.advance(blocks)
        pos = base + 4 * blocks
    bitgen.random_raw(stop - pos)


def _sample_frame(layout: GpcLayout, rng: np.random.Generator, p: float) -> np.ndarray:
    """The received frame: BSC errors on the sent bits, zeros on the
    pinned ones.  Bit b takes word b of the frame's stream, which ends
    where a draw over every bit ends, so ``erasure_pp`` draws on from the
    same state; the pinned words are skipped, not drawn."""
    sent, n_bits = layout.sent, layout.n_bits
    if len(sent) == n_bits:
        return sample_bsc(rng, n_bits, p)
    frame = np.zeros(n_bits, dtype=np.uint8)
    _skip_draws(rng.bit_generator, 0, sent.start)
    frame[sent.start:sent.stop] = sample_bsc(rng, len(sent), p)
    _skip_draws(rng.bit_generator, sent.stop, n_bits)
    return frame


def _decode_frame(layout: GpcLayout, cfg: TrialConfig, index: int, collect: bool):
    rng = frame_rng(cfg.seed, index)
    frame = _sample_frame(layout, rng, cfg.p)
    state = None
    if cfg.variant == "anchor":
        state = anchor_decode_state(
            layout, frame, cfg.ell, cfg.delta, cfg.reduced_t_iters
        )
        out, stats = state.frame, state.stats
    elif cfg.variant == "iterative":
        out, stats = iterative_bdd(layout, frame, cfg.ell, cfg.reduced_t_iters)
    else:
        out, stats = genie_decode(layout, frame, None, cfg.ell)
    pp_res = None
    if cfg.pp != "none" and not stats.syndromes_zero:
        if state is None:
            state = DecoderState(layout, out)
        if cfg.pp == "bitflip":
            extra = cfg.pp_extra_iters if cfg.pp_extra_iters else cfg.ell
            pp_res = bitflip_iterate_pp(state, extra, variant=cfg.variant)
        else:
            pp_res = erasure_pp(state, rng)
        out = pp_res.frame
    # the decoded frame holds only 0 and 1, so a count of its set bits is
    # its error count, several times cheaper than a sum of its bytes; the
    # counted bits are the sent ones
    sent = layout.sent
    bit_errors = int(np.count_nonzero(out[sent.start:sent.stop]))
    frame_error = bit_errors > 0
    if not collect:
        return bit_errors, frame_error, None
    # every DecodeStats field, then every PpResult field but the frame;
    # vars() is a shallow view, where dataclasses.asdict would deep-copy
    rec = {"frame": index, "bit_errors": bit_errors, "frame_error": frame_error,
           **vars(stats)}
    if pp_res is not None:
        rec["pp_variant"] = cfg.pp
        rec.update((f"pp_{k}", v) for k, v in vars(pp_res).items() if k != "frame")
    return bit_errors, frame_error, rec


def _simulate_batch(layout: GpcLayout, cfg: TrialConfig, batch: int, collect: bool):
    lo = batch * cfg.batch_frames
    hi = min(lo + cfg.batch_frames, cfg.max_frames)
    bit_errors = frame_errors = 0
    recs = [] if collect else None
    for index in range(lo, hi):
        if _POOL_CTX and _POOL_CTX[2].value:
            break
        b, fe, rec = _decode_frame(layout, cfg, index, collect)
        bit_errors += b
        frame_errors += fe
        if collect:
            recs.append(rec)
    return hi - lo, bit_errors, frame_errors, recs


class _Deferred:
    """A batch run in this process when its result is asked for, so a
    batch cancelled by the stop rule is never decoded."""

    def __init__(self, cfg: TrialConfig, batch: int, collect: bool):
        self._args = (cfg.layout, cfg, batch, collect)

    def result(self):
        return _simulate_batch(*self._args)

    def cancel(self) -> bool:
        return True


# worker-process context, set once per process by the pool initializer:
# the configs, collect, and the sweep's flag that ends batches it won't read
_POOL_CTX = None


def _pool_init(*ctx):
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_batch(point: int, batch: int):
    cfgs, collect, _ = _POOL_CTX
    cfg = cfgs[point]
    return _simulate_batch(cfg.layout, cfg, batch, collect)


@contextmanager
def _batch_runner(cfgs, collect: bool):
    """``submit(point, batch)``, returning an object with ``result()`` and
    ``cancel()``: deferred in this process for one worker, else a future of
    one process pool that serves every point."""
    workers = cfgs[0].workers
    if workers == 1:
        yield lambda point, batch: _Deferred(cfgs[point], batch, collect)
        return
    stop = RawValue("b", 0)
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(cfgs, collect, stop)
    )
    try:
        yield lambda point, batch: pool.submit(_pool_batch, point, batch)
    finally:
        # batches still running past the last stop end at their next frame,
        # and the pool is reaped: no worker or pool thread outlives the sweep
        stop.value = 1
        pool.shutdown(wait=True, cancel_futures=True)


def _likely_stop(cfg: TrialConfig, batches: int, frame_errors: int, end: int) -> int:
    """The batch count a point likely stops at, extrapolated from its
    ``batches`` consumed batches and their ``frame_errors``; ``end``, the
    count ``max_frames`` allows, before its first error.  The
    extrapolation is rounded down, so the estimate errs low: a batch held
    back that turns out to be needed waits while other batches keep the
    workers busy, where one decoded past the stop is lost."""
    if not frame_errors:
        return end
    need = cfg.min_frame_errors - frame_errors
    return min(end, batches + need * batches // frame_errors)


def _run_points(cfgs, collect: bool) -> list[BerRecord]:
    """The one batch and stop-rule loop: one record per config, in order.

    Points are consumed one after another, each point's batches in index
    order, so a point stops before any result of the next is read.  Up to
    ``2 * workers`` batches are in flight: in point order, each live
    point's batches below its likely stop (``_likely_stop``, all of them
    until its first error).  Batches past a likely stop go out only when
    no other is left, and only while fewer than ``workers`` are in flight,
    so that no worker idles.  A batch that is needed but was held back is
    submitted at once.  When a point stops, its batches in flight are
    cancelled.
    """
    workers = cfgs[0].workers
    ends = [ceil(cfg.max_frames / cfg.batch_frames) for cfg in cfgs]
    likely = ends[:]  # per point, the batch count it likely stops at
    queued = [0] * len(cfgs)  # per point, the batches submitted so far
    in_flight: dict = {}  # (point, batch) -> its future
    records = []
    with _batch_runner(cfgs, collect) as submit:

        def send(point: int) -> None:
            in_flight[point, queued[point]] = submit(point, queued[point])
            queued[point] += 1

        def fill(first: int) -> None:
            live = range(first, len(cfgs))
            while len(in_flight) < 2 * workers:
                point = next((pt for pt in live if queued[pt] < likely[pt]), None)
                if point is None and len(in_flight) < workers:
                    # past a likely stop, only so that no worker idles
                    point = next((pt for pt in live if queued[pt] < ends[pt]), None)
                if point is None:
                    return
                send(point)

        fill(0)
        t0 = perf_counter()
        for point, cfg in enumerate(cfgs):
            frames = bit_errors = frame_errors = 0
            all_recs: list = []
            for batch in range(ends[point]):
                if batch == queued[point]:  # held back, and now needed
                    send(point)
                nf, nb, ne, recs = in_flight.pop((point, batch)).result()
                frames += nf
                bit_errors += nb
                frame_errors += ne
                if recs:
                    all_recs.extend(recs)
                if frame_errors >= cfg.min_frame_errors or frames >= cfg.max_frames:
                    break
                likely[point] = _likely_stop(cfg, batch + 1, frame_errors, ends[point])
                fill(point)
            for key in [key for key in in_flight if key[0] == point]:
                in_flight.pop(key).cancel()
            t1 = perf_counter()
            records.append(BerRecord(
                variant=cfg.variant,
                p=cfg.p,
                frames=frames,
                bit_errors=bit_errors,
                frame_errors=frame_errors,
                ell=cfg.ell,
                delta=cfg.delta,
                seed=cfg.seed,
                counted_bits=cfg.layout.n_counted_bits,
                pp=cfg.pp,
                wall_time=t1 - t0,
                frame_stats=tuple(all_recs) if collect else None,
            ))
            t0 = t1
            fill(point + 1)
    return records


def run_trials(cfg: TrialConfig, collect_frame_stats: bool = False) -> BerRecord:
    """Simulate one operating point until the stop rule fires.

    Batches are consumed strictly in index order regardless of worker
    count, so two runs of the same config differ only in wall time.
    """
    return _run_points([cfg], collect_frame_stats)[0]


def run_sweep(cfgs, collect_frame_stats: bool = False) -> list[BerRecord]:
    """Simulate several operating points; one record per config, in order.

    Each record equals ``run_trials`` of its config.  The configs must
    agree on ``workers``.  With one worker every point is a call of
    ``run_trials``; with more, one process pool serves the whole sweep,
    and its workers keep the code's BDD memo warm across points that
    share a layout.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    workers = cfgs[0].workers
    if any(cfg.workers != workers for cfg in cfgs):
        raise ValueError("the configs of a sweep must agree on workers")
    if workers == 1:
        return [run_trials(cfg, collect_frame_stats) for cfg in cfgs]
    return _run_points(cfgs, collect_frame_stats)


def paired_records(
    layout: GpcLayout,
    variants,
    p: float,
    ell: int,
    frames: int,
    seed: int,
    delta: int = 1,
    reduced_t_iters: int = 0,
    pp: str = "none",
    workers: int = 1,
) -> dict[str, BerRecord]:
    """Run several decoder variants over the identical frame set.

    Early stopping is disabled so every variant sees the same ``frames``
    error patterns; differences between records are then attributable to
    the decoders alone (paired comparison).  ``reduced_t_iters`` applies
    to the variants with a reduced phase; the genie runs without one.
    """
    cfgs = [
        TrialConfig(
            layout=layout,
            variant=variant,
            p=p,
            ell=ell,
            delta=delta,
            reduced_t_iters=0 if variant == "genie" else reduced_t_iters,
            pp=pp,
            min_frame_errors=frames + 1,
            max_frames=frames,
            seed=seed,
            workers=workers,
        )
        for variant in variants
    ]
    return {rec.variant: rec for rec in run_sweep(cfgs)}
