"""BSC Monte Carlo harness with deterministic parallelism.

Every frame transmits the all-zero codeword (code, channel and all decoder
variants are symmetric under codeword translation, so this loses no
generality) and draws its error pattern from a counter-mode generator keyed
by (master seed, frame index).  Frames are grouped into fixed-size batches;
the stop rule is evaluated at batch boundaries in batch order, so the set
of simulated frames -- and therefore every counter in the result -- is
bit-identical for any worker count.
"""

import itertools
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter

import numpy as np

from .engine import (
    DecoderState,
    anchor_decode_state,
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
    "paired_records",
]

VARIANTS = ("iterative", "anchor", "genie")
PP_MODES = ("none", "bitflip", "erasure")

CSV_HEADER = "variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed"


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """One Monte Carlo operating point.

    The run stops at the first batch boundary where ``min_frame_errors``
    is reached, or after ``max_frames`` frames, whichever comes first.
    ``batch_frames`` only moves those boundaries; it never changes the
    outcome of any individual frame.
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
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not 0 <= self.reduced_t_iters <= self.ell:
            raise ValueError("reduced_t_iters must lie in [0, ell]")
        if self.pp_extra_iters is not None and self.pp_extra_iters < 1:
            raise ValueError("pp_extra_iters must be >= 1")
        if self.min_frame_errors < 1 or self.max_frames < 1:
            raise ValueError("stop rule must be positive")
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Counter-mode generator for one frame: the Philox key is the
    (master seed, frame index) pair, so streams never collide and any
    worker reproduces any frame independently."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, frame_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_bsc(rng: np.random.Generator, num_bits: int, p: float) -> np.ndarray:
    """IID Bernoulli(p) error vector."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if num_bits < 0:
        raise ValueError("num_bits must be >= 0")
    return (rng.random(num_bits) < p).astype(np.uint8)


def _decode_frame(layout: GpcLayout, cfg: TrialConfig, index: int, collect: bool):
    rng = frame_rng(cfg.seed, index)
    frame = sample_bsc(rng, layout.n_bits, cfg.p)
    if layout.has_pinned:
        frame[layout.pinned] = 0  # known-zero bits are not transmitted
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
    if layout.all_counted:
        bit_errors = int(out.sum())
    else:
        bit_errors = int(out[layout.counted].sum())
    frame_error = bit_errors > 0
    if not collect:
        return bit_errors, frame_error, None
    rec = {
        "frame": index,
        "bit_errors": bit_errors,
        "frame_error": frame_error,
        "half_iterations": stats.half_iterations,
        "corrections": stats.corrections,
        "frozen_events": stats.frozen_events,
        "backtracks": stats.backtracks,
        "syndromes_zero": stats.syndromes_zero,
    }
    if pp_res is not None:
        rec.update(
            pp_variant=cfg.pp,
            pp_success=pp_res.success,
            pp_f1_size=pp_res.f1_size,
            pp_f2_size=pp_res.f2_size,
            pp_intersection_size=pp_res.intersection_size,
            pp_augmented=pp_res.augmented,
        )
    return bit_errors, frame_error, rec


def _simulate_batch(layout: GpcLayout, cfg: TrialConfig, batch: int, collect: bool):
    lo = batch * cfg.batch_frames
    hi = min(lo + cfg.batch_frames, cfg.max_frames)
    bit_errors = frame_errors = 0
    recs = [] if collect else None
    for index in range(lo, hi):
        b, fe, rec = _decode_frame(layout, cfg, index, collect)
        bit_errors += b
        frame_errors += fe
        if collect:
            recs.append(rec)
    return hi - lo, bit_errors, frame_errors, recs


# worker-process context, set once per process by the pool initializer
_POOL_CTX = None


def _pool_init(layout, cfg, collect):
    global _POOL_CTX
    _POOL_CTX = (layout, cfg, collect)


def _pool_batch(batch: int):
    layout, cfg, collect = _POOL_CTX
    return _simulate_batch(layout, cfg, batch, collect)


def run_trials(cfg: TrialConfig, collect_frame_stats: bool = False) -> BerRecord:
    """Simulate one operating point until the stop rule fires.

    Batches are consumed strictly in index order regardless of worker
    count, so two runs of the same config differ only in wall time.
    """
    layout = cfg.layout
    t0 = perf_counter()
    n_batches = ceil(cfg.max_frames / cfg.batch_frames)
    frames = bit_errors = frame_errors = 0
    all_recs: list = []

    def accumulate(result) -> bool:
        nonlocal frames, bit_errors, frame_errors
        nf, nb, ne, recs = result
        frames += nf
        bit_errors += nb
        frame_errors += ne
        if recs:
            all_recs.extend(recs)
        return frame_errors >= cfg.min_frame_errors or frames >= cfg.max_frames

    if cfg.workers == 1:
        for batch in range(n_batches):
            if accumulate(
                _simulate_batch(layout, cfg, batch, collect_frame_stats)
            ):
                break
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_pool_init,
            initargs=(layout, cfg, collect_frame_stats),
        ) as pool:
            window = 2 * cfg.workers
            todo = iter(range(n_batches))
            pending: deque = deque(
                pool.submit(_pool_batch, b) for b in itertools.islice(todo, window)
            )
            while pending:
                done = accumulate(pending.popleft().result())
                for b in itertools.islice(todo, 1):
                    pending.append(pool.submit(_pool_batch, b))
                if done:
                    pool.shutdown(wait=False, cancel_futures=True)
                    break
    return BerRecord(
        variant=cfg.variant,
        p=cfg.p,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ell=cfg.ell,
        delta=cfg.delta,
        seed=cfg.seed,
        counted_bits=layout.n_counted_bits,
        pp=cfg.pp,
        wall_time=perf_counter() - t0,
        frame_stats=tuple(all_recs) if collect_frame_stats else None,
    )


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
    the decoders alone (paired comparison).
    """
    out = {}
    for variant in variants:
        cfg = TrialConfig(
            layout=layout,
            variant=variant,
            p=p,
            ell=ell,
            delta=delta,
            reduced_t_iters=reduced_t_iters,
            pp=pp,
            min_frame_errors=frames + 1,
            max_frames=frames,
            seed=seed,
            workers=workers,
        )
        out[variant] = run_trials(cfg)
    return out
