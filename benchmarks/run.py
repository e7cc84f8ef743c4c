"""Monte Carlo decode benchmark for gpcdec.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout, importing gpcdec
from ``src/``.  The load is a closed loop: one frame after another in this
process, except ``sc721-sweep``, which drives ``gpcdec simulate`` in
process with a two-worker pool.  Prints a report, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``).  See ``benchmarks/README.md``.

Product-code workloads run in rounds until ``--seconds`` have passed.
Round r of a run with ``--seed s`` simulates ``frames`` frames under the
harness master seed ``s * ROUND_STRIDE + r`` for every run label, each on
a freshly built code and layout, so no run inherits another's BDD cache.
The sweep repeats one ``gpcdec simulate`` call with ``--seed s``.
"""

import argparse
import hashlib
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "gpcdec" / "__init__.py").is_file():
    sys.exit(f"benchmark: gpcdec sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gpcdec.cli  # noqa: E402
import gpcdec.sim  # noqa: E402
from gpcdec.bch import build_component_code  # noqa: E402
from gpcdec.layout import build_product_layout, build_staircase_layout  # noqa: E402

from hooks import Checker, Patches, SyndromeCheck, Tracer  # noqa: E402

ELL, DELTA = 10, 1
ROUND_STRIDE = 10**6
DEFAULT_SEED = 0  # the seed reference.json holds outcome digests for
SETUP_PROBES = 7
CAL_REF_S = 0.005  # calibration-loop time that defines the reference speed

_DECODERS = (
    ("iterative", "iterative", "none"),
    ("anchor", "anchor", "none"),
    ("genie", "genie", "none"),
)

# Why each workload exists, which layer it loads and which workload is
# its control are in README.md.  Run labels are (label, decoder, pp).
WORKLOADS = {
    "pc721-t2": {"code": (7, 2, 1, 0), "p": 0.017, "frames": 200, "runs": _DECODERS},
    "pc830-t3": {"code": (8, 3, 0, 0), "p": 0.017, "frames": 20, "runs": _DECODERS},
    "pc8261-pp": {
        "code": (8, 2, 1, 61),
        "p": 0.016,
        "frames": 50,
        "runs": (
            ("erasure_pp", "anchor", "erasure"),
            ("bitflip_pp", "anchor", "bitflip"),
        ),
    },
    "sc721-sweep": {
        "code": (7, 2, 1, 0),
        "staircase": (12, 6),
        "p_sweep": "0.021:0.024:4",
        "min_frame_errors": 20,
        "max_frames": 256,
        "batch_frames": 16,
        "workers": 2,
        "runs": (("anchor", "anchor", "none"),),
    },
}

_SUFFIX_UNITS = (
    ("frames_per_s", "frames/s"),
    ("_mb", "MiB"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_frac", "ratio"),
    ("_ratio", "ratio"),
    ("_efficiency", "ratio"),
    ("_speed", "ratio"),
)


def unit_of(name: str) -> str:
    """Unit of a report line, read off the metric name's suffix; a run
    label may follow it, as in ``engine.stall_frac.anchor``."""
    if name.startswith("digest"):
        return "sha256"
    if name.startswith("frame_ms"):
        return "ms"
    for part in reversed(name.split(".")):
        for suffix, unit in _SUFFIX_UNITS:
            if part.endswith(suffix):
                return unit
    return "count"


def build_layout(wl, code=None):
    if code is None:
        code = build_component_code(*wl["code"])
    if "staircase" in wl:
        return build_staircase_layout(code, *wl["staircase"])
    return build_product_layout(code)


def calibration_time(_=None) -> float:
    """Median time of five runs of the calibration loop.  The loop repeats
    what ``frame_syndromes`` does to a frame: find the set bits of a
    128x128 frame at p = 0.017, then scatter their contributions with
    ``bitwise_xor.at``."""
    rng = np.random.default_rng(1)
    frame = (rng.random(1 << 14) < 0.017).astype(np.uint8)
    contrib = rng.integers(0, 1 << 30, 128)
    owner = rng.integers(0, 256, (1 << 14, 2))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(60):
            bits = np.nonzero(frame)[0]
            syn = np.zeros(257, dtype=np.int64)
            np.bitwise_xor.at(syn, owner[bits].ravel(), np.repeat(contrib[bits % 128], 2))
            sum(syn.tolist())
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Scales wall time to a reference host speed.

    On a host whose cores are shared with other tenants, the speed of
    identical CPU-bound work can swing by 2x within minutes, more than any
    regression bound (README.md names the machine this was measured on).
    So every timed interval is bracketed by two speed samples, and its
    wall time is multiplied by their mean.  A sample is ``CAL_REF_S`` ÷
    ``calibration_time()``, run at once in ``processes`` processes when
    the timed work keeps that many cores busy, since a host slows down
    differently under load on all its cores.  Decode rates followed the
    single-process samples with an exponent close to 1, where a
    pure-interpreter loop gave 0.8.  A host that runs the loop in
    ``CAL_REF_S`` reads its plain wall time.  The loop is part of the
    benchmark, so no change to gpcdec moves it.  ``close`` stops the
    sampling processes and waits for them.  They are forked: a spawned
    pool would start multiprocessing's resource tracker, a process that
    outlives the benchmark.
    """

    def __init__(self, processes: int = 1):
        self.factors: list[float] = []
        self._processes = processes
        self._pool = None
        if processes > 1:
            self._pool = multiprocessing.get_context("fork").Pool(processes)
        self._speed = self._sample()

    def _sample(self) -> float:
        if self._pool is None:
            return CAL_REF_S / calibration_time()
        times = self._pool.map(calibration_time, range(self._processes), chunksize=1)
        return CAL_REF_S / statistics.median(times)

    def bracket(self) -> float:
        """Close the interval that began at the previous sample; returns
        the factor that scales its wall time."""
        after = self._sample()
        factor = (self._speed + after) / 2
        self._speed = after
        self.factors.append(factor)
        return factor

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


def outcome_digest(frame_stats) -> str:
    h = hashlib.sha256()
    for rec in frame_stats:
        h.update(b"%d,%d;" % (rec["bit_errors"], rec["syndromes_zero"]))
    return h.hexdigest()[:16]


class LabelRun:
    """What one run label did over a pass."""

    def __init__(self):
        self.frames = 0  # frames of runs that completed
        self.lost = 0  # frames of runs that raised
        self.walls: list[float] = []  # scaled, per completed run
        self.raw_walls: list[float] = []
        self.digests: list[str] = []  # per round
        self.frame_ms: list[float] = []

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Outcome:
    """Attempted and failed decodes, and the report lines."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float | str] = {}

    def fail(self, frames: int, why: str) -> None:
        self.failed += frames
        print(f"{self.workload}: FAILED {frames} decodes: {why}", file=sys.stderr)


def product_pass(name, seed, checker, clock, out, *, seconds=None, rounds=None, tracer=None,
                 between=None):
    """Rounds of every run label of a product-code workload; stops after
    ``rounds`` rounds, or at the first round end past ``seconds``, not
    counting the time spent in ``between()``, which runs after each round."""
    wl = WORKLOADS[name]
    n = wl["frames"]
    runs = {label: LabelRun() for label, _, _ in wl["runs"]}
    start = perf_counter()
    r = 0
    while r == 0 or (r < rounds if rounds else perf_counter() - start < seconds):
        for label, variant, pp in wl["runs"]:
            run = runs[label]
            cfg = gpcdec.sim.TrialConfig(
                layout=build_layout(wl),
                variant=variant,
                p=wl["p"],
                ell=ELL,
                delta=DELTA,
                pp=pp,
                min_frame_errors=n + 1,
                max_frames=n,
                seed=seed * ROUND_STRIDE + r,
                workers=1,
            )
            if tracer is not None:
                tracer.label = label
            check0 = checker.check_s
            t0 = perf_counter()
            try:
                rec = gpcdec.sim.run_trials(cfg, collect_frame_stats=True)
            except Exception:  # a crash fails this run's frames; the rest still run
                traceback.print_exc()
                checker.take_frame_ms()
                run.lost += n
                run.digests.append("raised")
                out.fail(n, f"{label} round {r} raised")
                continue
            wall = perf_counter() - t0 - (checker.check_s - check0)
            factor = clock.bracket()
            run.raw_walls.append(wall)
            run.walls.append(wall * factor)
            run.frames += rec.frames
            run.digests.append(outcome_digest(rec.frame_stats))
            run.frame_ms += [t * factor for t in checker.take_frame_ms()]
        r += 1
        if between is not None:
            t0 = perf_counter()
            between()
            start += perf_counter() - t0
    for run in runs.values():
        out.attempted += run.frames + run.lost
    return runs, r


def check_reference(name, seed, runs, out) -> None:
    """For the default seed, round 0 of every label must reproduce the
    digest in reference.json; otherwise every decode of the label fails."""
    if seed != DEFAULT_SEED:
        return
    ref = json.loads((BENCH / "reference.json").read_text())["digests"][name]
    for label, run in runs.items():
        if run.digests[0] != ref[label]:
            out.fail(run.frames, f"{label} digest {run.digests[0]} != reference {ref[label]}")


def percentile_metrics(frame_ms, metrics) -> None:
    """Median and the highest percentile (at most p99) that leaves at
    least ten frames beyond it."""
    n = len(frame_ms)
    metrics["frame_samples"] = n
    if n < 20:
        return
    metrics["frame_ms_p50"] = float(np.percentile(frame_ms, 50))
    q = min(99, int(100 - 1000 / n))
    if q > 50:
        metrics[f"frame_ms_p{q}"] = float(np.percentile(frame_ms, q))


def rate_metrics(runs, metrics) -> None:
    """All decodes ÷ scaled decode wall time, per label and for all labels
    together; ``raw.frames_per_s`` is the latter unscaled."""
    for label, run in runs.items():
        metrics[f"{label}.frames_per_s"] = run.frames / run.wall if run.wall else 0.0
    frames = sum(run.frames for run in runs.values())
    wall = sum(run.wall for run in runs.values())
    raw = sum(sum(run.raw_walls) for run in runs.values())
    metrics["frames_per_s"] = frames / wall if wall else 0.0
    metrics["raw.frames_per_s"] = frames / raw if raw else 0.0


def peak_rss_mb(workers_kib: int = 0) -> float:
    """Peak RSS of this process plus ``workers_kib``, the largest peak of
    its pool workers, in MiB; Linux reports ru_maxrss in KiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kib) / 1024


class SetupProbes:
    """``setup_s`` and the build times of its stages: the median over
    ``SETUP_PROBES`` runs of setup_probe.py, each in a new interpreter.
    ``step`` runs one; passes call it between rounds, so the probes are
    spread over the run and a few seconds of load from outside moves a
    few of them, not the median."""

    def __init__(self, name, clock):
        self.name = name
        self.clock = clock
        self.parts = defaultdict(list)
        self.done = 0

    def step(self) -> None:
        if self.done >= SETUP_PROBES:
            return
        probe = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), self.name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        factor = self.clock.bracket()
        for key, value in json.loads(probe.stdout.splitlines()[-1]).items():
            self.parts[key].append(value * factor)
        self.done += 1

    def finish(self, metrics) -> None:
        while self.done < SETUP_PROBES:
            self.step()
        metrics["setup_s"] = statistics.median(map(sum, zip(*self.parts.values())))
        for key in ("galois", "bch", "layout"):
            metrics[f"{key}.build_s"] = statistics.median(self.parts[key])


# --- sweep --------------------------------------------------------------------


def sweep_call(name, seed, workers, tag):
    """One ``gpcdec simulate`` sweep in process; returns (CSV digest,
    frames in the CSV, wall seconds of the cli.main call)."""
    wl = WORKLOADS[name]
    nu, t, e, s = wl["code"]
    blocks, window = wl["staircase"]
    path = OUT_DIR / f"{name}-s{seed}-{tag}.csv"
    argv = [
        "simulate", "--kind", "staircase", "--nu", str(nu), "--t", str(t),
        "--e", str(e), "--s", str(s), "--num-blocks", str(blocks),
        "--window", str(window), "--decoder", "anchor", "--ell", str(ELL),
        "--delta", str(DELTA), "--p-sweep", wl["p_sweep"],
        "--min-frame-errors", str(wl["min_frame_errors"]),
        "--max-frames", str(wl["max_frames"]),
        "--batch-frames", str(wl["batch_frames"]), "--seed", str(seed),
        "--workers", str(workers), "--output", str(path),
    ]
    before = set(multiprocessing.active_children())
    t0 = perf_counter()
    rc = gpcdec.cli.main(argv)
    wall = perf_counter() - t0
    # a stop rule shuts the pool down without waiting, so its workers may
    # still be finishing a batch; wait for them before the next call
    for proc in set(multiprocessing.active_children()) - before:
        proc.join()
    if rc != 0:
        raise RuntimeError(f"gpcdec simulate exited with {rc}")
    data = path.read_bytes()
    frames = sum(int(row.split(b",")[2]) for row in data.splitlines()[1:])
    return hashlib.sha256(data).hexdigest()[:16], frames, wall


def sweep_pass(name, seed, workers, clock, out, digests, seconds=0.0, tag="w", between=None):
    """Sweep calls until ``seconds`` have passed, at least one, not
    counting the time spent in ``between()`` after each call.  Returns
    (frames, scaled wall, raw wall) of each call that completed and appends each
    call's CSV digest to ``digests``.  A call that raises fails as many
    frames as its stop rule allows."""
    wl = WORKLOADS[name]
    cap = wl["max_frames"] * int(wl["p_sweep"].split(":")[2])
    done = []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        try:
            digest, frames, wall = sweep_call(name, seed, workers, f"{tag}{i}")
            factor = clock.bracket()
        except Exception:  # a crash fails this call's frames; the rest still run
            traceback.print_exc()
            out.attempted += cap
            out.fail(cap, f"sweep call {tag}{i} raised")
            digests.append("raised")
        else:
            out.attempted += frames
            done.append((frames, wall * factor, wall))
            digests.append(digest)
        i += 1
        if between is not None:
            t0 = perf_counter()
            between()
            start += perf_counter() - t0
    return done


def check_sweep_digests(name, seed, digests, out, frames) -> None:
    if seed == DEFAULT_SEED:
        ref = json.loads((BENCH / "reference.json").read_text())["digests"][name]["csv"]
    else:
        ref = digests[0]
    if any(d != ref for d in digests):
        out.fail(frames, f"sweep CSV digests {sorted(set(digests))} != {ref}")


# --- traced metrics ---------------------------------------------------------------


def layer_metrics(tracer, frames, check_s, factor, metrics) -> None:
    """Per-layer numbers from the spans of a traced pass.  Times and
    counts are per decoded frame of the pass (all run labels pooled), so
    the self times add up to the mean frame time; times are scaled by
    ``factor``, the pass's median HostClock factor."""
    spans = tracer.spans
    f = max(frames, 1)
    nested = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            nested[parent] += t1 - t0
    hot_top = defaultdict(float)
    calls = defaultdict(lambda: [0, 0.0, 0])
    for (idx, key), (n, secs, hits) in tracer.hot.items():
        if key != "decode_packed@decode_cw":  # inside decode_cw's time already
            hot_top[idx] += secs
        acc = calls[key]
        acc[0] += n
        acc[1] += secs
        acc[2] += hits
    by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
    per_label = defaultdict(lambda: defaultdict(int))
    pp = defaultdict(int)
    for idx, (name, _, t0, t1, label, info) in enumerate(spans):
        acc = by_name[name]
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += t1 - t0 - nested[idx] - hot_top[idx]
        if info is None:
            continue
        if name in ("sim.iterative_bdd", "sim.anchor_decode_state", "sim.genie_decode"):
            tally = per_label[label]
            tally["frames"] += 1
            tally["stall_frac"] += not info["syndromes_zero"]
            tally["undetected_frac"] += info["syndromes_zero"] and info["bit_errors"] > 0
            for key in ("half_iterations", "corrections", "frozen_events", "backtracks"):
                tally[key] += info[key]
        elif "augmented" in info:
            pp["runs"] += 1
            pp["rescued"] += info["success"]
            pp["augmented"] += info["augmented"]

    def total(*names):
        return sum(by_name[n][1] for n in names)

    def own(*names):
        return sum(by_name[n][2] for n in names)

    ms = 1e3 * factor / f
    m = metrics
    m["sim.sample_ms"] = total("sim.frame_rng", "sim.sample_bsc") * ms
    m["sim.harness_ms"] = (own("sim.run_trials") - check_s - tracer.info_s) * ms
    m["engine.syndrome_ms"] = total("engine.frame_syndromes") * ms
    m["engine.syndrome_calls"] = by_name["engine.frame_syndromes"][0] / f
    m["engine.anchor_self_ms"] = own("sim.anchor_decode_state", "postprocess.anchor_decode") * ms
    if by_name["sim.iterative_bdd"][0] or by_name["postprocess.iterative_bdd"][0]:
        m["engine.iterative_self_ms"] = own("sim.iterative_bdd", "postprocess.iterative_bdd") * ms
    if by_name["sim.genie_decode"][0]:
        m["engine.genie_ms"] = total("sim.genie_decode") * ms
    pooled = defaultdict(int)
    for label, tally in sorted(per_label.items()):
        for key, value in tally.items():
            pooled[key] += value
            if key != "frames":
                m[f"engine.{key}.{label}"] = value / tally["frames"]
    for key in ("half_iterations", "corrections", "frozen_events", "backtracks",
                "stall_frac", "undetected_frac"):
        m[f"engine.{key}"] = pooled[key] / f
    misses = calls["decode_packed"][0] + calls["decode_packed@decode_cw"][0]
    m["bch.bdd_solves"] = misses / f
    m["bch.bdd_ms"] = (calls["decode_packed"][1] + calls["decode_packed@decode_cw"][1]) * ms
    if calls["decode_cw"][0]:
        m["bch.bdd_hit_ratio"] = 1 - calls["decode_packed@decode_cw"][0] / calls["decode_cw"][0]
    erasure = calls["erasure_decode"]
    m["bch.erasure_solves"] = erasure[0] / f
    m["postprocess.runs"] = pp["runs"] / f
    if erasure[0]:
        m["bch.erasure_ms"] = erasure[1] * ms
        m["bch.erasure_solved_ratio"] = erasure[2] / erasure[0]
    if pp["runs"]:
        m["postprocess.rescue_ratio"] = pp["rescued"] / pp["runs"]
        m["postprocess.augmented"] = pp["augmented"] / pp["runs"]
        m["postprocess.erasure_self_ms"] = own("sim.erasure_pp") * ms
        m["postprocess.bitflip_self_ms"] = own("sim.bitflip_iterate_pp") * ms
        m["postprocess.report_ms"] = total("postprocess.build_failure_report") * ms


# --- workloads ------------------------------------------------------------------------


def run_product(name, seed, seconds, trace, check, clock, probes, out) -> None:
    m = out.metrics
    patches = Patches()
    checker = Checker(check)
    checker.install(patches)
    try:
        runs, rounds = product_pass(
            name, seed, checker, clock, out, seconds=seconds / 2 if trace else seconds,
            between=probes.step,
        )
        check_reference(name, seed, runs, out)
        rate_metrics(runs, m)
        percentile_metrics([t for run in runs.values() for t in run.frame_ms], m)
        m["peak_rss_mb"] = peak_rss_mb()
        for label, run in runs.items():
            m[f"digest.{label}"] = run.digests[0]
        if not trace:
            return
        patches.restore()
        tracer = Tracer()
        tracer.install(patches)
        checker = Checker(check)
        checker.install(patches)
        first = len(clock.factors)
        traced, _ = product_pass(name, seed, checker, clock, out, rounds=rounds, tracer=tracer)
    finally:
        patches.restore()
    for label, run in traced.items():
        if run.digests != runs[label].digests:
            out.fail(run.frames, f"{label}: traced and untraced digests differ")
    wall_u = sum(run.wall for run in runs.values())
    wall_t = sum(run.wall for run in traced.values())
    m["trace.overhead_frac"] = wall_t / wall_u - 1
    factor = statistics.median(clock.factors[first:])
    frames = sum(run.frames for run in traced.values())
    layer_metrics(tracer, frames, checker.check_s, factor, m)
    tracer.write(OUT_DIR / f"trace-{name}-s{seed}.jsonl")


def run_sweep(name, seed, seconds, trace, check, clock, probes, out) -> None:
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("the per-frame check reaches pool workers only under fork")
    m = out.metrics
    workers = WORKLOADS[name]["workers"]
    patches = Patches()
    checker = Checker(check)
    checker.install(patches)  # forked pool workers inherit the wrappers
    digests: list[str] = []
    workers_kib = []  # read before the first probe, the only other child

    def between():
        if not workers_kib:
            workers_kib.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        probes.step()

    pool_clock = HostClock(workers)  # the pool keeps every worker's core busy
    try:
        calls = sweep_pass(
            name, seed, workers, pool_clock, out, digests, seconds / 3 if trace else seconds,
            between=between,
        )
        m["peak_rss_mb"] = peak_rss_mb(workers_kib[0])
        pool_clock.close()
        m["host_speed.pool"] = statistics.median(pool_clock.factors)
        frames = sum(f for f, _, _ in calls)
        m["frames_per_s"] = frames / sum(w for _, w, _ in calls) if calls else 0.0
        m["anchor.frames_per_s"] = m["frames_per_s"]
        m["raw.frames_per_s"] = frames / sum(w for _, _, w in calls) if calls else 0.0
        m["digest.csv"] = digests[0]
        if trace:
            single = sweep_pass(name, seed, 1, clock, out, digests, tag="one")
            patches.restore()
            tracer = Tracer()
            tracer.label = "anchor"
            tracer.install(patches)
            checker = Checker(check)
            checker.install(patches)
            traced = sweep_pass(name, seed, 1, clock, out, digests, tag="traced")
    finally:
        patches.restore()
        pool_clock.close()
    check_sweep_digests(name, seed, digests, out, out.attempted)
    if not trace or not (calls and single and traced):
        return
    (frames1, wall1, raw1), (frames_t, wall_t, raw_t) = single[0], traced[0]
    factor = wall_t / raw_t
    # unscaled: the slowdown of a host with all its cores busy is part of it
    m["sim.parallel_efficiency"] = m["raw.frames_per_s"] / (workers * frames1 / raw1)
    m["trace.overhead_frac"] = wall_t / wall1 - 1
    m["cli.overhead_s"] = wall_t - factor * sum(
        t1 - t0 for span, _, t0, t1, _, _ in tracer.spans if span == "sim.run_trials"
    )
    layer_metrics(tracer, frames_t, checker.check_s, factor, m)
    tracer.write(OUT_DIR / f"trace-{name}-s{seed}.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    name = args.workload
    wl = WORKLOADS[name]
    check = SyndromeCheck(build_layout(wl))
    out = Outcome(name)
    runner = run_sweep if "staircase" in wl else run_product
    clock = HostClock()
    probes = SetupProbes(name, clock)
    runner(name, args.seed, args.seconds, bool(args.trace), check, clock, probes, out)
    probes.finish(out.metrics)
    out.metrics["host_speed"] = statistics.median(clock.factors)
    out.metrics["failed_frac"] = out.failed / max(out.attempted, 1)

    for key, value in out.metrics.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name}  {key:<34} {shown:>18} {unit_of(key)}")
    missing = [d["name"] for d in declared if d["name"] not in out.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    wrong = [d["name"] for d in declared if unit_of(d["name"]) != d["unit"]]
    if wrong:
        raise RuntimeError(f"BENCHMARK.json units differ from the report's: {wrong}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            d["name"]: {"value": out.metrics[d["name"]], "unit": d["unit"]} for d in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
