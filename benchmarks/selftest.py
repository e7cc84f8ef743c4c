"""Self-test of the benchmark: a short run of every workload.

    python3 benchmarks/selftest.py

Runs each workload for one second (at least one round or sweep call) as
``--seed 0 --trace 0``, ``--seed 0 --trace 1`` and ``--seed 7 --trace 0``.
Seed 0 is the one ``reference.json`` holds digests for; seed 7 has none,
so only the per-frame check applies to it, which keeps that seed held out.
Every run must print each metric below with its unit, report
``failed_frac`` 0, and end with a JSON line carrying exactly the metrics
``BENCHMARK.json`` declares for its mode.  Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DECODE_E2E = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
    "raw.frames_per_s": "frames/s",
    "host_speed": "ratio",
}
_FRAME_TIMES = {"frame_ms_p50": "ms"}
_LAYERS = {
    "sim.sample_ms": "ms",
    "sim.harness_ms": "ms",
    "engine.syndrome_ms": "ms",
    "engine.syndrome_calls": "count",
    "engine.anchor_self_ms": "ms",
    "engine.half_iterations": "count",
    "engine.corrections": "count",
    "engine.frozen_events": "count",
    "engine.backtracks": "count",
    "engine.stall_frac": "ratio",
    "engine.undetected_frac": "ratio",
    "bch.bdd_solves": "count",
    "bch.bdd_ms": "ms",
    "bch.bdd_hit_ratio": "ratio",
    "bch.erasure_solves": "count",
    "postprocess.runs": "count",
    "galois.build_s": "s",
    "bch.build_s": "s",
    "layout.build_s": "s",
    "trace.overhead_frac": "ratio",
}
_DECODERS = {"engine.iterative_self_ms": "ms", "engine.genie_ms": "ms"}
_PP = {
    "bch.erasure_ms": "ms",
    "bch.erasure_solved_ratio": "ratio",
    "postprocess.rescue_ratio": "ratio",
    "postprocess.augmented": "count",
    "postprocess.erasure_self_ms": "ms",
    "postprocess.bitflip_self_ms": "ms",
    "postprocess.report_ms": "ms",
}
_POOL = {"sim.parallel_efficiency": "ratio", "cli.overhead_s": "s"}
_COUNTERS = ("half_iterations", "corrections", "frozen_events", "backtracks")


def _per_label(labels):
    e2e = {f"{label}.frames_per_s": "frames/s" for label in labels}
    layers = {f"engine.{c}.{label}": "count" for c in _COUNTERS for label in labels}
    layers.update({f"engine.{c}.{label}": "ratio" for c in ("stall_frac", "undetected_frac")
                   for label in labels})
    return e2e, layers


def expected(workload: str, trace: bool) -> dict[str, str]:
    labels = {
        "pc721-t2": ("iterative", "anchor", "genie"),
        "pc830-t3": ("iterative", "anchor", "genie"),
        "pc8261-pp": ("erasure_pp", "bitflip_pp"),
        "sc721-sweep": ("anchor",),
    }[workload]
    e2e, layers = _per_label(labels)
    want = {**_DECODE_E2E, **e2e}
    if workload != "sc721-sweep":
        want.update(_FRAME_TIMES)
    if trace:
        want.update(_LAYERS)
        want.update(layers)
        want.update({
            "pc721-t2": _DECODERS,
            "pc830-t3": _DECODERS,
            "pc8261-pp": _PP,
            "sc721-sweep": _POOL,
        }[workload])
    return want


def run(workload: str, seed: int, trace: bool) -> None:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(int(trace))]
    what = f"{workload} seed {seed} trace {int(trace)}"
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{what}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            report[fields[1]] = (float(fields[2]) if fields[3] != "sha256" else fields[2], fields[3])
    problems = []
    for name, unit in expected(workload, trace).items():
        if name not in report:
            problems.append(f"{name} not printed")
        elif report[name][1] != unit:
            problems.append(f"{name} printed in {report[name][1]}, expected {unit}")
    tails = [k for k in report if k.startswith("frame_ms_p") and k != "frame_ms_p50"]
    if not trace and workload != "sc721-sweep" and not tails:
        problems.append("no tail percentile of frame_ms printed")
    if report.get("failed_frac", (None,))[0] != 0:
        problems.append(f"failed_frac is {report.get('failed_frac')}")
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {d["name"]: d["unit"] for d in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"result {result['correct']} {result['attempted']} {result['failed']}")
    elif {k: v["unit"] for k, v in result["metrics"].items()} != declared:
        problems.append("result metrics differ from BENCHMARK.json")
    if problems:
        raise SystemExit(f"{what}: " + "; ".join(problems))
    print(f"ok  {what}: {len(report)} report lines, {result['attempted']} decodes")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        run(workload, 0, False)
        run(workload, 0, True)
        run(workload, 7, False)


if __name__ == "__main__":
    main()
