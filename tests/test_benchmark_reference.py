"""The benchmark's seed-0 outcome digests, checked in the test suite.

``benchmarks/run.py`` fails every decode of a run label whose round 0 at
``--seed 0`` does not reproduce its digest in ``benchmarks/reference.json``,
and so does the sweep workload for its CSV.  These tests run the same
decodes, through the benchmark's own workload table and digest, so a
change that moves a decoder's output for a fixed seed fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gpcdec.sim import TrialConfig, run_trials

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_run():
    """benchmarks/run.py as a module; it imports ``hooks`` from its own
    directory and puts ``src`` on the path, which is restored after."""
    path = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


run = _load_run()
REFERENCE = json.loads((BENCH / "reference.json").read_text())["digests"]


@pytest.mark.parametrize(
    "name", [name for name, wl in run.WORKLOADS.items() if "staircase" not in wl]
)
def test_product_round_zero_digests(name):
    """Round 0 of every run label, configured as ``product_pass`` does."""
    wl = run.WORKLOADS[name]
    n = wl["frames"]
    got = {}
    for label, variant, pp in wl["runs"]:
        cfg = TrialConfig(
            layout=run.build_layout(wl), variant=variant, p=wl["p"], ell=run.ELL,
            delta=run.DELTA, pp=pp, min_frame_errors=n + 1, max_frames=n,
            seed=run.DEFAULT_SEED * run.ROUND_STRIDE, workers=1,
        )
        got[label] = run.outcome_digest(run_trials(cfg, collect_frame_stats=True).frame_stats)
    assert got == REFERENCE[name]


def test_sweep_csv_digest(tmp_path, monkeypatch):
    """One ``gpcdec simulate`` call of the sweep workload, with one worker
    (a CSV does not depend on the worker count), written under tmp_path."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    digest, frames, _ = run.sweep_call("sc721-sweep", run.DEFAULT_SEED, 1, "tier1")
    assert digest == REFERENCE["sc721-sweep"]["csv"]
    assert frames > 0 and list(tmp_path.iterdir())
