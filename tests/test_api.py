"""The package surface: the README example runs as written, ``gpcdec``
exports exactly the names in its ``__all__``, every name a submodule
lists in its ``__all__`` exists, the benchmark's check and trace
wrappers still reach the calls they wrap, and a decoding process never
loads scipy, nor does repro before its last sweep."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import gpcdec
import gpcdec.sim
from gpcdec.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_commands_parse():
    """Every ``gpcdec`` command of the README's CLI block parses against
    the CLI's parser; nothing is run."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gpcdec ")]
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_all_names_resolve():
    for name in gpcdec.__all__:
        assert getattr(gpcdec, name) is not None, name
    public = {
        name for name, value in vars(gpcdec).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(gpcdec.__all__)


def test_submodule_all_names_resolve():
    listed = []
    for info in pkgutil.iter_modules(gpcdec.__path__):
        module = importlib.import_module(f"gpcdec.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        listed.append(info.name)
        for name in names:
            assert hasattr(module, name), f"gpcdec.{info.name}.{name}"
    assert {"analysis", "engine", "layout", "postprocess", "sim"} <= set(listed)


def test_benchmark_hooks_reach_the_code():
    """The benchmark's wrappers replace module and class attributes, so a
    rename, or a name no longer looked up at call time, would leave them
    wrapping nothing.  Install them as ``benchmarks/run.py`` does (Tracer,
    then Checker) and run every decoder and post-processor once."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import hooks
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))

    def build():
        return gpcdec.build_product_layout(gpcdec.build_component_code(4, 2, 1, 0))

    layout = build()
    check = hooks.SyndromeCheck(build())  # never from the layout decoded
    patches = hooks.Patches()
    tracer = hooks.Tracer()
    checker = hooks.Checker(check)
    tracer.install(patches)
    checker.install(patches)
    frames = pp_runs = 0
    try:
        runs = (
            ("iterative", "none"), ("anchor", "none"), ("genie", "none"),
            ("anchor", "erasure"), ("anchor", "bitflip"),
        )
        for variant, pp in runs:
            # at p = 0.18 some frames stall, so post-processing runs
            cfg = gpcdec.TrialConfig(
                layout=layout, variant=variant, pp=pp, p=0.18, ell=4,
                min_frame_errors=10**6, max_frames=40, seed=1, batch_frames=8,
            )
            rec = gpcdec.sim.run_trials(cfg, collect_frame_stats=True)
            frames += rec.frames
            pp_runs += sum("pp_success" in r for r in rec.frame_stats)
    finally:
        patches.restore()
    assert frames == 200 and pp_runs > 0
    assert len(checker.take_frame_ms()) == frames
    names = {span[0] for span in tracer.spans}
    assert {"sim." + name for name in tracer.SIM_DECODES} <= names
    calls = {}
    for (_, key), (count, _, _) in tracer.hot.items():
        calls[key] = calls.get(key, 0) + count
    assert calls.get("decode_cw", 0) > 0
    assert calls.get("erasure_decode", 0) > 0


# Runs in a fresh interpreter: every decoder and post-processor, and one
# staircase simulate through the CLI, must leave scipy unloaded; the two
# analysis functions that use it load it on their first call.
_LEAN_PROCESS = """
import sys
import gpcdec, gpcdec.cli
from gpcdec.analysis import poisson_tail, qfunc_inv

layout = gpcdec.build_product_layout(gpcdec.build_component_code(4, 2, 1, 0))
runs = (("iterative", "none"), ("anchor", "none"), ("genie", "none"),
        ("anchor", "erasure"), ("anchor", "bitflip"))
pp_runs = 0
for variant, pp in runs:
    cfg = gpcdec.TrialConfig(layout=layout, variant=variant, pp=pp, p=0.18, ell=4,
                             min_frame_errors=10**6, max_frames=24, seed=1)
    rec = gpcdec.run_trials(cfg, collect_frame_stats=True)
    pp_runs += sum("pp_success" in r for r in rec.frame_stats)
assert pp_runs > 0
assert gpcdec.cli.main([
    "simulate", "--kind", "staircase", "--nu", "4", "--t", "2", "--e", "1",
    "--num-blocks", "5", "--decoder", "anchor", "--p", "0.05", "--ell", "4",
    "--max-frames", "16", "--workers", "1", "--output", sys.argv[1],
]) == 0
assert "scipy" not in sys.modules
assert abs(poisson_tail(3, 1.0) - 0.0803013970713942) < 1e-15
assert abs(qfunc_inv(1e-3) - 3.090232306167813) < 1e-14
assert "scipy.special" in sys.modules
"""


# Runs in a fresh interpreter: repro runs every dataset's sweep before any
# analytic curve loads scipy, so no sweep's pool forks a process holding it.
_REPRO_SWEEPS_FIRST = """
import sys
import gpcdec.cli

loaded = []
sweep = gpcdec.cli.run_sweep

def run_sweep(cfgs):
    loaded.append("scipy" in sys.modules)
    return sweep(cfgs)

gpcdec.cli.run_sweep = run_sweep
assert gpcdec.cli.main([
    "repro", "--figures", "pc721", "pc8261", "--max-frames", "2",
    "--min-frame-errors", "1", "--workers", "1", "--outdir", sys.argv[1],
]) == 0
assert loaded == [False, False], loaded
assert "scipy" in sys.modules
"""


def test_repro_sweeps_before_scipy_loads(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _REPRO_SWEEPS_FIRST, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "pc721.csv", "pc8261.csv"
    ]


def test_decoding_never_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "sc.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN_PROCESS, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().count("\n") == 2
