"""Every public entry refuses what it cannot run.

One table drives the library entries and one the CLI subcommands.  Each
integer or float argument takes, in turn, each of the hard values below,
with every other argument at a small valid value (a (4,2) code, at most
four frames, outputs under ``tmp_path``).  A case passes when it raises
ValueError or TypeError (on the CLI: exits 2 with one error line), or
when it finishes a minimal run within ``BUDGET_S``.  Anything else -- an
OverflowError, a traceback on the CLI, exit 3, a run past its budget --
fails the case.
"""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

import gpcdec.cli
from gpcdec.analysis import (
    DeModel,
    FloorModel,
    density_evolution,
    error_floor,
    ncg,
    poisson_tail,
    pp_floor_model,
    stall_floor_model,
)
from gpcdec.bch import build_component_code
from gpcdec.galois import build_field
from gpcdec.layout import build_product_layout, build_staircase_layout
from gpcdec.sim import TrialConfig, frame_rng, run_trials, sample_bsc

BUDGET_S = 10


class Overrun(Exception):
    pass


@contextmanager
def time_budget(seconds):
    """Raise Overrun in the main thread once ``seconds`` have passed."""

    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hard_values(base):
    """The hard cases of a numeric argument whose small valid value is
    ``base``: zero, a negative, a huge int, NaN, both infinities, a bool
    and ``base`` as numpy scalars."""
    return [0, -1, 10**30, math.nan, math.inf, -math.inf, True,
            np.int64(int(base)), np.float64(base)]


CODE = build_component_code(4, 2)  # n = 15
EVEN_CODE = build_component_code(4, 2, 1)  # n = 16, for a staircase
PRODUCT = build_product_layout(CODE)
ETA = np.array([[0.0, 1.0], [1.0, 0.0]])


def run_config(**kw):
    # p = 0.14 fails about one frame in six, so min_frame_errors = 1
    # stops a run with a huge max_frames after a few batches
    args = dict(layout=PRODUCT, variant="anchor", p=0.14, ell=6, delta=1,
                reduced_t_iters=0, pp="bitflip", pp_extra_iters=2,
                min_frame_errors=1, max_frames=4, seed=0, batch_frames=2,
                workers=1)
    return run_trials(TrialConfig(**{**args, **kw}))


def de_model(**kw):
    args = dict(num_types=2, eta=ETA, coupling=ETA, schedule=((1,), (2,)),
                n=15, t=2)
    return density_evolution(DeModel(**{**args, **kw}), 0.05, 10)


def floor_model(**kw):
    args = dict(n=15, t=2, s_min=9, multiplicity=11025)
    return error_floor(FloorModel(**{**args, **kw}), 0.01)


# entry: (call taking keyword arguments, the small valid value of each
# numeric argument)
LIBRARY = {
    "build_field": (build_field, {"nu": 4}),
    "build_component_code": (build_component_code, {"nu": 4, "t": 2, "e": 0, "s": 0}),
    "build_product_layout": (
        lambda **kw: build_product_layout(build_component_code(**kw)),
        {"nu": 4, "t": 2, "e": 0, "s": 0},
    ),
    "build_staircase_layout": (
        lambda **kw: build_staircase_layout(EVEN_CODE, **kw),
        {"num_blocks": 4, "window": 4},
    ),
    # workers: 10**30 is above MAX_WORKERS and refused, so no case starts
    # a pool
    "TrialConfig": (run_config, {
        "p": 0.14, "ell": 6, "delta": 1, "reduced_t_iters": 0,
        "pp_extra_iters": 2, "min_frame_errors": 1, "max_frames": 4,
        "seed": 0, "batch_frames": 2, "workers": 1,
    }),
    "DeModel": (de_model, {"num_types": 2, "n": 15, "t": 2}),
    "FloorModel": (floor_model, {"n": 15, "t": 2, "s_min": 9, "multiplicity": 11025}),
    "stall_floor_model": (
        lambda **kw: error_floor(stall_floor_model(**kw), 0.01), {"n": 15, "t": 2}),
    "pp_floor_model": (lambda **kw: error_floor(pp_floor_model(**kw), 0.01), {"n": 16}),
    "frame_rng": (lambda **kw: frame_rng(**kw).random(4), {"seed": 0, "frame_index": 0}),
    "sample_bsc": (
        lambda **kw: sample_bsc(frame_rng(0, 0), **kw), {"num_bits": 8, "p": 0.1}),
    "density_evolution": (
        lambda **kw: density_evolution(
            DeModel(2, ETA, ETA, ((1,), (2,)), 15, 2), **kw),
        {"p": 0.05, "ell": 10},
    ),
    "error_floor": (
        lambda **kw: error_floor(stall_floor_model(15, 2), **kw), {"p": 0.01}),
    "ncg": (ncg, {"rate": 0.8, "p": 0.01, "p_out": 1e-8}),
    "poisson_tail": (poisson_tail, {"t": 2, "lam": 0.5}),
}

LIBRARY_CASES = [
    pytest.param(entry, arg, id=f"{entry}-{arg}")
    for entry, (_, args) in LIBRARY.items()
    for arg in args
]


@pytest.mark.parametrize("entry, arg", LIBRARY_CASES)
def test_library_entry_refuses_or_runs(entry, arg):
    call, args = LIBRARY[entry]
    wrong = []
    for value in hard_values(args[arg]):
        try:
            with time_budget(BUDGET_S):
                call(**{**args, arg: value})
        except (ValueError, TypeError):
            pass
        except Exception as exc:  # noqa: BLE001 -- any other outcome is the fault
            wrong.append(f"{arg}={value!r}: {type(exc).__name__}: {exc}")
    assert not wrong, "\n".join(wrong)


# Hard values of a command-line flag: bools and numpy scalars do not
# exist on a command line.
CLI_VALUES = ["0", "-1", str(10**30), "nan", "inf", "-inf"]

SIMULATE = ["simulate", "--nu", "4", "--t", "2", "--p", "0.14", "--ell", "6",
            "--decoder", "anchor", "--pp", "bitflip", "--pp-extra-iters", "2",
            "--min-frame-errors", "1", "--max-frames", "4", "--batch-frames", "2",
            "--seed", "0", "--workers", "1"]
STAIRCASE = ["--kind", "staircase", "--e", "1", "--num-blocks", "4", "--window", "4"]
CODE_FLAGS = ["nu", "t", "e", "s"]
TRIAL_FLAGS = ["pp_extra_iters", "ell", "delta", "reduced_t_iters", "p",
               "min_frame_errors", "max_frames", "seed", "batch_frames", "workers"]

# (name, argv with every option at a small valid value, the flags it varies);
# "OUT" becomes a path under tmp_path
CLI = [
    ("simulate", SIMULATE + ["--output", "OUT"], CODE_FLAGS + TRIAL_FLAGS),
    ("simulate-staircase", SIMULATE + STAIRCASE + ["--output", "OUT"],
     ["num_blocks", "window"]),
    ("de", ["de", "--nu", "4", "--t", "2", "--p", "0.05", "--ell", "10",
            "--output", "OUT"], CODE_FLAGS + ["ell", "p"]),
    ("de-staircase", ["de", "--nu", "4", "--t", "2", "--p", "0.05", "--kind",
                      "staircase", "--num-blocks", "4", "--output", "OUT"],
     ["num_blocks"]),
    ("floor", ["floor", "--nu", "4", "--t", "2", "--p", "0.01", "--output", "OUT"],
     CODE_FLAGS + ["p"]),
    ("ncg-rate", ["ncg", "--rate", "0.8", "--p", "0.01", "--p-out", "1e-8"],
     ["rate", "p", "p_out"]),
    ("ncg-code", ["ncg", "--nu", "4", "--t", "2", "--p", "0.01", "--p-out", "1e-8"],
     CODE_FLAGS),
    ("mcprob", ["mcprob", "--nu", "4", "--t", "2"], CODE_FLAGS),
    # max_frames is not varied: a huge count stops only at its frame-error
    # count, and pc721's lowest p meets none in any time a test can wait
    ("repro", ["repro", "--figures", "pc721", "--max-frames", "2",
               "--min-frame-errors", "1", "--seed", "0", "--workers", "1",
               "--outdir", "OUT"], ["min_frame_errors", "seed", "workers"]),
]

CLI_CASES = [
    pytest.param(argv, flag, id=f"{name}-{flag}")
    for name, argv, flags in CLI
    for flag in flags
]


def test_cli_table_covers_every_numeric_option():
    numeric = {
        command: {key for key in keys if gpcdec.cli._OPTIONS[key][0] in (int, float)}
        for command, (_, keys, *_) in gpcdec.cli._COMMANDS.items()
    }
    covered = {command: set() for command in numeric}
    for _, argv, flags in CLI:
        covered[argv[0]].update(flags)
    covered["repro"].add("max_frames")  # left out above, with its reason
    assert covered == numeric


@pytest.mark.parametrize("argv, flag", CLI_CASES)
def test_cli_refuses_or_runs(argv, flag, tmp_path, capsys):
    wrong = []
    for i, value in enumerate(CLI_VALUES):
        out = str(tmp_path / f"out{i}")
        args = [out if a == "OUT" else a for a in argv]
        args += ["--" + flag.replace("_", "-"), value]
        try:
            with time_budget(BUDGET_S):
                code = gpcdec.cli.main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 -- any other outcome is the fault
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if ": error: " in line]
        if code == 0 or (code == 2 and len(errors) == 1 and "Traceback" not in err):
            continue
        wrong.append(f"--{flag} {value}: exit {code}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)
