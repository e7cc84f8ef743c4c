"""Command-line front end.

Subcommands map one-to-one onto the library surfaces:

* ``simulate``: Monte Carlo at one or more crossover probabilities,
  CSV out.  Options can also come from a flat ``key = value`` or JSON
  config file: a config value goes through its flag's type and choices,
  unknown keys and keys given twice are rejected, and explicit flags
  override config keys.  Both outputs are opened before the first frame
  is decoded.
* ``de``: density-evolution BER predictions over a p grid.
* ``floor``: closed-form error-floor estimates over a p grid; the
  post-processed (``pp``) model covers t = 2 codes with extension bits.
* ``ncg``: net-coding-gain calculator; the rate comes from the code
  parameters and the layout kind, and no layout is built.
* ``mcprob``: component-code miscorrection probability.
* ``repro``: regenerates the bundled decoder-comparison datasets at
  reduced depth, one CSV per figure plus a JSON manifest.  A dataset is a
  set of ``simulate`` options plus the (decoder, pp) runs and analytic
  curves it compares, built through the same helpers as ``simulate``.

Every option of every subcommand is declared once, in ``_OPTIONS``, and a
subcommand is the list of its keys (``_COMMANDS``).  The table builds the
flags and gives the defaults of the merge defaults < config file
(``simulate`` only) < explicit flags; required options are checked once,
after the merge.

Exit codes: 0 success, 2 usage error, 3 runtime failure (an unwritable
output, or more memory than the host has).
"""

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    de_product_model,
    de_staircase_model,
    density_evolution,
    error_floor,
    miscorrection_probability,
    ncg,
    pp_floor_model,
    stall_floor_model,
)
from .bch import build_component_code
from .layout import build_product_layout, build_staircase_layout, code_rate
from .sim import (
    CSV_HEADER,
    MAX_WORKERS,
    PP_MODES,
    VARIANTS,
    TrialConfig,
    format_csv_row,
    run_sweep,
    run_trials,  # noqa: F401  (kept as gpcdec.cli.run_trials)
)

# The datasets of ``repro``: simulate options (the rest take the option
# table's defaults), the (decoder, pp) runs over the p grid, and the
# analytic curves ("de", "stall-floor", "pp-floor") on the same grid.
_FIGURES = {
    "pc721": {
        "description": "decoder comparison on the (7,2,1,0) product code, "
        "with density-evolution predictions",
        "options": {"nu": 7, "t": 2, "e": 1, "p_sweep": "1.0e-2:2.2e-2:7"},
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "curves": ("de",),
    },
    "pc8261": {
        "description": "post-processing on the shortened (8,2,1,61) product "
        "code, with closed-form floor estimates",
        "options": {"nu": 8, "t": 2, "e": 1, "s": 61, "p_sweep": "9.0e-3:1.6e-2:5"},
        "runs": [
            ("iterative", "none"),
            ("anchor", "none"),
            ("anchor", "bitflip"),
            ("anchor", "erasure"),
        ],
        "curves": ("stall-floor", "pp-floor"),
    },
    "pc830": {
        "description": "decoder comparison on the (8,3,0,0) product code",
        "options": {"nu": 8, "t": 3, "p_sweep": "1.3e-2:2.1e-2:5"},
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "curves": (),
    },
    "pc842": {
        "description": "decoder comparison on the (8,4,2,0) product code",
        "options": {"nu": 8, "t": 4, "e": 2, "p_sweep": "1.7e-2:2.6e-2:5"},
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "curves": (),
    },
}

# Every option of the CLI, declared once as key: (type, choices, default,
# help).  The flag is --key with dashes, and takes one or more values where
# the default is a list.  The simulate options come first: they are also
# the config-file keys, and trial options take their defaults from
# TrialConfig.
_OPTIONS = {
    "config": (str, None, None, "flat key=value or JSON config file"),
    "nu": (int, None, None, "Galois field degree of the component code"),
    "t": (int, None, None, "error-correcting capability"),
    "e": (int, None, 0, "extension parity bits (0, 1 or 2)"),
    "s": (int, None, 0, "shortened positions"),
    "kind": (str, ("product", "staircase"), "product", "frame layout"),
    "num_blocks": (int, None, 8, "staircase chain length incl. termination blocks"),
    "window": (int, None, None,
               "staircase decoding window (blocks); num_blocks if unset"),
    "decoder": (str, VARIANTS, TrialConfig.variant, "frame decoder"),
    "pp": (str, PP_MODES, TrialConfig.pp, "post-processing on decode failure"),
    "pp_extra_iters": (int, None, TrialConfig.pp_extra_iters,
                       "bit-flip post-processing iterations; ell if unset"),
    "ell": (int, None, TrialConfig.ell, "decoding iterations"),
    "delta": (int, (0, 1, 2, 3), TrialConfig.delta, "anchor conflict threshold"),
    "reduced_t_iters": (int, None, TrialConfig.reduced_t_iters,
                        "leading iterations decoded with budget t-1"),
    "p": (float, None, None, "single crossover probability (ncg: pre-FEC)"),
    "p_sweep": (str, None, None, "log-spaced crossover grid START:STOP:NUM"),
    "min_frame_errors": (int, None, TrialConfig.min_frame_errors,
                         "stop a point after this many frame errors"),
    "max_frames": (int, None, TrialConfig.max_frames,
                   "stop a point after this many frames"),
    "seed": (int, None, TrialConfig.seed, "master seed"),
    "batch_frames": (int, None, TrialConfig.batch_frames, "frames per stop-rule check"),
    "workers": (int, None, None,
                f"worker processes, at most {MAX_WORKERS}; the CPU count if unset"),
    "output": (str, None, "-", "CSV path, '-' for stdout"),
    "verbose_frames": (str, None, None,
                       "also write per-frame stats as JSON lines to this path"),
}
_SIMULATE = tuple(_OPTIONS)
_OPTIONS.update({
    "model": (str, ("stall", "pp"), "stall",
              "plain stall floor or post-processed floor"),
    "rate": (float, None, None,
             "overall code rate; derived from the code parameters when omitted"),
    "p_out": (float, None, None, "output (post-FEC) error rate"),
    "outdir": (str, None, "repro_out", "output directory"),
    "figures": (str, (*sorted(_FIGURES), "all"), ["all"], "datasets to regenerate"),
})


def _flag(key):
    return "--" + key.replace("_", "-")


# --- shared helpers ---------------------------------------------------------


def _options(ns, parser):
    """The options of ``ns``'s subcommand, merged as table defaults <
    config file < explicit flags, with its required options present and,
    where it takes one, its p grid read as ``grid``."""
    _, keys, required, defaults, _ = _COMMANDS[ns.command]
    opts = {key: _OPTIONS[key][2] for key in keys}
    opts.update(defaults)
    explicit = {k: v for k, v in vars(ns).items() if k in keys}
    path = explicit.pop("config", None)
    config = _load_config_file(parser, path) if path else {}
    opts.update(config)
    opts.update(explicit)
    for key in required:
        if opts[key] is None:
            parser.error(f"{_flag(key)} is required")
    _refuse_ignored(parser, opts, config.keys() | explicit.keys())
    if "p_sweep" in keys:
        opts["grid"] = _p_grid(parser, opts)
    return opts


def _refuse_ignored(parser, opts, given):
    """Refuse an option, given by flag or config file, that the run would
    ignore: a product's staircase options, or the code behind a --rate."""
    rules = (
        (opts.get("kind") == "product", "--kind product", ("num_blocks", "window")),
        ("rate" in given, "--rate", _CODE + ("kind",)),
    )
    for applies, cause, keys in rules:
        for key in keys:
            if applies and key in given:
                parser.error(f"{cause} takes no {_flag(key)}")


def _build_code(parser, opts):
    try:
        return build_component_code(opts["nu"], opts["t"], opts["e"], opts["s"])
    except ValueError as exc:
        parser.error(str(exc))


def _window(opts):
    """The staircase decoding window: ``num_blocks`` when unset."""
    return opts["num_blocks"] if opts["window"] is None else opts["window"]


def _build_layout(parser, opts, code):
    try:
        if opts["kind"] == "product":
            return build_product_layout(code)
        return build_staircase_layout(code, opts["num_blocks"], _window(opts))
    except ValueError as exc:
        parser.error(str(exc))


_MAX_GRID = 10**6  # points of a --p-sweep grid


def _p_grid(parser, opts):
    p, sweep = opts["p"], opts["p_sweep"]
    if (p is None) == (sweep is None):
        parser.error("exactly one of --p / --p-sweep is required")
    if p is not None:
        return [float(p)]
    parts = str(sweep).split(":")
    if len(parts) != 3:
        parser.error("--p-sweep must look like START:STOP:NUM")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        parser.error("--p-sweep must look like START:STOP:NUM")
    if not (0 < lo <= hi and num >= 1):
        parser.error("--p-sweep needs 0 < START <= STOP and NUM >= 1")
    if num > _MAX_GRID:
        parser.error(f"--p-sweep takes at most {_MAX_GRID} points")
    return [float(x) for x in np.geomspace(lo, hi, num)]


def _trial_configs(parser, opts, runs):
    """One TrialConfig per (decoder, pp) of ``runs`` and p of the grid, in
    that order, on the code and layout of ``opts``; all are checked before
    any runs."""
    layout = _build_layout(parser, opts, _build_code(parser, opts))
    trial = {f.name: opts[f.name] for f in fields(TrialConfig) if f.name in opts}
    if trial["workers"] is None:
        trial["workers"] = min(os.cpu_count() or 1, MAX_WORKERS)
    try:
        return [
            TrialConfig(**{**trial, "layout": layout, "variant": variant,
                           "pp": pp, "p": p})
            for variant, pp in runs
            for p in opts["grid"]
        ]
    except ValueError as exc:
        parser.error(str(exc))


def _curve(parser, opts, code, curve):
    """BER over the p grid of an analytic curve: "de", density evolution
    on the layout kind's model, or the "stall" or "pp" floor."""
    grid = opts["grid"]
    try:
        if curve == "de":
            if opts["kind"] == "product":
                model = de_product_model(code)
            elif opts["num_blocks"] < 3:
                parser.error("--num-blocks must be >= 3")
            else:
                model = de_staircase_model(code, opts["num_blocks"] - 1)
            return [density_evolution(model, p, opts["ell"]) for p in grid]
        if curve == "stall":
            model = stall_floor_model(code.n, code.t)
        elif code.t == 2 and code.e >= 1:
            model = pp_floor_model(code.n)
        else:
            parser.error("--model pp covers t = 2 codes with e >= 1 only")
        return [error_floor(model, p) for p in grid]
    except ValueError as exc:
        parser.error(str(exc))


def _open_out(stack, path):
    """A text output for ``path``, '-' for stdout; a file is opened now,
    so an unwritable path fails before any work, and closed by ``stack``."""
    if path in (None, "-"):
        return sys.stdout
    return stack.enter_context(open(path, "w"))


def _write_lines(path, lines):
    with ExitStack() as stack:
        out = _open_out(stack, path)
        for line in lines:
            out.write(line + "\n")


# --- simulate ----------------------------------------------------------------


def _load_config_file(parser, path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    if text.lstrip().startswith("{"):
        try:
            pairs = json.loads(text, object_pairs_hook=lambda pairs: pairs)
        except json.JSONDecodeError as exc:
            parser.error(f"config file is not valid JSON: {exc}")
    else:
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                parser.error(f"config line {lineno} is not key = value")
            pairs.append(tuple(part.strip() for part in line.split("=", 1)))
    out, seen = {}, set()
    for key, value in pairs:
        norm = key.replace("-", "_")
        if norm not in _SIMULATE or norm == "config":
            parser.error(f"unknown config key: {key!r}")
        if norm in seen:
            parser.error(f"config key {key!r} is given twice")
        seen.add(norm)
        if value is None:  # JSON null: the default
            continue
        # a value is read as its flag's argument would be: JSON as its text
        kind, choices, _, _ = _OPTIONS[norm]
        try:
            out[norm] = kind(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            parser.error(f"config key {key!r}: invalid {kind.__name__} value {value!r}")
        if choices is not None and out[norm] not in choices:
            parser.error(f"config key {key!r}: {value!r} is not one of {choices}")
    return out


def _cmd_simulate(opts, parser):
    cfgs = _trial_configs(parser, opts, [(opts["decoder"], opts["pp"])])
    verbose = opts["verbose_frames"]
    if verbose not in (None, "-") and opts["output"] != "-" and (
        os.path.realpath(verbose) == os.path.realpath(opts["output"])
    ):
        parser.error("--output and --verbose-frames name the same file")
    with ExitStack() as stack:  # both outputs open before any point runs
        out = _open_out(stack, opts["output"])
        frames_out = _open_out(stack, verbose) if verbose else None
        records = run_sweep(cfgs, collect_frame_stats=bool(verbose))
        for row in [CSV_HEADER] + [record.csv_row() for record in records]:
            out.write(row + "\n")
        if verbose:
            for record in records:
                for rec in record.frame_stats:
                    frames_out.write(json.dumps({"p": record.p, **rec}) + "\n")
    return 0


# --- analysis subcommands -----------------------------------------------------


def _cmd_de(opts, parser):
    bers = _curve(parser, opts, _build_code(parser, opts), "de")
    ell = opts["ell"]
    _write_lines(opts["output"], ["p,ber,ell"] + [
        f"{p!r},{ber!r},{ell}" for p, ber in zip(opts["grid"], bers)])
    return 0


def _cmd_floor(opts, parser):
    model = opts["model"]
    bers = _curve(parser, opts, _build_code(parser, opts), model)
    _write_lines(opts["output"], ["p,ber,model"] + [
        f"{p!r},{ber!r},{model}" for p, ber in zip(opts["grid"], bers)])
    return 0


def _cmd_ncg(opts, parser):
    rate = opts["rate"]
    if rate is None and (opts["nu"] is None or opts["t"] is None):
        parser.error("give --rate or the component code parameters")
    try:
        if rate is None:
            rate = code_rate(_build_code(parser, opts), opts["kind"])
        value = ncg(rate, opts["p"], opts["p_out"])
    except ValueError as exc:
        parser.error(str(exc))
    print(repr(value))
    return 0


def _cmd_mcprob(opts, parser):
    frac = miscorrection_probability(_build_code(parser, opts))
    print(f"{frac} ({float(frac)!r})")
    return 0


# --- repro ---------------------------------------------------------------------


def _cmd_repro(opts, parser):
    figures = opts["figures"]
    keys = sorted(_FIGURES) if "all" in figures else list(dict.fromkeys(figures))
    for key, least in (("workers", 1), ("min_frame_errors", 1),
                       ("max_frames", 1), ("seed", 0)):
        if opts[key] is not None and opts[key] < least:
            parser.error(f"{_flag(key)} must be >= {least}")
    if opts["seed"] >= 1 << 64:
        parser.error("--seed must be < 2**64")
    if opts["workers"] is not None and opts["workers"] > MAX_WORKERS:
        parser.error(f"--workers must be <= {MAX_WORKERS}")
    outdir = Path(opts["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "package": "gpcdec",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": opts["seed"],
        "stop_rule": {
            "min_frame_errors": opts["min_frame_errors"],
            "max_frames": opts["max_frames"],
        },
        "figures": {},
    }
    defaults = {key: _OPTIONS[key][2] for key in _SIMULATE}
    for key in keys:
        fig = _FIGURES[key]
        sim = {**defaults, **opts, **fig["options"]}
        sim["grid"] = grid = _p_grid(parser, sim)
        cfgs = _trial_configs(parser, sim, fig["runs"])
        rows = [CSV_HEADER]
        for rec in run_sweep(cfgs):
            label = rec.variant if rec.pp == "none" else f"{rec.variant}+{rec.pp}"
            rows.append(rec.csv_row(label))
        for curve in fig["curves"]:
            bers = _curve(parser, sim, cfgs[0].layout.code, curve.removesuffix("-floor"))
            rows += [
                format_csv_row(curve, p, 0, 0, 0, ber, 0.0, sim["ell"], sim["delta"], 0)
                for p, ber in zip(grid, bers)
            ]
        csv_path = outdir / f"{key}.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        manifest["figures"][key] = {
            "file": csv_path.name,
            "description": fig["description"],
            "component_code": {k: sim[k] for k in ("nu", "t", "e", "s")},
            "layout": sim["kind"],
            **({"num_blocks": sim["num_blocks"], "window": _window(sim)}
               if sim["kind"] == "staircase" else {}),
            "ell": sim["ell"],
            "delta": sim["delta"],
            "p_grid": grid,
            "runs": [list(r) for r in fig["runs"]],
        }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


# --- parser --------------------------------------------------------------------

_CODE = ("nu", "t", "e", "s")
_GRID = ("p", "p_sweep")

# subcommand: (handler, option keys, required keys, default overrides, help)
_COMMANDS = {
    "simulate": (_cmd_simulate, _SIMULATE, ("nu", "t"), {},
                 "Monte Carlo over the BSC, CSV out"),
    "de": (_cmd_de, _CODE + ("kind", "num_blocks", "ell") + _GRID + ("output",),
           ("nu", "t"), {}, "density-evolution BER predictions"),
    "floor": (_cmd_floor, _CODE + ("model",) + _GRID + ("output",), ("nu", "t"),
              {}, "closed-form error-floor estimates"),
    "ncg": (_cmd_ncg, ("rate",) + _CODE + ("kind", "p", "p_out"), ("p", "p_out"),
            {}, "net coding gain in dB"),
    "mcprob": (_cmd_mcprob, _CODE, ("nu", "t"), {},
               "component miscorrection probability"),
    "repro": (_cmd_repro, ("outdir", "figures", "min_frame_errors", "max_frames",
                           "seed", "workers"),
              (), {"min_frame_errors": 40, "max_frames": 4000},
              "regenerate the bundled datasets at reduced depth"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcdec",
        description="Hard-decision iterative decoding of product and "
        "staircase codes: simulation and analysis tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, _, defaults, text) in _COMMANDS.items():
        # every option suppressed when absent: merged by _options
        sub = subs.add_parser(name, help=text, description=text,
                              argument_default=argparse.SUPPRESS)
        for key in keys:
            kind, choices, default, help_text = _OPTIONS[key]
            default = defaults.get(key, default)
            if default is not None:
                help_text += f"; default {default}"
            sub.add_argument(_flag(key), type=kind, choices=choices, help=help_text,
                             nargs="+" if isinstance(default, list) else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command][0](_options(ns, parser), parser)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"gpcdec: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
