"""Command-line front end.

Subcommands map one-to-one onto the library surfaces:

* ``simulate``: Monte Carlo at one or more crossover probabilities,
  CSV out.  Each option is declared once, in ``_SIM_OPTIONS``, which
  builds the flags and checks a flat ``key = value`` or JSON config file:
  a config value goes through its flag's type and choices, unknown keys
  and keys given twice are rejected, and explicit flags override config
  keys.  Both outputs are opened before the first frame is decoded.
* ``de``: density-evolution BER predictions over a p grid.
* ``floor``: closed-form error-floor estimates over a p grid; the
  post-processed (``pp``) model covers t = 2 codes with extension bits.
* ``ncg``: net-coding-gain calculator.
* ``mcprob``: component-code miscorrection probability.
* ``repro``: regenerates the bundled decoder-comparison datasets at
  reduced depth, one CSV per figure plus a JSON manifest.

Exit codes: 0 success, 2 usage error, 3 runtime failure.
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
from .layout import build_product_layout, build_staircase_layout
from .sim import (
    CSV_HEADER,
    PP_MODES,
    VARIANTS,
    TrialConfig,
    format_csv_row,
    run_sweep,
    run_trials,  # noqa: F401  (kept as gpcdec.cli.run_trials)
)

# Every ``simulate`` option, declared once as key: (type, choices, default,
# help).  The table builds the subparser (flag --key with dashes), checks
# config-file values and gives the defaults of the merge defaults < config
# file < flags.  Trial options take their defaults from TrialConfig.
_SIM_OPTIONS = {
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
    "p": (float, None, None, "single crossover probability"),
    "p_sweep": (str, None, None, "log-spaced crossover grid START:STOP:NUM"),
    "min_frame_errors": (int, None, TrialConfig.min_frame_errors,
                         "stop a point after this many frame errors"),
    "max_frames": (int, None, TrialConfig.max_frames,
                   "stop a point after this many frames"),
    "seed": (int, None, TrialConfig.seed, "master seed"),
    "batch_frames": (int, None, TrialConfig.batch_frames, "frames per stop-rule check"),
    "workers": (int, None, None, "worker processes; the CPU count if unset"),
    "output": (str, None, "-", "CSV path, '-' for stdout"),
    "verbose_frames": (str, None, None,
                       "also write per-frame stats as JSON lines to this path"),
}


def _add_code_args(sub, required=True):
    sub.add_argument("--nu", type=int, required=required,
                     help="Galois field degree of the component code")
    sub.add_argument("--t", type=int, required=required,
                     help="error-correcting capability")
    sub.add_argument("--e", type=int, default=0,
                     help="extension parity bits (0, 1 or 2)")
    sub.add_argument("--s", type=int, default=0, help="shortened positions")


def _add_grid_args(sub):
    grid = sub.add_mutually_exclusive_group(required=True)
    grid.add_argument("--p", type=float, help="single crossover probability")
    grid.add_argument("--p-sweep", metavar="START:STOP:NUM",
                      help="log-spaced crossover grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcdec",
        description="Hard-decision iterative decoding of product and "
        "staircase codes: simulation and analysis tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser(
        "simulate",
        help="Monte Carlo over the BSC, CSV out",
        description="Simulate one decoder at one or more crossover "
        "probabilities.",
        argument_default=argparse.SUPPRESS,
    )
    # every option suppressed when absent: merged later as
    # defaults < config file < explicit flags
    for key, (kind, choices, default, text) in _SIM_OPTIONS.items():
        if default is not None:
            text += f"; default {default}"
        sim.add_argument("--" + key.replace("_", "-"), type=kind,
                         choices=choices, help=text)
    sim.set_defaults(func=_cmd_simulate)

    de = subs.add_parser("de", help="density-evolution BER predictions")
    _add_code_args(de)
    de.add_argument("--kind", choices=("product", "staircase"),
                    default="product")
    de.add_argument("--num-blocks", type=int, default=8)
    de.add_argument("--ell", type=int, default=10)
    _add_grid_args(de)
    de.add_argument("--output", default="-")
    de.set_defaults(func=_cmd_de)

    floor = subs.add_parser("floor", help="closed-form error-floor estimates")
    _add_code_args(floor)
    floor.add_argument("--model", choices=("stall", "pp"), default="stall",
                       help="plain stall floor or post-processed floor")
    _add_grid_args(floor)
    floor.add_argument("--output", default="-")
    floor.set_defaults(func=_cmd_floor)

    ncg_sub = subs.add_parser("ncg", help="net coding gain in dB")
    ncg_sub.add_argument("--rate", type=float,
                         help="overall code rate; derived from the code "
                         "parameters when omitted")
    _add_code_args(ncg_sub, required=False)
    ncg_sub.add_argument("--kind", choices=("product", "staircase"),
                         default="product")
    ncg_sub.add_argument("--p", type=float, required=True,
                         help="input (pre-FEC) error rate")
    ncg_sub.add_argument("--p-out", type=float, required=True,
                         help="output (post-FEC) error rate")
    ncg_sub.set_defaults(func=_cmd_ncg)

    mc = subs.add_parser("mcprob", help="component miscorrection probability")
    _add_code_args(mc)
    mc.set_defaults(func=_cmd_mcprob)

    rep = subs.add_parser(
        "repro",
        help="regenerate the bundled datasets at reduced depth",
    )
    rep.add_argument("--outdir", default="repro_out")
    rep.add_argument("--figures", nargs="+", default=["all"],
                     choices=sorted(_FIGURES) + ["all"])
    rep.add_argument("--min-frame-errors", type=int, default=40)
    rep.add_argument("--max-frames", type=int, default=4000)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--workers", type=int, default=None)
    rep.set_defaults(func=_cmd_repro)

    return parser


# --- shared helpers ---------------------------------------------------------


def _build_code(parser, opts):
    try:
        return build_component_code(opts["nu"], opts["t"], opts["e"], opts["s"])
    except ValueError as exc:
        parser.error(str(exc))


def _build_layout(parser, opts, code):
    window = opts.get("window")
    window = opts.get("num_blocks", 8) if window is None else window
    try:
        if opts.get("kind", "product") == "product":
            return build_product_layout(code)
        return build_staircase_layout(code, opts.get("num_blocks", 8), window)
    except ValueError as exc:
        parser.error(str(exc))


def _p_grid(parser, opts):
    p, sweep = opts.get("p"), opts.get("p_sweep")
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
    return [float(x) for x in np.geomspace(lo, hi, num)]


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
        if norm not in _SIM_OPTIONS or norm == "config":
            parser.error(f"unknown config key: {key!r}")
        if norm in seen:
            parser.error(f"config key {key!r} is given twice")
        seen.add(norm)
        if value is None:  # JSON null: the default
            continue
        # a value is read as its flag's argument would be: JSON as its text
        kind, choices, _, _ = _SIM_OPTIONS[norm]
        try:
            out[norm] = kind(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            parser.error(f"config key {key!r}: invalid {kind.__name__} value {value!r}")
        if choices is not None and out[norm] not in choices:
            parser.error(f"config key {key!r}: {value!r} is not one of {choices}")
    return out


def _cmd_simulate(ns, parser):
    explicit = {k: v for k, v in vars(ns).items() if k not in ("func", "command")}
    path = explicit.pop("config", None)
    config = _load_config_file(parser, path) if path else {}
    opts = {key: spec[2] for key, spec in _SIM_OPTIONS.items()}
    opts.update(config)
    opts.update(explicit)
    for key in ("nu", "t"):
        if opts[key] is None:
            parser.error(f"--{key} is required")
    code = _build_code(parser, opts)
    layout = _build_layout(parser, opts, code)
    grid = _p_grid(parser, opts)
    if opts["workers"] is None:
        opts["workers"] = os.cpu_count() or 1
    trial = {f.name: opts[f.name] for f in fields(TrialConfig) if f.name in opts}
    try:  # every point is checked before any runs
        cfgs = [
            TrialConfig(**{**trial, "layout": layout, "variant": opts["decoder"], "p": p})
            for p in grid
        ]
    except ValueError as exc:
        parser.error(str(exc))
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


def _cmd_de(ns, parser):
    code = _build_code(parser, vars(ns))
    if ns.kind == "product":
        model = de_product_model(code)
    else:
        if ns.num_blocks < 3:
            parser.error("--num-blocks must be >= 3")
        model = de_staircase_model(code, ns.num_blocks - 1)
    grid = _p_grid(parser, vars(ns))
    rows = ["p,ber,ell"]
    for p in grid:
        try:
            ber = density_evolution(model, p, ns.ell)
        except ValueError as exc:
            parser.error(str(exc))
        rows.append(f"{p!r},{ber!r},{ns.ell}")
    _write_lines(ns.output, rows)
    return 0


def _cmd_floor(ns, parser):
    code = _build_code(parser, vars(ns))
    if ns.model == "stall":
        model = stall_floor_model(code.n, code.t)
    elif code.t == 2 and code.e >= 1:
        model = pp_floor_model(code.n)
    else:
        parser.error("--model pp covers t = 2 codes with e >= 1 only")
    grid = _p_grid(parser, vars(ns))
    rows = ["p,ber,model"]
    for p in grid:
        try:
            rows.append(f"{p!r},{error_floor(model, p)!r},{ns.model}")
        except ValueError as exc:
            parser.error(str(exc))
    _write_lines(ns.output, rows)
    return 0


def _cmd_ncg(ns, parser):
    if ns.rate is not None:
        rate = ns.rate
    elif ns.nu is not None and ns.t is not None:
        code = _build_code(parser, vars(ns))
        layout = _build_layout(parser, vars(ns), code)
        rate = layout.rate
    else:
        parser.error("give --rate or the component code parameters")
    try:
        value = ncg(rate, ns.p, ns.p_out)
    except ValueError as exc:
        parser.error(str(exc))
    print(repr(value))
    return 0


def _cmd_mcprob(ns, parser):
    code = _build_code(parser, vars(ns))
    frac = miscorrection_probability(code)
    print(f"{frac} ({float(frac)!r})")
    return 0


# --- repro ---------------------------------------------------------------------

_FIGURES = {
    "pc721": {
        "description": "decoder comparison on the (7,2,1,0) product code, "
        "with density-evolution predictions",
        "code": (7, 2, 1, 0),
        "ell": 10,
        "delta": 1,
        "p": (1.0e-2, 2.2e-2, 7),
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "de": True,
        "floors": (),
    },
    "pc8261": {
        "description": "post-processing on the shortened (8,2,1,61) product "
        "code, with closed-form floor estimates",
        "code": (8, 2, 1, 61),
        "ell": 10,
        "delta": 1,
        "p": (9.0e-3, 1.6e-2, 5),
        "runs": [
            ("iterative", "none"),
            ("anchor", "none"),
            ("anchor", "bitflip"),
            ("anchor", "erasure"),
        ],
        "de": False,
        "floors": ("stall", "pp"),
    },
    "pc830": {
        "description": "decoder comparison on the (8,3,0,0) product code",
        "code": (8, 3, 0, 0),
        "ell": 10,
        "delta": 1,
        "p": (1.3e-2, 2.1e-2, 5),
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "de": False,
        "floors": (),
    },
    "pc842": {
        "description": "decoder comparison on the (8,4,2,0) product code",
        "code": (8, 4, 2, 0),
        "ell": 10,
        "delta": 1,
        "p": (1.7e-2, 2.6e-2, 5),
        "runs": [("iterative", "none"), ("anchor", "none"), ("genie", "none")],
        "de": False,
        "floors": (),
    },
}


def _cmd_repro(ns, parser):
    keys = sorted(_FIGURES) if "all" in ns.figures else list(dict.fromkeys(ns.figures))
    for flag, value, least in (
        ("--workers", ns.workers, 1),
        ("--min-frame-errors", ns.min_frame_errors, 1),
        ("--max-frames", ns.max_frames, 1),
        ("--seed", ns.seed, 0),
    ):
        if value is not None and value < least:
            parser.error(f"{flag} must be >= {least}")
    if ns.seed >= 1 << 64:
        parser.error("--seed must be < 2**64")
    workers = (os.cpu_count() or 1) if ns.workers is None else ns.workers
    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "package": "gpcdec",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": ns.seed,
        "stop_rule": {
            "min_frame_errors": ns.min_frame_errors,
            "max_frames": ns.max_frames,
        },
        "figures": {},
    }
    for key in keys:
        fig = _FIGURES[key]
        nu, t, e, s = fig["code"]
        code = build_component_code(nu, t, e, s)
        layout = build_product_layout(code)
        lo, hi, num = fig["p"]
        grid = [float(x) for x in np.geomspace(lo, hi, num)]
        cfgs = [
            TrialConfig(
                layout=layout,
                variant=variant,
                p=p,
                ell=fig["ell"],
                delta=fig["delta"],
                pp=pp,
                min_frame_errors=ns.min_frame_errors,
                max_frames=ns.max_frames,
                seed=ns.seed,
                workers=workers,
            )
            for variant, pp in fig["runs"]
            for p in grid
        ]
        rows = [CSV_HEADER]
        for rec in run_sweep(cfgs):
            label = rec.variant if rec.pp == "none" else f"{rec.variant}+{rec.pp}"
            rows.append(rec.csv_row(label))
        if fig["de"]:
            model = de_product_model(code)
            for p in grid:
                ber = density_evolution(model, p, fig["ell"])
                rows.append(format_csv_row(
                    "de", p, 0, 0, 0, ber, 0.0, fig["ell"], fig["delta"], 0,
                ))
        for floor_kind in fig["floors"]:
            model = (
                stall_floor_model(code.n, code.t)
                if floor_kind == "stall"
                else pp_floor_model(code.n)
            )
            for p in grid:
                rows.append(format_csv_row(
                    f"{floor_kind}-floor", p, 0, 0, 0, error_floor(model, p), 0.0,
                    fig["ell"], fig["delta"], 0,
                ))
        csv_path = outdir / f"{key}.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        manifest["figures"][key] = {
            "file": csv_path.name,
            "description": fig["description"],
            "component_code": {"nu": nu, "t": t, "e": e, "s": s},
            "layout": "product",
            "ell": fig["ell"],
            "delta": fig["delta"],
            "p_grid": grid,
            "runs": [list(r) for r in fig["runs"]],
        }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns, parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"gpcdec: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
