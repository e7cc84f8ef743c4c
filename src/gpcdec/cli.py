"""Command-line front end.

Subcommands map one-to-one onto the library surfaces:

* ``simulate``: Monte Carlo at one or more crossover probabilities,
  CSV out.  Accepts a flat ``key = value`` or JSON config file; explicit
  flags override config keys, unknown keys are rejected.
* ``de``: density-evolution BER predictions over a p grid.
* ``floor``: closed-form error-floor estimates over a p grid.
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

_SIM_DEFAULTS = {
    "e": 0,
    "s": 0,
    "kind": "product",
    "num_blocks": 8,
    "window": None,
    "decoder": "anchor",
    "pp": "none",
    "pp_extra_iters": None,
    "ell": 10,
    "delta": 1,
    "reduced_t_iters": 0,
    "min_frame_errors": 100,
    "max_frames": 10_000_000,
    "seed": 0,
    "batch_frames": 256,
    "workers": None,
    "output": "-",
    "verbose_frames": None,
}

# coercions applied to values read from a flat-text config file
_SIM_COERCE = {
    "nu": int,
    "t": int,
    "e": int,
    "s": int,
    "num_blocks": int,
    "window": int,
    "pp_extra_iters": int,
    "ell": int,
    "delta": int,
    "reduced_t_iters": int,
    "min_frame_errors": int,
    "max_frames": int,
    "seed": int,
    "batch_frames": int,
    "workers": int,
    "p": float,
}
_SIM_KEYS = set(_SIM_DEFAULTS) | set(_SIM_COERCE) | {"p_sweep", "config"}


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
        "probabilities.  Defaults: "
        + ", ".join(f"{k}={v}" for k, v in sorted(_SIM_DEFAULTS.items())),
        argument_default=argparse.SUPPRESS,
    )
    # every option suppressed when absent: merged later as
    # defaults < config file < explicit flags
    sim.add_argument("--config", help="flat key=value or JSON config file")
    sim.add_argument("--nu", type=int)
    sim.add_argument("--t", type=int)
    sim.add_argument("--e", type=int)
    sim.add_argument("--s", type=int)
    sim.add_argument("--kind", choices=("product", "staircase"))
    sim.add_argument("--num-blocks", type=int,
                     help="staircase chain length incl. termination blocks")
    sim.add_argument("--window", type=int,
                     help="staircase decoding window (blocks)")
    sim.add_argument("--decoder", choices=VARIANTS)
    sim.add_argument("--pp", choices=PP_MODES,
                     help="post-processing on decode failure")
    sim.add_argument("--pp-extra-iters", type=int)
    sim.add_argument("--ell", type=int, help="decoding iterations")
    sim.add_argument("--delta", type=int, choices=(0, 1, 2, 3),
                     help="anchor conflict threshold")
    sim.add_argument("--reduced-t-iters", type=int)
    sim.add_argument("--p", type=float)
    sim.add_argument("--p-sweep", metavar="START:STOP:NUM")
    sim.add_argument("--min-frame-errors", type=int)
    sim.add_argument("--max-frames", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--batch-frames", type=int)
    sim.add_argument("--workers", type=int)
    sim.add_argument("--output", help="CSV path, '-' for stdout")
    sim.add_argument("--verbose-frames", metavar="PATH",
                     help="also write per-frame stats as JSON lines")
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
    except (KeyError, TypeError) as exc:
        parser.error(f"missing code parameter: {exc}")
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


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _write_lines(path, lines):
    out, close = _open_out(path)
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if close:
            out.close()


# --- simulate ----------------------------------------------------------------


def _load_config_file(parser, path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    data = {}
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            parser.error(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            parser.error("JSON config must be an object")
    else:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                parser.error(f"config line {lineno} is not key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            data[key] = value
    out = {}
    for key, value in data.items():
        norm = key.replace("-", "_")
        if norm not in _SIM_KEYS or norm == "config":
            parser.error(f"unknown config key: {key!r}")
        coerce = _SIM_COERCE.get(norm)
        if coerce is not None and isinstance(value, str):
            try:
                value = coerce(value)
            except ValueError:
                parser.error(f"config key {key!r}: cannot parse {value!r}")
        out[norm] = value
    return out


def _cmd_simulate(ns, parser):
    explicit = {k: v for k, v in vars(ns).items() if k not in ("func", "command")}
    config = {}
    path = explicit.pop("config", None)
    if path:
        config = _load_config_file(parser, path)
    opts = {**_SIM_DEFAULTS, **config, **explicit}
    for key in ("nu", "t"):
        if key not in opts:
            parser.error(f"--{key} is required")
    if opts["delta"] not in (0, 1, 2, 3):
        parser.error("--delta: supported range is 0-3")
    if opts["decoder"] not in VARIANTS:
        parser.error(f"--decoder must be one of {VARIANTS}")
    if opts["pp"] not in PP_MODES:
        parser.error(f"--pp must be one of {PP_MODES}")
    code = _build_code(parser, opts)
    layout = _build_layout(parser, opts, code)
    grid = _p_grid(parser, opts)
    workers = opts["workers"]
    workers = (os.cpu_count() or 1) if workers is None else workers
    verbose = opts["verbose_frames"]
    try:  # every point is checked before any runs
        cfgs = [
            TrialConfig(
                layout=layout,
                variant=opts["decoder"],
                p=p,
                ell=opts["ell"],
                delta=opts["delta"],
                reduced_t_iters=opts["reduced_t_iters"],
                pp=opts["pp"],
                pp_extra_iters=opts["pp_extra_iters"],
                min_frame_errors=opts["min_frame_errors"],
                max_frames=opts["max_frames"],
                seed=opts["seed"],
                batch_frames=opts["batch_frames"],
                workers=workers,
            )
            for p in grid
        ]
    except ValueError as exc:
        parser.error(str(exc))
    records = run_sweep(cfgs, collect_frame_stats=bool(verbose))
    rows = [CSV_HEADER] + [record.csv_row() for record in records]
    _write_lines(opts["output"], rows)
    if verbose:
        _write_lines(verbose, (
            json.dumps({"p": record.p, **rec})
            for record in records
            for rec in record.frame_stats
        ))
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
    else:
        model = pp_floor_model(code.n)
    grid = _p_grid(parser, vars(ns))
    rows = ["p,ber,model"]
    for p in grid:
        rows.append(f"{p!r},{error_floor(model, p)!r},{ns.model}")
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
