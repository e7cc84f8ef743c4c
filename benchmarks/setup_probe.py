"""Time one workload's set-up in a fresh interpreter.

Run by ``run.py`` as ``python3 benchmarks/setup_probe.py WORKLOAD``.  A new
process starts with gpcdec's module-level field cache empty, so the field
build is paid again, as it is by every user process and pool worker.
Imports are not timed.  Prints one JSON object of seconds per stage:
``galois`` (``build_field``), ``bch`` (``build_component_code``), ``layout``
(``build_*_layout``) and ``tables`` (tables built on first use: one
two-error decode per decoder of the workload, plus the parity-check
matrix where the erasure solver runs).
"""

import json
import sys
from time import perf_counter

import numpy as np

from run import DELTA, ELL, WORKLOADS, build_layout

from gpcdec.bch import build_component_code
from gpcdec.engine import anchor_decode_state, genie_decode, iterative_bdd
from gpcdec.galois import build_field


def first_use(layout, variants, erasure: bool) -> None:
    c = next(c for c in range(layout.n_cw) if not layout.cw_pinned[c].any())
    frame = np.zeros(layout.n_bits, dtype=np.uint8)
    frame[layout.cw_bits[c, :2]] = 1
    for variant in variants:
        if variant == "iterative":
            iterative_bdd(layout, frame, ELL)
        elif variant == "anchor":
            anchor_decode_state(layout, frame, ELL, DELTA)
        else:
            genie_decode(layout, frame, None, ELL)
    if erasure:
        layout.code.parity_check_matrix()


def main(name: str) -> None:
    wl = WORKLOADS[name]
    t0 = perf_counter()
    build_field(wl["code"][0])
    t1 = perf_counter()
    code = build_component_code(*wl["code"])
    t2 = perf_counter()
    layout = build_layout(wl, code)
    t3 = perf_counter()
    variants = sorted({variant for _, variant, _ in wl["runs"]})
    first_use(layout, variants, any(pp == "erasure" for _, _, pp in wl["runs"]))
    t4 = perf_counter()
    print(json.dumps({"galois": t1 - t0, "bch": t2 - t1, "layout": t3 - t2, "tables": t4 - t3}))


if __name__ == "__main__":
    main(sys.argv[1])
