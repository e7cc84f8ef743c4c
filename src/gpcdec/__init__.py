"""Hard-decision iterative decoding of product and staircase codes.

Library layout:

- galois: GF(2^nu) tables
- bch: component BCH codes (parity-check columns, packed-syndrome BDD,
  erasures)
- layout: product and staircase code geometry and decoding windows
- engine: iterative, genie (idealized) and anchor-based decoders
- postprocess: stall-pattern post-processing (bit-flip and algebraic-erasure)
- analysis: density evolution, error-floor estimates, miscorrection
  probability, net coding gain; loads scipy on first use, so a process
  that only decodes never imports it
- sim: BSC Monte Carlo harness with deterministic parallelism
- cli: command-line front end
"""

from .analysis import (
    DeModel,
    FloorModel,
    de_crossing_p,
    de_product_model,
    de_staircase_model,
    density_evolution,
    error_floor,
    error_floor_log10,
    miscorrection_probability,
    ncg,
    poisson_tail,
    pp_floor_model,
    qfunc_inv,
    stall_floor_model,
)
from .bch import ComponentCodeSpec, build_component_code
from .engine import (
    DecoderState,
    DecodeStats,
    anchor_decode,
    anchor_decode_state,
    genie_decode,
    iterative_bdd,
)
from .layout import (
    CodewordId,
    GpcLayout,
    build_product_layout,
    build_staircase_layout,
)
from .postprocess import (
    FailureReport,
    PpResult,
    bitflip_iterate_pp,
    build_failure_report,
    erasure_pp,
)
from .sim import BerRecord, TrialConfig, paired_records, run_sweep, run_trials

__all__ = [
    "ComponentCodeSpec",
    "build_component_code",
    "CodewordId",
    "GpcLayout",
    "build_product_layout",
    "build_staircase_layout",
    "DecoderState",
    "DecodeStats",
    "iterative_bdd",
    "genie_decode",
    "anchor_decode",
    "anchor_decode_state",
    "FailureReport",
    "PpResult",
    "build_failure_report",
    "bitflip_iterate_pp",
    "erasure_pp",
    "TrialConfig",
    "BerRecord",
    "run_trials",
    "run_sweep",
    "paired_records",
    "DeModel",
    "FloorModel",
    "poisson_tail",
    "de_product_model",
    "de_staircase_model",
    "density_evolution",
    "de_crossing_p",
    "stall_floor_model",
    "pp_floor_model",
    "error_floor",
    "error_floor_log10",
    "miscorrection_probability",
    "qfunc_inv",
    "ncg",
]

__version__ = "0.1.0"
