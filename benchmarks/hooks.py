"""Wrappers the benchmark installs around gpcdec's public names.

The modules look these names up at call time, so replacing the module or
class attribute reaches every call without touching the package:

* ``Checker`` wraps the decoders and post-processors that ``gpcdec.sim``
  calls.  It re-derives the component syndromes of every output frame
  (``SyndromeCheck``) and compares them with the decoder's own verdict,
  and it times each frame from its noise draw to its last decode.  It is
  installed on every pass, traced or not; the time it spends checking is
  kept apart so it can be taken out of the measured wall time.
* ``Tracer`` records a span per call at each layer boundary, keeps the
  spans in memory, and aggregates the per-codeword calls (BDD, erasure
  solver) into counters on the enclosing span, because one span per
  codeword would cost more than the decode it measures.

``Patches.restore`` puts every original back.
"""

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import gpcdec.cli
import gpcdec.engine
import gpcdec.postprocess
import gpcdec.sim
from gpcdec.bch import ComponentCodeSpec
from gpcdec.engine import DecoderState


class CheckFailed(Exception):
    """A decoder's verdict disagrees with the recomputed syndromes."""


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def restore(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class SyndromeCheck:
    """All-zero test of a frame's component syndromes, computed from the
    code's binary parity-check matrix and the layout's ``cw_bits`` only.

    Build it from a code and layout of the benchmark's own, never from the
    objects being decoded: ``parity_check_matrix`` caches the matrix on the
    code, which would move the erasure solver's first-use cost.
    """

    def __init__(self, layout):
        h = layout.code.parity_check_matrix().astype(np.int64)
        if h.shape[0] > 62:
            raise ValueError("parity checks do not fit one int64 per column")
        self.column = (h << np.arange(h.shape[0], dtype=np.int64)[:, None]).sum(axis=0)
        self.n_bits = layout.n_bits
        self.n_cw, self.n = layout.cw_bits.shape
        flat = layout.cw_bits.ravel()
        self.slot_order = np.argsort(flat, kind="stable")
        self.slot_bits = flat[self.slot_order].astype(np.int64)

    def all_zero(self, frame: np.ndarray) -> bool:
        if frame.shape != (self.n_bits,):
            raise CheckFailed(f"output frame has shape {frame.shape}")
        if not frame.any():
            return True
        bits = np.flatnonzero(frame != 0)  # a bool scan is several times faster
        lo = np.searchsorted(self.slot_bits, bits, "left")
        hi = np.searchsorted(self.slot_bits, bits, "right")
        slots = self.slot_order[np.concatenate([lo, lo[hi - lo == 2] + 1])]
        syn = np.zeros(self.n_cw, dtype=np.int64)
        np.bitwise_xor.at(syn, slots // self.n, self.column[slots % self.n])
        return not syn.any()


# name in gpcdec.sim -> (output frame, the callee's all-syndromes-zero verdict)
_VERDICTS = {
    "iterative_bdd": lambda r: (r[0], r[1].syndromes_zero),
    "anchor_decode_state": lambda s: (s.frame, s.stats.syndromes_zero),
    "genie_decode": lambda r: (r[0], r[1].syndromes_zero),
    "erasure_pp": lambda r: (r.frame, r.success),
    "bitflip_iterate_pp": lambda r: (r.frame, r.success),
}


class Checker:
    """Per-decode correctness check and per-frame timing.

    A frame starts at its ``frame_rng`` call and ends when its last decode
    (decoder, then post-processing if any) returns; check time inside that
    interval is taken out.  A disagreement raises ``CheckFailed``, which
    also crosses a process pool back to the caller.
    """

    def __init__(self, check: SyndromeCheck):
        self.check = check
        self.check_s = 0.0
        self._frame_ms: list[float] = []
        self._t0 = None
        self._last = None
        self._checking = 0.0

    def install(self, patches: Patches) -> None:
        patches.wrap(gpcdec.sim, "frame_rng", self._frame_start)
        for name, verdict in _VERDICTS.items():
            patches.wrap(gpcdec.sim, name, lambda f, n=name, v=verdict: self._checked(n, f, v))

    def take_frame_ms(self) -> list[float]:
        """Per-frame times (ms) since the last call, in frame order."""
        self._close_frame()
        out, self._frame_ms = self._frame_ms, []
        return out

    def _close_frame(self):
        if self._last is not None:
            self._frame_ms.append(self._last)
        self._t0 = self._last = None

    def _frame_start(self, orig):
        def frame_rng(*args, **kwargs):
            self._close_frame()
            self._t0 = perf_counter()
            self._checking = 0.0
            return orig(*args, **kwargs)

        return frame_rng

    def _checked(self, name, orig, verdict):
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            t1 = perf_counter()
            if self._t0 is not None:
                self._last = (t1 - self._t0 - self._checking) * 1e3
            frame, claimed = verdict(result)
            if self.check.all_zero(frame) != bool(claimed):
                raise CheckFailed(
                    f"{name}: verdict syndromes_zero={claimed} disagrees with "
                    "the recomputed syndromes"
                )
            dt = perf_counter() - t1
            self.check_s += dt
            self._checking += dt
            return result

        return wrapper


class Tracer:
    """Spans at the layer boundaries, plus per-span counters of the
    per-codeword calls made inside them.

    A span is ``[name, parent, start, end, label, info]``; ``parent`` is
    the index of the enclosing span or -1.  ``info`` holds the outcome of
    a frame decoder or post-processor that ``gpcdec.sim`` calls; reading
    it takes ``info_s`` in all, spent inside the harness's own span.  ``hot[(span, key)]`` holds
    ``[calls, seconds, hits]`` of the per-codeword calls made directly
    under that span; ``key`` is ``decode_cw``, ``decode_packed``,
    ``decode_packed@decode_cw`` (a cache miss inside an anchor decode) or
    ``erasure_decode`` (``hits`` = solved).
    """

    SIM_DECODES = (
        "iterative_bdd",
        "anchor_decode_state",
        "genie_decode",
        "erasure_pp",
        "bitflip_iterate_pp",
    )
    PP_SPANS = ("build_failure_report", "anchor_decode", "iterative_bdd")

    def __init__(self):
        self.spans: list[list] = []
        self.hot = defaultdict(lambda: [0, 0.0, 0])
        self.label = None
        self.info_s = 0.0
        self._stack: list[int] = []
        self._in_cw = False

    def install(self, patches: Patches) -> None:
        for name in ("frame_rng", "sample_bsc"):
            patches.wrap(gpcdec.sim, name, lambda f, n=name: self._span("sim." + n, f))
        for name in self.SIM_DECODES:
            patches.wrap(gpcdec.sim, name, lambda f, n=name: self._span("sim." + n, f, True))
        patches.wrap(gpcdec.sim, "run_trials", lambda f: self._span("sim.run_trials", f))
        patches.wrap(gpcdec.cli, "run_trials", lambda f: self._span("sim.run_trials", f))
        patches.wrap(
            gpcdec.engine, "frame_syndromes",
            lambda f: self._span("engine.frame_syndromes", f),
        )
        for name in self.PP_SPANS:
            patches.wrap(
                gpcdec.postprocess, name, lambda f, n=name: self._span("postprocess." + n, f)
            )
        patches.wrap(DecoderState, "decode_cw", self._decode_cw)
        patches.wrap(ComponentCodeSpec, "decode_packed", self._decode_packed)
        patches.wrap(ComponentCodeSpec, "erasure_decode", self._erasure_decode)

    def _span(self, name, orig, outcome=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.label, None]
            spans.append(rec)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                rec[2] = t0
                stack.pop()
            if outcome:
                rec[5] = _outcome(args, result)
                self.info_s += perf_counter() - rec[3]
            return result

        return wrapper

    def _count(self, key, dt, hit):
        acc = self.hot[(self._stack[-1] if self._stack else -1, key)]
        acc[0] += 1
        acc[1] += dt
        acc[2] += hit

    def _decode_cw(self, orig):
        def decode_cw(state, c, budget):
            self._in_cw = True
            t0 = perf_counter()
            try:
                out = orig(state, c, budget)
            finally:
                dt = perf_counter() - t0
                self._in_cw = False
            self._count("decode_cw", dt, 0)
            return out

        return decode_cw

    def _decode_packed(self, orig):
        def decode_packed(code, packed, budget=None):
            inside = self._in_cw
            t0 = perf_counter()
            out = orig(code, packed, budget)
            self._count(
                "decode_packed@decode_cw" if inside else "decode_packed",
                perf_counter() - t0,
                0,
            )
            return out

        return decode_packed

    def _erasure_decode(self, orig):
        def erasure_decode(code, word, erasures):
            t0 = perf_counter()
            out = orig(code, word, erasures)
            self._count("erasure_decode", perf_counter() - t0, out is not None)
            return out

        return erasure_decode

    def write(self, path) -> None:
        """One JSON line per span, with its per-codeword call counters."""
        hot_by_span = defaultdict(dict)
        for (idx, key), (calls, secs, hits) in self.hot.items():
            hot_by_span[idx][key] = {"calls": calls, "s": secs, "hits": hits}
        with open(path, "w") as out:
            for idx, (name, parent, t0, t1, label, info) in enumerate(self.spans):
                line = {"id": idx, "name": name, "parent": parent, "label": label,
                        "start": t0, "end": t1}
                if info is not None:
                    line["info"] = info
                if idx in hot_by_span:
                    line["calls"] = hot_by_span[idx]
                out.write(json.dumps(line) + "\n")
            if -1 in hot_by_span:
                out.write(json.dumps({"id": -1, "calls": hot_by_span[-1]}) + "\n")


def _outcome(args, result):
    """DecodeStats fields and residual bit errors of a frame decoder, or
    the verdict of a post-processor."""
    if hasattr(result, "augmented"):
        return {"success": bool(result.success), "augmented": result.augmented}
    if isinstance(result, DecoderState):
        stats, frame = result.stats, result.frame
    else:
        frame, stats = result
    return {
        "syndromes_zero": bool(stats.syndromes_zero),
        "half_iterations": stats.half_iterations,
        "corrections": stats.corrections,
        "frozen_events": stats.frozen_events,
        "backtracks": stats.backtracks,
        "bit_errors": int(frame[args[0].counted].sum()),
    }
