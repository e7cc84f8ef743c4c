"""The stored decoding schedule: the tests' oracle for the schedule that
``engine._run_schedule`` computes entry by entry.

A window position's plan is ell sweeps over the codeword types the
window can decode, every entry a ``HalfIteration``.  The types come from
the block arithmetic of the layout kind alone (both types of a product;
on a staircase, the types whose two blocks lie inside the window), never
from ``GpcLayout.window_ranges``, so the oracle stays independent of what
it checks.
"""

import operator
from typing import NamedTuple


class HalfIteration(NamedTuple):
    """One scheduled pass: the contiguous, ascending range of codeword
    indices of one type, the BDD budget to use, and whether failed
    statuses reset before the pass."""

    cw_indices: range
    budget: int
    reset_failed: bool


def window_types(layout) -> list[list[int]]:
    """Decodable 1-based types per window position: a window anchored at
    block w0 spans blocks w0 .. w0+window-1 and can decode exactly the
    types whose two blocks both lie inside."""
    if layout.kind == "product":
        return [[1, 2]]
    num_blocks = layout.num_types + 1
    w = layout.window
    return [list(range(w0 + 1, w0 + w)) for w0 in range(num_blocks - w + 1)]


def sweep_len(layout) -> int:
    """Half-iterations per sweep: types decoded together in one pass."""
    return 2 if layout.kind == "product" else layout.window - 1


def window_plans(layout, ell: int, reduced_t_iters: int = 0) -> list[list[HalfIteration]]:
    """Half-iteration plans grouped by window position.

    Each plan holds ell sweeps over the position's types.  The first
    ``reduced_t_iters`` sweeps decode with budget t-1; the entry right
    after the reduced phase carries ``reset_failed``.  Arguments are
    refused with the decoders' errors and messages."""
    ell, reduced_t_iters = operator.index(ell), operator.index(reduced_t_iters)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 0 <= reduced_t_iters <= ell:
        raise ValueError("reduced_t_iters must lie in [0, ell]")
    t, per = layout.code.t, layout.per_type
    out = []
    for types in window_types(layout):
        plan = []
        for it in range(1, ell + 1):
            budget = t - 1 if it <= reduced_t_iters else t
            reset = it == reduced_t_iters + 1 and reduced_t_iters > 0
            for k, ty in enumerate(types):
                plan.append(HalfIteration(range((ty - 1) * per, ty * per), budget, reset and k == 0))
        out.append(plan)
    return out


def last_reset(plan: list[HalfIteration]) -> int:
    """Index of the plan's entry that carries ``reset_failed``, or -1."""
    return max((i for i, h in enumerate(plan) if h.reset_failed), default=-1)
