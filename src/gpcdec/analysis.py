"""Closed-form performance predictions.

Four independent estimates live here:

* density evolution: asymptotic waterfall BER of iterative (idealized)
  BDD via a scalar recursion on per-type codeword failure probabilities,
* error-floor estimates from minimal stopping-set counting,
* the probability that BDD of a random syndrome lands inside the
  decoding spheres (the driver of miscorrections),
* net coding gain over uncoded transmission on the BSC/AWGN mapping.

Everything is a pure function; big integers and Fractions are used where
doubles would overflow or round.  scipy is imported on the first call of
``poisson_tail`` or ``qfunc_inv``, the only functions that use it, so a
process that only decodes never loads it.
"""

from dataclasses import dataclass
from fractions import Fraction
import math
import operator

import numpy as np

from .bch import ComponentCodeSpec

__all__ = [
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


def poisson_tail(t: int, lam: float) -> float:
    """P(X >= t) for X ~ Poisson(lam).

    Equals the regularized lower incomplete gamma function P(t, lam),
    which scipy evaluates to near machine precision; the naive
    1 - exp(-lam)*sum(...) form loses digits for small lam.  ``t`` must
    be an integer: gammainc would take a float as a gamma shape, and
    P(X >= 2.5) is P(X >= 3), not P(2.5, lam).  A NaN ``lam`` is refused.
    """
    t = operator.index(t)
    if t < 1:
        raise ValueError("t must be >= 1")
    if not lam >= 0:
        raise ValueError("lambda must be >= 0")
    from scipy.special import gammainc

    return float(gammainc(t, lam))


@dataclass(frozen=True)
class DeModel:
    """Density-evolution description of a GPC ensemble.

    ``eta`` is the 0/1 codeword-type adjacency used in the final BER
    formula; ``coupling`` weights each neighbour by the fraction of the
    component length shared with it (1 for product codes, 1/2 per side
    for staircase codes), so the Poisson mean seen by type i is
    c * sum_j coupling[i,j] * x_j with c = p*n.  ``schedule`` lists the
    active (1-based) type sets of the half-iterations of one iteration.
    ``n`` and ``t`` must be integers of at least 1.
    """

    num_types: int
    eta: np.ndarray
    coupling: np.ndarray
    schedule: tuple[tuple[int, ...], ...]
    n: int
    t: int

    def __post_init__(self):
        eta = np.asarray(self.eta)
        if eta.shape != (self.num_types, self.num_types):
            raise ValueError("eta must be L x L")
        if not np.array_equal(eta, eta.T) or eta.diagonal().any():
            raise ValueError("eta must be symmetric with zero diagonal")
        if np.shape(self.coupling) != eta.shape:
            raise ValueError("coupling must be L x L")
        if operator.index(self.n) < 1:
            raise ValueError("n must be >= 1")
        if operator.index(self.t) < 1:
            raise ValueError("t must be >= 1")
        for active in self.schedule:
            for i in active:
                if not 1 <= i <= self.num_types:
                    raise ValueError(f"type {i} outside 1..{self.num_types}")


def de_product_model(code: ComponentCodeSpec) -> DeModel:
    eta = np.array([[0, 1], [1, 0]], dtype=float)
    return DeModel(2, eta, eta.copy(), ((1,), (2,)), code.n, code.t)


def de_staircase_model(code: ComponentCodeSpec, num_types: int) -> DeModel:
    """Spatially-coupled chain of ``num_types`` codeword types; each type
    shares half its bits with each neighbouring type."""
    if num_types < 2:
        raise ValueError("need at least two coupled types")
    eta = np.zeros((num_types, num_types))
    idx = np.arange(num_types - 1)
    eta[idx, idx + 1] = 1
    eta[idx + 1, idx] = 1
    schedule = tuple((i,) for i in range(1, num_types + 1))
    return DeModel(num_types, eta, eta / 2.0, schedule, code.n, code.t)


def density_evolution(model: DeModel, p: float, ell: int) -> float:
    """Predicted post-decoding BER after ell iterations at crossover p.

    Runs x_i <- PoissonTail_{>=t}(c * sum_j coupling[i,j] * x_j) for the
    active types of each half-iteration, from x = 1, then evaluates
    p * (x eta x^T) / ||eta||_F^2.  An iteration is a function of x
    alone, so once one leaves x bit-identical every later one would too,
    and the iterations stop there.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if operator.index(ell) < 1:
        raise ValueError("ell must be >= 1")
    c = p * model.n
    t = model.t
    coupling = model.coupling
    x = np.ones(model.num_types)
    for _ in range(ell):
        before = x.tobytes()
        for active in model.schedule:
            lam = c * (coupling @ x)
            for i in active:
                x[i - 1] = poisson_tail(t, lam[i - 1])
        if x.tobytes() == before:
            break
    quad = float(x @ model.eta @ x)
    return p * quad / float(model.eta.sum())


def de_crossing_p(
    model: DeModel,
    ell: int,
    target_ber: float,
    p_lo: float = 1e-4,
    p_hi: float = 0.2,
    tol: float = 1e-7,
) -> float:
    """Smallest p (to within tol) where the DE prediction reaches
    target_ber.  The prediction is continuous and nondecreasing in p for
    finite ell, so plain bisection applies.  It stops early once lo and
    hi are adjacent floats, where no midpoint lies between them."""
    if not 0 < target_ber < 1:
        raise ValueError("target BER must be in (0, 1)")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    if density_evolution(model, p_hi, ell) < target_ber:
        raise ValueError("target BER not reached below p_hi")
    if density_evolution(model, p_lo, ell) > target_ber:
        raise ValueError("target BER already exceeded at p_lo")
    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if density_evolution(model, mid, ell) < target_ber:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class FloorModel:
    """Minimal stopping-set family behind an error-floor estimate.  Every
    field must be an integer of at least 1."""

    n: int
    t: int
    s_min: int
    multiplicity: int

    def __post_init__(self):
        for name in ("n", "t", "s_min", "multiplicity"):
            if operator.index(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")


def stall_floor_model(n: int, t: int) -> FloorModel:
    """Minimal uncorrectable pattern of iterative BDD without
    miscorrections: a (t+1) x (t+1) error grid, placeable in any choice
    of t+1 rows and t+1 columns."""
    if operator.index(t) + 1 > operator.index(n):
        raise ValueError("a (t+1) x (t+1) grid needs t + 1 <= n")
    return FloorModel(n, t, (t + 1) ** 2, math.comb(n, t + 1) ** 2)


def pp_floor_model(n: int) -> FloorModel:
    """Dominant stopping sets surviving algebraic-erasure post-processing
    for t = 2 extended component codes: 18 errors arranged 3-per-row and
    3-per-column on a 6 x 6 support, in one of 297200 arrangements."""
    if operator.index(n) < 6:
        raise ValueError("a 6 x 6 support needs n >= 6")
    return FloorModel(n, 2, 18, 297200 * math.comb(n, 6) ** 2)


def error_floor_log10(floor: FloorModel, p: float) -> float:
    """log10 of the floor estimate; immune to double underflow."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    dens = Fraction(floor.s_min, floor.n * floor.n) * floor.multiplicity
    return (
        math.log10(dens.numerator)
        - math.log10(dens.denominator)
        + floor.s_min * math.log10(p)
    )


def error_floor(floor: FloorModel, p: float) -> float:
    """BER estimate (s_min / n^2) * multiplicity * p^s_min."""
    return 10.0 ** error_floor_log10(floor, p)


def miscorrection_probability(code: ComponentCodeSpec) -> Fraction:
    """Fraction of syndromes that BDD decodes, i.e. the conditional
    probability that a uniformly random syndrome (as produced by a
    severely corrupted codeword) triggers a miscorrection.

    The numerator counts error patterns of weight <= t over the possibly
    shortened length; the syndrome space stays at full size 2^(nu*t+e).
    """
    num = sum(math.comb(code.n, i) for i in range(code.t + 1))
    return Fraction(num, 2 ** (code.nu * code.t + code.e))


def qfunc_inv(y: float) -> float:
    """Inverse Gaussian tail function Q^{-1}(y)."""
    if not 0 < y < 1:
        raise ValueError("argument must be in (0, 1)")
    from scipy.special import ndtri

    return float(-ndtri(y))


def ncg(rate: float, p: float, p_out: float) -> float:
    """Net coding gain in dB of a hard-decision code operating at input
    crossover p and output error rate p_out, over uncoded transmission.
    """
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    if not 0 < p_out <= p < 0.5:
        raise ValueError("need 0 < p_out <= p < 0.5")
    return 10.0 * math.log10(rate * qfunc_inv(p_out) ** 2 / qfunc_inv(p) ** 2)
