"""Per-piece action integrals and the discrete action lattice.

The irreducible building block is one quarter period of the harmonic pair
(cos, sin) in the scaled time variable tau = omega * t: the largest stretch on
which both components are simultaneously monotone. The action carried by one
piece is amplitude^2 * pi/2; fitting a set of per-mode actions to a common
quantum I is an approximate real gcd, and h is the alias 4*I. For I >= 10 tol, three
rounds of sums and differences stay within tol of n*I iff 8 max |exact residual| <= tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, NoLatticeError
from .polynomials import Polynomial, chebyshev_fit, integrate_product

QUARTER_PERIOD = math.pi / 2.0

# The field solve pins its frequency on the time pair of this degree, and the
# action integral (also when refit from a stored solution) reads the quantum
# off the same pair.
TIME_PAIR_DEGREE = 16
LATTICE_TOL = 1e-9  # default of the lattice fit and its closure check
NORM_TOL = 1e-8  # largest |norm - 1| of a space factor an action integral accepts

_LATTICE_FLOOR_FACTOR = 10.0
_CLOSURE_DEPTH = 3


@dataclass(frozen=True)
class TimePair:
    """Legendre-series cos/sin approximants on one quarter period in tau units.

    Pointwise, u1' = -u2, u2' = u1 and u1^2 + u2^2 = 1 hold to 1e-12 across
    the piece. ``action``, computed once with the pair, is the action of one
    piece at unit amplitude: int u1'^2 + int u2'^2 (pi/2 for cos, sin).
    """

    u1: Polynomial
    u2: Polynomial
    action: float


@lru_cache(maxsize=1)
def make_time_pair() -> TimePair:
    """Chebyshev-fit cos/sin on [0, pi/2] in tau = omega*t units.

    The frequency fixes the physical length pi/(2*omega) of the piece in t
    but does not enter the tau-domain polynomials, so there is one pair, of
    degree ``TIME_PAIR_DEGREE``: every call returns the same immutable
    ``TimePair``.
    """
    domain = (0.0, QUARTER_PERIOD)
    u1 = chebyshev_fit(np.cos, TIME_PAIR_DEGREE, domain)
    u2 = chebyshev_fit(np.sin, TIME_PAIR_DEGREE, domain)
    d1, d2 = u1.derivative(), u2.derivative()
    action = integrate_product(d1, d1) + integrate_product(d2, d2)
    return TimePair(u1, u2, action)


def action_for_state(state) -> float:
    """``action_of_amplitude`` of a separable state."""
    return action_of_amplitude(state.amplitude, state.space_norms)


def action_of_amplitude(amplitude: float, space_norms: Sequence[float] = ()) -> float:
    """Action of one irreducible time piece at amplitude A: A^2 times the time
    pair's stored ``action`` (A^2 pi/2 for the exact pair), no integral computed.
    Each space factor's norm must be 1, so the spatial integral contributes 1."""
    for norm in space_norms:
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"space factor norm {norm} is not 1 within {NORM_TOL}")
    amp = float(amplitude)
    return amp * amp * make_time_pair().action


def h_from_quantum(quantum_I: float) -> float:
    """The alias h = 4 * I of an action quantum I."""
    return 4.0 * quantum_I


def _real_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, math.fmod(a, b)
    return a


def _finite_actions(alphas: Sequence[float]) -> tuple[float, ...]:
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if not math.isfinite(a):
            raise DomainError(f"action value {a} is not finite")
    return alphas


def closure_check(alphas: Sequence[float], quantum: float, tol: float = LATTICE_TOL) -> bool:
    """Whether three levels of sums and absolute differences of the values above
    tol stay within tol of the quantum's lattice, decided in closed form.

    Each is some +-sum c_i alpha_i with sum |c_i| <= 8, within 8 max |r_i| of the
    lattice, r_i = alpha_i minus its nearest multiple, taken exactly. If that
    exceeds tol, the least k <= 8 with k |r_worst| > tol puts k alpha_worst more
    than tol off it: k = 1, or k |r_worst| <= 2 tol < quantum / 2 (quantum >= 10 tol).
    """
    alphas = _finite_actions(alphas)
    if not (tol > 0 and math.isfinite(quantum) and quantum >= _LATTICE_FLOOR_FACTOR * tol):
        raise DomainError(f"the closure needs tol > 0 and a finite quantum of at least "
                          f"{_LATTICE_FLOOR_FACTOR:g} tol; got quantum {quantum}, tol {tol}")
    (qn, qd), (tn, td) = quantum.as_integer_ratio(), tol.as_integer_ratio()
    for an, ad in (a.as_integer_ratio() for a in alphas if abs(a) > tol):
        r = an * qd % (qn * ad)  # (a mod quantum) * ad * qd, an exact integer
        if 2 ** _CLOSURE_DEPTH * min(r, qn * ad - r) * td > tn * ad * qd:
            return False
    return True


@dataclass(frozen=True)
class ActionSpectrum:
    """Per-mode actions with the fitted quantum and integer multipliers."""

    labels: tuple[str, ...]
    alphas: tuple[float, ...]
    quantum: float
    multipliers: tuple[int, ...]
    residuals: tuple[float, ...]

    @property
    def h(self) -> float:
        return h_from_quantum(self.quantum)


def fit_spectrum(labels: Sequence[str], alphas: Sequence[float],
                 tol: float = LATTICE_TOL) -> ActionSpectrum:
    """Approximate-real-gcd fit of action values to a lattice alpha = n * I.

    Euclidean reduction with termination threshold tol. The fit is rejected
    (NoLatticeError) when any value misses the lattice by more than tol, or
    when the surviving candidate sits within a decade of tol itself, which is
    the signature of incommensurable inputs being ground down to noise.
    There must be one label per action value.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    alphas = _finite_actions(alphas)
    labels = tuple(labels)
    if len(labels) != len(alphas):
        raise DomainError(f"labels and action values differ in number: "
                          f"{len(labels)} and {len(alphas)}")
    if not alphas:
        raise DomainError("need at least one action value")
    if any(a <= tol for a in alphas):
        raise DomainError("all action values must exceed the tolerance")
    quantum = alphas[0]
    for a in alphas[1:]:
        quantum = _real_gcd(quantum, a, tol)
    if quantum < _LATTICE_FLOOR_FACTOR * tol:
        raise NoLatticeError(
            f"candidate quantum {quantum:.3e} is indistinguishable from the threshold {tol:.1e}"
        )
    multipliers = tuple(round(a / quantum) for a in alphas)
    residuals = tuple(abs(a - n * quantum) for a, n in zip(alphas, multipliers))
    worst = max(residuals)
    if worst > tol:
        raise NoLatticeError(f"worst lattice residual {worst:.3e} exceeds {tol:.1e}")
    return ActionSpectrum(labels, alphas, quantum, multipliers, residuals)
