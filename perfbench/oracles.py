"""Independent reference computations for the benchmark's correctness checks.

None of these call into eigenforge's algorithms: eigenvalues come from closed
forms or from Chebyshev collocation, state counts from a coin-change count,
and ratio-field results from exact Fraction arithmetic at a large integer W.
All of them run outside the timed region.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

COLLOCATION_POINTS = 64


class WrongResult(Exception):
    """A request returned, but its result fails the oracle."""


def closed_form_eigenvalues(length, bc_kind, p, q, r, count):
    """Eigenvalues of -(p u')' - q u = lam r u with constant p, q, r on (0, L).

    bc_kind is "DD", "NN", "DN" or "ND" (value/derivative vanishing at each end):
    (k pi / L)^2 for Dirichlet (k >= 1) and Neumann (k >= 0, the zero mode
    included), ((k - 1/2) pi / L)^2 for the mixed pairs (k >= 1).
    """
    if bc_kind == "DD":
        mus = [(k * math.pi / length) ** 2 for k in range(1, count + 1)]
    elif bc_kind == "NN":
        mus = [(k * math.pi / length) ** 2 for k in range(count)]
    else:
        mus = [((k - 0.5) * math.pi / length) ** 2 for k in range(1, count + 1)]
    return [(p * mu - q) / r for mu in mus]


def _cheb(n):
    """Chebyshev points cos(j pi / n) and the collocation differentiation matrix."""
    j = np.arange(n + 1)
    t = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return t, d


def collocation_eigenvalues(length, bc_kind, p_coeffs, q_coeffs, r_coeffs, count,
                            n=COLLOCATION_POINTS):
    """Lowest eigenvalues of -(p u')' - q u = lam r u on (0, L) by Chebyshev collocation.

    Coefficients are ascending monomial coefficients in x. Vanishing-value
    endpoints drop their unknown; vanishing-derivative endpoints are eliminated
    through their collocated derivative row.
    """
    t, d = _cheb(n)
    x = 0.5 * length * (t + 1.0)
    d = d * (2.0 / length)
    p = np.polynomial.polynomial.polyval(x, p_coeffs)
    dp = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(p_coeffs))
    q = np.polynomial.polynomial.polyval(x, q_coeffs)
    r = np.polynomial.polynomial.polyval(x, r_coeffs)
    a = -(p[:, None] * (d @ d)) - dp[:, None] * d - np.diag(q)
    # index 0 is x = L (end b), index n is x = 0 (end a)
    end_a, end_b = bc_kind[0], bc_kind[1]
    interior = list(range(1, n))
    natural = [i for i, kind in ((n, end_a), (0, end_b)) if kind == "N"]
    red = a[np.ix_(interior, interior)]
    if natural:
        elim = -np.linalg.solve(d[np.ix_(natural, natural)], d[np.ix_(natural, interior)])
        red = red + a[np.ix_(interior, natural)] @ elim
    vals = np.linalg.eigvals(red / r[interior][:, None])
    vals = np.sort(vals[np.abs(vals.imag) < 1e-6 * (1.0 + np.abs(vals.real))].real)
    return [float(v) for v in vals[:count]]


def check_eigenvalues(got, expected, rel_tol):
    if len(got) != len(expected):
        raise WrongResult(f"expected {len(expected)} eigenvalues, got {len(got)}")
    for k, (g, e) in enumerate(zip(got, expected)):
        if abs(g - e) > rel_tol * (1.0 + abs(e)):
            raise WrongResult(f"eigenvalue {k}: got {g!r}, reference {e!r}")


def count_lattice_states(weights, budget):
    """Number of nonnegative integer vectors n with sum n_m * weights[m] <= budget."""
    ways = [1] + [0] * budget
    for w in weights:
        for total in range(w, budget + 1):
            ways[total] += ways[total - w]
    return sum(ways)


def count_states_by_box(energies, e_max, slack):
    """Definable-state count by scanning the full occupation box (small inputs only)."""
    bounds = [int((e_max + slack) // e) for e in energies]
    return sum(
        1
        for occ in itertools.product(*(range(b + 1) for b in bounds))
        if sum(n * e for n, e in zip(occ, energies)) <= e_max + slack
    )


# ---- ratio-field expressions ----------------------------------------------

def eval_expr(tree, w):
    """Exact value of an expression tree with W bound to the integer w."""
    kind = tree[0]
    if kind == "int":
        return Fraction(tree[1])
    if kind == "W":
        return Fraction(w)
    if kind == "neg":
        return -eval_expr(tree[1], w)
    if kind == "pow":
        return eval_expr(tree[1], w) ** tree[2]
    a, b = eval_expr(tree[1], w), eval_expr(tree[2], w)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return a / b


def render_expr(tree):
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "W":
        return "W"
    if kind == "neg":
        return f"-({render_expr(tree[1])})"
    if kind == "pow":
        return f"({render_expr(tree[1])})^{tree[2]}"
    return f"({render_expr(tree[1])} {kind} {render_expr(tree[2])})"


# Probe points for the growth rate in W. The expressions use integers below
# ten and degrees below twenty, so one order of magnitude in W is never
# masked by coefficient size at these heights.
_W_LO = 10 ** 60
_W_HI = 10 ** 120


def growth_class(value_at):
    """zero / infinitesimal / finite / infinite from exact values at two huge W."""
    lo, hi = value_at(_W_LO), value_at(_W_HI)
    if lo == 0 and hi == 0:
        return "zero"
    decades = (_log10(abs(hi)) - _log10(abs(lo))) / 60.0
    degree = round(decades)
    if degree < 0:
        return "infinitesimal"
    if degree == 0:
        return "finite"
    return "infinite"


def _log10(x: Fraction) -> float:
    return (x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2.0) + \
        math.log10(_mantissa(x.numerator)) - math.log10(_mantissa(x.denominator))


def _mantissa(n: int) -> float:
    shift = max(n.bit_length() - 53, 0)
    return (n >> shift) / 2.0 ** (n.bit_length() - shift)


def element_value(elem, w):
    """Exact value of a canonical qstar element (num/den coefficient tuples) at W = w."""
    num = sum(c * w ** k for k, c in enumerate(elem.num))
    den = sum(c * w ** k for k, c in enumerate(elem.den))
    return Fraction(num, den)
