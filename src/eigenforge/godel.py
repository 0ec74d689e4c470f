"""Prime-power codec between occupation distributions and positive integers.

A distribution (n_1, n_2, ...) maps to prod_m prime(m)^n_m, with mode 1
paired to the prime 2. The map is a bijection onto the positive integers by
unique factorization; Python ints keep it exact at any size. The definable
set below an energy cutoff is produced by exhaustive bounded enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .errors import DomainError

_ENERGY_SLACK = 1e-12

# Largest prime index (mode number) the codec handles; prime(100 000) is
# 1 299 709. Above it nth_prime, encode and decode raise DomainError, so an
# integer with a huge prime factor cannot make the sieve grow without bound.
MAX_PRIME_INDEX = 100_000

# Largest number of states ``enumerate_definable`` lists. The count grows as
# C(K + n, n) in the number of modes n, so a short command line can ask for
# 10^15 states; the descent stops with DomainError at the first state past
# this limit, before memory grows further.
MAX_STATES = 1_000_000

# Largest size, in bits, of a Godel integer ``enumerate_definable`` may list.
# MAX_STATES bounds the count of states, not their size: one mode below a
# cutoff of 10^6 quanta lists the integers 2, 4, ..., 2^(10^6). The largest
# integer below the cutoff has at most (e_max + slack) max_m(log2 prime(m) /
# step_m) bits, within log2 prime(m) of that bound; past this limit the
# enumeration raises DomainError before it starts.
MAX_GODEL_BITS = 4096


class _PrimeCache:
    """Growing sieve of Eratosthenes; indexable list of primes."""

    def __init__(self):
        self._primes = [2, 3, 5, 7, 11, 13]
        self._limit = 14

    def _grow(self):
        limit = self._limit * 2
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(math.isqrt(limit)) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        self._primes = [i for i, flag in enumerate(sieve) if flag][:MAX_PRIME_INDEX]
        self._limit = limit

    def nth(self, m: int) -> int:
        """1-based: nth(1) == 2."""
        while m > len(self._primes):
            if m > MAX_PRIME_INDEX:
                raise DomainError(
                    f"prime index {m} exceeds MAX_PRIME_INDEX = {MAX_PRIME_INDEX}"
                )
            self._grow()
        return self._primes[m - 1]


_PRIMES = _PrimeCache()


def nth_prime(m: int) -> int:
    if m < 1:
        raise DomainError("prime index is 1-based")
    return _PRIMES.nth(m)


def _validated(occupations: Sequence[int]) -> tuple[int, ...]:
    out = []
    for n in occupations:
        if int(n) != n or n < 0:
            raise DomainError(f"occupation {n!r} must be a nonnegative integer")
        out.append(int(n))
    if out and out[-1] == 0:
        raise DomainError("occupation sequence must be canonical (no trailing zeros)")
    return tuple(out)


def encode(occupations: Sequence[int]) -> int:
    """prod_m nth_prime(m) ** n_m; the empty (vacuum) sequence encodes to 1."""
    occ = _validated(occupations)
    value = 1
    for m, n in enumerate(occ, start=1):
        if n:
            value *= nth_prime(m) ** n
    return value


def decode(value: int) -> tuple[int, ...]:
    """Exponent vector of the prime factorization, trailing zeros removed.

    Trial division continues through successive primes until the cofactor is
    1; an integer with a prime factor above prime(MAX_PRIME_INDEX) raises
    DomainError.
    """
    if int(value) != value or value < 1:
        raise DomainError("only positive integers decode")
    value = int(value)
    out: list[int] = []
    m = 1
    while value > 1:
        p = nth_prime(m)
        count = 0
        while value % p == 0:
            value //= p
            count += 1
        out.append(count)
        m += 1
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True, slots=True)
class EnumeratedState:
    occupations: tuple[int, ...]
    godel: int
    energy: float


def mode_energies(omegas: Sequence[float], h: float) -> list[float]:
    if not h > 0:
        raise DomainError("h must be positive")
    energies = []
    for w in omegas:
        if not float(w) > 0:
            raise DomainError(f"frequency {w!r} must be positive")
        energies.append(h * float(w) / (2.0 * math.pi))
    return energies


def enumerate_definable(omegas: Sequence[float], h: float, e_max: float) -> list[EnumeratedState]:
    """All occupation distributions with total energy <= e_max, sorted by their
    encoded integers.

    The result is finite for any finite cutoff: each mode's occupation is
    bounded by floor(e_max / (h omega_m / 2pi)). A depth-first descent steps
    only into modes that can still take a quantum and carries the encoded
    integer and the energy down with it: each quantum of mode m multiplies
    the integer by prime(m) and adds the mode energy, so no state is encoded
    from scratch. A state is emitted where the descent enters it, with every
    later mode empty, so the recursion depth is the number of occupied modes
    plus one, however many modes there are. Energies are summed in mode
    order. More than ``MAX_STATES`` states, or a cutoff that admits an
    integer of more than ``MAX_GODEL_BITS`` bits, raise DomainError.
    """
    if not (math.isfinite(e_max) and e_max >= 0):
        raise DomainError(f"e_max must be finite and nonnegative, got {e_max!r}")
    energies = mode_energies(omegas, h)
    slack = _ENERGY_SLACK * (1.0 + abs(e_max))
    # Modes that hold a quantum at zero energy used; no other mode is ever
    # occupied, so only these need a prime.
    occupiable = [(m, step, nth_prime(m + 1)) for m, step in enumerate(energies)
                  if int((e_max + slack) // step) >= 1]
    bits = (e_max + slack) * max((math.log2(prime) / step for _, step, prime in occupiable),
                                 default=0.0)
    if bits > MAX_GODEL_BITS:
        raise DomainError(
            f"e_max = {e_max!r} admits Godel integers of up to {bits:.0f} bits, "
            f"more than MAX_GODEL_BITS = {MAX_GODEL_BITS}")
    # lightest[k]: the smallest mode energy from occupiable[k] on; with less
    # budget left than that, no later mode takes a quantum.
    lightest = [math.inf] * (len(occupiable) + 1)
    for k in range(len(occupiable) - 1, -1, -1):
        lightest[k] = min(occupiable[k][1], lightest[k + 1])
    states: list[EnumeratedState] = []
    occ = [0] * len(energies)

    def descend(first: int, length: int, used: float, value: int) -> None:
        if len(states) == MAX_STATES:
            raise DomainError(
                f"more than MAX_STATES = {MAX_STATES} states below e_max = {e_max!r}")
        states.append(EnumeratedState(tuple(occ[:length]), value, used))
        budget = e_max - used + slack
        if budget < lightest[first]:
            return
        for k in range(first, len(occupiable)):
            m, step, prime = occupiable[k]
            bound = int(budget // step)
            code = value
            for n in range(1, bound + 1):
                code *= prime
                occ[m] = n
                descend(k + 1, m + 1, used + n * step, code)
            occ[m] = 0

    descend(0, 0, 0.0, 1)
    states.sort(key=attrgetter("godel"))
    return states


def count_vs_box(box_lengths: Sequence[float], e_max: float, num_modes: int,
                 h: float = 2.0 * math.pi) -> list[tuple[float, int]]:
    """Definable-state counts for a family of box sizes.

    Box modes have frequencies m pi / L for m = 1..num_modes, so larger boxes
    lower every mode energy and the count is non-decreasing in L.
    """
    lengths = [float(L) for L in box_lengths]
    if any(not L > 0 for L in lengths):
        raise DomainError("box lengths must be positive")
    if sorted(lengths) != lengths:
        raise DomainError("box lengths must be ascending")
    if num_modes < 1:
        raise DomainError("need at least one mode")
    out = []
    for L in lengths:
        omegas = [m * math.pi / L for m in range(1, num_modes + 1)]
        out.append((L, len(enumerate_definable(omegas, h, e_max))))
    return out
