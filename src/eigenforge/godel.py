"""Prime-power codec between occupation distributions and positive integers.

A distribution (n_1, n_2, ...) maps to prod_m prime(m)^n_m, with mode 1
paired to the prime 2. The map is a bijection onto the positive integers by
unique factorization; Python ints keep it exact at any size. The definable
set below an energy cutoff is produced by exhaustive bounded enumeration, as
a read-only sequence of its CSV rows; for box modes, whose energies are
multiples of one step, it is only counted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import attrgetter, itemgetter

from .errors import DomainError, echo, require_int

_ENERGY_SLACK = 1e-12

# Largest prime index (mode number) the codec handles; prime(100 000) is
# 1 299 709. Above it nth_prime, encode and decode raise DomainError, so an
# integer with a huge prime factor cannot make the sieve grow without bound.
MAX_PRIME_INDEX = 100_000

# Largest number of states ``enumerate_definable`` lists. The count grows as
# C(K + n, n) in the number of modes n, so a short command line can ask for
# 10^15 states; the descent stops with DomainError at the first run of
# states that would pass this limit, before memory grows further. It bounds
# ``count_vs_box``'s additions too, which lists no state.
MAX_STATES = 1_000_000

# Largest size, in bits, of a Godel integer: the codec refuses a larger one.
# MAX_STATES bounds the count of states, not their size: one mode below a
# cutoff of 10^6 quanta lists the integers 2, 4, ..., 2^(10^6). The largest
# integer below the cutoff has at most (e_max + slack) max_m(log2 prime(m) /
# step_m) bits, within log2 prime(m) of that bound; past this limit the
# enumeration raises DomainError before it starts.
MAX_GODEL_BITS = 4096

# The primes found so far, at most MAX_PRIME_INDEX; ``nth_prime`` sieves to
# twice the largest, which holds a new one (Bertrand's postulate).
_PRIMES = [2, 3, 5, 7, 11, 13]


def nth_prime(m: int) -> int:
    """1-based: nth_prime(1) == 2. An index whose type is not exactly ``int``
    is refused by name."""
    if require_int(m, "prime index") < 1:
        raise DomainError("prime index is 1-based")
    if m > MAX_PRIME_INDEX:
        raise DomainError(f"prime index {m} exceeds MAX_PRIME_INDEX = {MAX_PRIME_INDEX}")
    while m > len(_PRIMES):
        limit = 2 * _PRIMES[-1]
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _PRIMES[:] = [i for i, flag in enumerate(sieve) if flag][:MAX_PRIME_INDEX]
    return _PRIMES[m - 1]


def occupation_counts(occupations: Sequence[int]) -> tuple[int, ...]:
    """The occupations as a tuple; each must be a nonnegative integer whose
    type is exactly ``int`` (a float or a bool is refused)."""
    out = tuple(occupations)
    for n in out:
        if type(n) is not int or n < 0:
            raise DomainError(f"occupation {echo(n)} must be a nonnegative integer")
    return out


def encode(occupations: Sequence[int]) -> int:
    """prod_m nth_prime(m) ** n_m; the empty (vacuum) sequence encodes to 1.
    Once the sum of n_m log2 prime(m) passes ``MAX_GODEL_BITS``, the
    occupation is refused before that power is computed."""
    occ = occupation_counts(occupations)
    if occ and occ[-1] == 0:
        raise DomainError("occupation sequence must be canonical (no trailing zeros)")
    value = 1
    bits = 0.0
    for m, n in enumerate(occ, start=1):
        if n:
            prime = nth_prime(m)
            if n > (MAX_GODEL_BITS - bits) / math.log2(prime):  # n may exceed every float
                raise DomainError(f"occupation {echo(n)} of mode {m} takes the integer past "
                                  f"MAX_GODEL_BITS = {MAX_GODEL_BITS} bits")
            bits += n * math.log2(prime)
            value *= prime ** n
    return value


def decode(value: int) -> tuple[int, ...]:
    """Exponent vector of the prime factorization, without trailing zeros.

    Trial division walks the table of primes found so far, and calls
    ``nth_prime`` only past its end, until the cofactor is 1, so the last
    exponent found is at least 1. An integer above 2^MAX_GODEL_BITS, or with
    a prime factor above prime(MAX_PRIME_INDEX), raises DomainError.
    """
    if type(value) is not int or value < 1:
        raise DomainError("only positive integers decode")
    if value > 1 << MAX_GODEL_BITS:
        raise DomainError(f"{value.bit_length()}-bit integer exceeds 2^MAX_GODEL_BITS")
    out: list[int] = []
    primes = _PRIMES  # nth_prime extends this list in place
    while value > 1:
        m = len(out)
        p = primes[m] if m < len(primes) else nth_prime(m + 1)
        count = 0
        while value % p == 0:
            value //= p
            count += 1
        out.append(count)
    return tuple(out)


class EnumeratedState(tuple):
    """A definable state as the tuple of its three CSV fields in column
    order: the Godel integer, the occupation text ``n1;n2;...`` without
    trailing zeros (empty for the vacuum) and the energy in ``%.17g``, which
    round-trips binary64. ``godel`` names the first field; ``occupations``
    parses the second on each read."""

    __slots__ = ()
    godel = property(itemgetter(0))

    @property
    def occupations(self) -> tuple[int, ...]:
        return tuple(map(int, self[1].split(";"))) if self[1] else ()


class DefinableStates(Sequence):
    """The states of one enumeration, read-only, sorted by their integers.

    Each state is stored as a plain tuple of its three CSV fields (integer,
    occupation text, energy text), which the cycle collector stops tracking
    at its first collection; an ``EnumeratedState`` instance, a tuple
    subclass, would stay tracked for its whole life, and every full
    collection would walk it. Indexing builds an ``EnumeratedState`` over the
    same fields when a state is read, a slice a list of them, and iteration
    indexes in turn. ``rows``, read-only, is the stored tuple of plain
    triples, which the CSV writer formats directly."""

    __slots__ = ("_rows",)
    rows = property(attrgetter("_rows"))

    def __init__(self, rows: tuple[tuple[int, str, str], ...]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(EnumeratedState, self._rows[index]))
        return EnumeratedState(self._rows[index])


def mode_energies(omegas: Sequence[float], h: float) -> list[float]:
    """The quantum h omega / 2pi of each mode; h and every frequency must be
    positive and finite, and so must each quantum."""
    if not h > 0:
        raise DomainError("h must be positive")
    if not math.isfinite(h):
        raise DomainError(f"h = {h!r} is not finite")
    energies = []
    for w in omegas:
        if not float(w) > 0:
            raise DomainError(f"frequency {w!r} must be positive")
        energy = h * float(w) / (2.0 * math.pi)
        if not math.isfinite(energy):
            raise DomainError(f"the quantum of frequency {w!r} at h = {h!r} is not finite")
        if not energy > 0:
            raise DomainError(f"the quantum of frequency {w!r} at h = {h!r} underflows to 0")
        energies.append(energy)
    return energies


def _cutoff(e_max: float) -> tuple[float, float]:
    """The relative slack of e_max and the cutoff e_max + slack that state
    energies are held to; e_max must be finite and nonnegative, and the
    cutoff finite."""
    if not (math.isfinite(e_max) and e_max >= 0):
        raise DomainError(f"e_max must be finite and nonnegative, got {e_max!r}")
    slack = _ENERGY_SLACK * (1.0 + abs(e_max))
    cutoff = e_max + slack
    if not math.isfinite(cutoff):
        raise DomainError(f"e_max = {e_max!r} overflows when padded by its relative "
                          f"slack {_ENERGY_SLACK!r}")
    return slack, cutoff


def enumerate_definable(omegas: Sequence[float], h: float, e_max: float) -> DefinableStates:
    """All occupation distributions with total energy <= e_max, sorted by their
    encoded integers.

    The result is finite for any finite cutoff: each mode's occupation is
    bounded by floor(e_max / (h omega_m / 2pi)). A depth-first descent steps
    only into modes that can still take a quantum and carries the encoded
    integer, the energy and the occupation text down: a quantum of mode m
    multiplies the integer by prime(m) and adds the mode energy, and a count
    follows the parent's text and ``0;`` up to mode m, so no state is encoded
    from scratch. Each distinct energy is formatted once, in a call-local
    table from energy to ``%.17g`` text, and the states that share an energy
    share its text; the spectrum of a string or a box, whose frequencies are
    multiples of one, has few distinct energies. The text of each count n
    comes from a table built once per call. Each state is one plain tuple
    of its three CSV fields, stored when its parent's loop reaches it, with
    every later mode empty, and the sorted rows are returned behind a
    ``DefinableStates`` view, which reads each as an ``EnumeratedState``; a
    work stack, not recursion, holds the states whose budget admits another
    quantum. Energies are summed in mode order. A
    cutoff that overflows when padded by its slack, more than ``MAX_STATES``
    states (tested once per run, the counts n = 1, 2, ... of one mode under
    one parent, before the run that would pass the limit), or a cutoff that
    admits an integer of more than ``MAX_GODEL_BITS`` bits, raise
    DomainError.

    A cutoff within rounding of a level can list some states of that exact
    energy and drop others, since each mode energy and each running sum round
    on their own: with L = 1, six box modes and e_max = 25.13274122869221
    (8 pi less its slack), 11 of the 20 states of 8 steps are listed, 55 in
    all, where ``count_vs_box`` counts 64.
    """
    slack, cutoff = _cutoff(e_max)
    energies = mode_energies(omegas, h)
    # Modes that hold a quantum at zero energy used; no other mode is ever
    # occupied, so only these need a prime.
    occupiable = [(m, step, nth_prime(m + 1)) for m, step in enumerate(energies)
                  if cutoff >= step]
    bits = cutoff * max((math.log2(prime) / step for _, step, prime in occupiable),
                        default=0.0)
    if bits > MAX_GODEL_BITS:
        size = f"up to {bits:.6g} bits, more" if math.isfinite(bits) else "more"
        raise DomainError(f"e_max = {e_max!r} admits Godel integers of {size} than "
                          f"MAX_GODEL_BITS = {MAX_GODEL_BITS} bits")
    # Each occupiable mode with the smallest mode energy after it: with less
    # budget left than that, no later mode takes a quantum.
    modes, lightest = [], math.inf
    for k in range(len(occupiable) - 1, -1, -1):
        modes.append((k, *occupiable[k], lightest))
        lightest = min(occupiable[k][1], lightest)
    modes.reverse()
    states = [(1, "", "0")]
    texts: dict[float, str] = {}
    # The text of every count a run can reach: no budget exceeds the cutoff,
    # no step is below the lightest, and MAX_GODEL_BITS bounds the largest.
    counts = [str(n) for n in range(int(cutoff // lightest) + 1)]
    room = MAX_STATES - 1  # states that may still be listed after the vacuum
    # Parents to descend into: (first index into modes, modes in text, energy, code, text, budget)
    stack = [(0, 0, 0.0, 1, "", cutoff)] if cutoff >= lightest else []
    while stack:
        first, length, used, value, text, budget = stack.pop()
        base = text + ";" if text else ""
        for k, m, step, prime, lighter in modes[first:]:
            top = int(budget // step)
            room -= top
            if room < 0:
                raise DomainError(
                    f"more than MAX_STATES = {MAX_STATES} states below e_max = {e_max!r}")
            head = base + "0;" * (m - length)
            code = value
            n = 0
            while n < top:
                n += 1
                code *= prime
                energy = used + n * step
                energy_text = texts.get(energy)
                if energy_text is None:
                    energy_text = texts[energy] = "%.17g" % energy
                occupation = head + counts[n]
                states.append((code, occupation, energy_text))
                rest = e_max - energy + slack
                if rest >= lighter:
                    stack.append((k + 1, m + 1, energy, code, occupation, rest))
    states.sort(key=itemgetter(0))
    return DefinableStates(tuple(states))


def count_vs_box(box_lengths: Sequence[float], e_max: float,
                 num_modes: int) -> list[tuple[float, int]]:
    """Definable-state counts for a family of box sizes, at h = 2 pi.

    Box modes have frequencies m pi / L for m = 1..num_modes, so larger boxes
    lower every mode energy and the count is non-decreasing in L. Mode m
    holds m steps of mode 1's energy, the only energy computed per length, so
    the states below ``enumerate_definable``'s cutoff are the partitions of
    k <= K = floor(cutoff / step) steps into parts of at most num_modes:
    counted by coin change, not listed, in min(num_modes, K) * K additions,
    and more than ``MAX_STATES`` of them raise DomainError. The count is the
    enumeration's length unless the cutoff lies within rounding of a level.
    A length that is not positive and finite, or so short that mode 1's
    energy overflows, is refused by that length.
    """
    lengths = [float(L) for L in box_lengths]
    for L in lengths:
        if not L > 0:
            raise DomainError("box lengths must be positive")
        if not math.isfinite(L):
            raise DomainError(f"box length {L!r} is not finite")
        # h omega_1 as mode_energies forms it, whose refusal would name a
        # frequency pi / L the caller never gave.
        if not math.isfinite(2.0 * math.pi * (math.pi / L)):
            raise DomainError(f"box length {L!r} is so short that mode 1's energy overflows")
    if sorted(lengths) != lengths:
        raise DomainError("box lengths must be ascending")
    if require_int(num_modes, "num_modes") < 1:
        raise DomainError("need at least one mode")
    _, cutoff = _cutoff(e_max)
    out = []
    for L in lengths:
        step = mode_energies([math.pi / L], 2.0 * math.pi)[0]
        levels = cutoff // step  # a float, which may pass the int range or be infinite
        additions = min(num_modes, levels) * levels
        if additions > MAX_STATES:
            size = (f"{additions:.6g} additions, more" if math.isfinite(additions)
                    else "more additions")
            raise DomainError(f"counting the states below e_max = {e_max!r} takes "
                              f"{size} than MAX_STATES = {MAX_STATES}")
        levels = int(levels)
        parts = min(num_modes, levels)
        ways = [1] + [0] * levels
        for m in range(1, parts + 1):
            for k in range(m, levels + 1):
                ways[k] += ways[k - m]
        out.append((L, sum(ways)))
    return out
