"""Codec tests: exhaustive round trips, enumeration, box counts."""

import ast
import gc
import hashlib
import math
import os
import subprocess
import sys
from collections.abc import Sequence
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenforge import godel, qstar, serialize
from eigenforge.errors import DomainError
from eigenforge.godel import (
    MAX_GODEL_BITS,
    MAX_PRIME_INDEX,
    EnumeratedState,
    count_vs_box,
    decode,
    encode,
    enumerate_definable,
    nth_prime,
)

TWO_PI = 2.0 * math.pi


def canonical_distributions(max_total, max_modes):
    """All canonical occupation tuples with sum <= max_total, <= max_modes modes."""
    out = [()]
    def rec(prefix, remaining, modes_left):
        for n in range(remaining + 1):
            cur = prefix + (n,)
            if cur and cur[-1] != 0:
                out.append(cur)
            if modes_left > 1:
                rec(cur, remaining - n, modes_left - 1)
    rec((), max_total, max_modes)
    # rec may add duplicates via different prefixes of trailing zeros; dedupe
    return sorted(set(out))


class TestPrimes:
    def test_first_primes(self):
        assert [nth_prime(m) for m in range(1, 8)] == [2, 3, 5, 7, 11, 13, 17]

    def test_demand_grows_cache(self):
        assert nth_prime(100) == 541

    def test_index_limit(self):
        assert nth_prime(MAX_PRIME_INDEX) == 1_299_709
        with pytest.raises(DomainError):
            nth_prime(MAX_PRIME_INDEX + 1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_index_is_one_based(self, m):
        with pytest.raises(DomainError, match="^prime index is 1-based$"):
            nth_prime(m)

    @pytest.mark.parametrize("m", [2.0, True], ids=["float", "bool"])
    def test_index_must_be_an_int(self, m):
        with pytest.raises(DomainError, match="^prime index must be an integer$"):
            nth_prime(m)


class TestEncode:
    def test_single_quantum(self):
        assert encode((1,)) == 2

    def test_two_one(self):
        assert encode((2, 1)) == 12

    def test_vacuum(self):
        assert encode(()) == 1

    def test_fourth_prime_mode(self):
        assert encode((0, 0, 0, 1)) == 7

    def test_non_canonical_rejected(self):
        with pytest.raises(DomainError):
            encode((1, 0))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            encode((-1,))

    # Neither a float, integral or not, nor a bool is an occupation.
    @pytest.mark.parametrize("occupation", [math.inf, math.nan, 2.0, True])
    def test_non_finite_rejected(self, occupation):
        with pytest.raises(DomainError, match="nonnegative integer"):
            encode((occupation,))

    def test_large_values_stay_exact(self):
        # sum 8 in the 5th mode: 11^8 exceeds 32-bit range; exactness matters
        assert encode((0, 0, 0, 0, 8)) == 11**8


class TestIntegerBound:
    # The codec's integers have at most MAX_GODEL_BITS bits: 2^MAX_GODEL_BITS
    # is inside, and a refusal comes before the power past the bound is built.
    def test_encode_at_and_past_the_bound(self):
        start = perf_counter()
        assert encode((MAX_GODEL_BITS,)) == 1 << MAX_GODEL_BITS
        assert encode((2048, 1292)) == 2**2048 * 3**1292  # 4095.8 bits
        for occ in [(MAX_GODEL_BITS + 1,), (MAX_GODEL_BITS, 1), (2048, 1293), (0, 0, 100_000_000),
                    (1_000_000,), (10**400,)]:
            with pytest.raises(DomainError, match="MAX_GODEL_BITS"):
                encode(occ)
        assert perf_counter() - start < 1.0

    def test_decode_at_and_past_the_bound(self):
        start = perf_counter()
        assert decode(1 << MAX_GODEL_BITS) == (MAX_GODEL_BITS,)
        for value in [(1 << MAX_GODEL_BITS) + 1, 3 ** MAX_GODEL_BITS]:
            with pytest.raises(DomainError, match="MAX_GODEL_BITS"):
                decode(value)
        assert perf_counter() - start < 1.0

    def test_enumerated_integers_are_inside_the_bound(self):
        # One mode of unit energy: the cutoff 4095 lists 2^0 .. 2^4095, and
        # the codec reads the largest back.
        states = enumerate_definable([1.0], TWO_PI, MAX_GODEL_BITS - 1.0)
        largest = states[-1]
        assert largest.godel == 1 << (MAX_GODEL_BITS - 1)
        assert decode(largest.godel) == largest.occupations
        assert encode(largest.occupations) == largest.godel


class TestDecode:
    def test_360(self):
        assert decode(360) == (3, 2, 1)

    def test_vacuum(self):
        assert decode(1) == ()

    def test_prime_beyond_small_table(self):
        assert decode(7) == (0, 0, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            decode(0)

    @pytest.mark.parametrize("value", [12.0, True], ids=["float", "bool"])
    def test_value_must_be_an_int(self, value):
        with pytest.raises(DomainError, match="^only positive integers decode$"):
            decode(value)

    def test_prime_factor_beyond_limit_rejected(self):
        # 1_000_000_007 is prime, far beyond prime(MAX_PRIME_INDEX); the sieve
        # must stop at the limit instead of growing to reach it.
        with pytest.raises(DomainError):
            decode(1_000_000_007)
        assert len(godel._PRIMES) <= MAX_PRIME_INDEX

    def test_encode_beyond_limit_rejected(self):
        with pytest.raises(DomainError):
            encode((0,) * MAX_PRIME_INDEX + (1,))

    def test_largest_allowed_index_round_trips(self):
        occ = (0,) * (MAX_PRIME_INDEX - 1) + (1,)
        assert encode(occ) == 1_299_709
        assert decode(1_299_709) == occ

    def test_large_prime_factor_resolves(self):
        assert decode(2 * 9973) == decode(2 * 9973)
        d = decode(2 * 9973)
        assert d[0] == 1 and d[-1] == 1 and sum(d) == 2

    def test_walk_past_the_table_extends_it(self, monkeypatch):
        # decode reads the table of primes found so far and sieves only past
        # its end: from the six-prime seed table it must reach prime(500),
        # and prime(MAX_PRIME_INDEX), as from a warm one.
        p = nth_prime(500)
        monkeypatch.setattr(godel, "_PRIMES", [2, 3, 5, 7, 11, 13])
        assert decode(2 * p) == (1,) + (0,) * 498 + (1,)
        assert decode(1_299_709) == (0,) * (MAX_PRIME_INDEX - 1) + (1,)
        assert len(godel._PRIMES) == MAX_PRIME_INDEX


class TestRoundTrips:
    def test_exhaustive_distributions(self):
        dists = canonical_distributions(8, 5)
        assert len(dists) == 1287
        seen = set()
        for d in dists:
            g = encode(d)
            assert decode(g) == d
            assert g not in seen
            seen.add(g)

    def test_exhaustive_integers(self):
        for g in range(1, 10001):
            assert encode(decode(g)) == g

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=8))
    @settings(max_examples=120)
    def test_random_round_trip(self, occ):
        while occ and occ[-1] == 0:
            occ.pop()
        assert decode(encode(tuple(occ))) == tuple(occ)


class TestEnumerate:
    def test_two_mode_example(self):
        states = enumerate_definable([1.0, 2.0], TWO_PI, 2.0)
        assert [s.godel for s in states] == [1, 2, 3, 4]
        by_godel = {s.godel: s.occupations for s in states}
        assert by_godel == {1: (), 2: (1,), 3: (0, 1), 4: (2,)}

    def test_zero_budget_vacuum_only(self):
        states = enumerate_definable([1.0, 2.0], TWO_PI, 0.0)
        assert len(states) == 1
        assert states[0].godel == 1

    def test_powers_of_two(self):
        states = enumerate_definable([1.0], TWO_PI, 3.0)
        assert [s.godel for s in states] == [1, 2, 4, 8]

    def test_monotone_in_cutoff(self):
        counts = [len(enumerate_definable([1.0, 2.0], TWO_PI, e)) for e in [0, 1, 2, 3, 4]]
        assert counts == sorted(counts)

    def test_energies_within_cutoff(self):
        e_max = 3.5
        for s in enumerate_definable([1.0, 2.0, 3.0], TWO_PI, e_max):
            assert float(s[2]) <= e_max + 1e-9

    def test_bad_frequency_rejected(self):
        with pytest.raises(DomainError):
            enumerate_definable([0.0], TWO_PI, 1.0)

    @pytest.mark.parametrize("omega, h, match", [
        (1.0, 0.0, "h must be positive"),
        (1.0, math.inf, "is not finite"),
        (math.pi / 1e10, 1e-320,
         r"^the quantum of frequency 3\.14159\d*e-10 at h = 1e-320 underflows to 0$"),
        (1e308, 4e10, r"^the quantum of frequency 1e\+308 at h = 40000000000\.0 is not finite$"),
    ], ids=["zero-h", "infinite-h", "underflowing-quantum", "overflowing-quantum"])
    def test_quantum_refusals(self, omega, h, match):
        with pytest.raises(DomainError, match=match):
            enumerate_definable([omega], h, 1.0)

    @pytest.mark.parametrize("e_max", [math.inf, math.nan, -1.0, sys.float_info.max])
    def test_cutoff_must_be_finite_and_nonnegative(self, e_max):
        # The largest float is finite, but padding it by its slack is not.
        with pytest.raises(DomainError, match="e_max"):
            enumerate_definable([1.0], TWO_PI, e_max)

    def test_state_limit(self, monkeypatch):
        # One mode of unit energy has n + 1 states below e_max = n: the limit
        # itself is listed, the first state past it raises.
        monkeypatch.setattr(godel, "MAX_STATES", 5)
        assert [s.godel for s in enumerate_definable([1.0], TWO_PI, 4.0)] == [1, 2, 4, 8, 16]
        with pytest.raises(DomainError, match="MAX_STATES = 5"):
            enumerate_definable([1.0], TWO_PI, 5.0)

    def test_leaves_no_reference_cycle(self, monkeypatch):
        # The result, and on the error path the partial list, must be freed
        # when the caller drops it, not left to the cycle collector.
        monkeypatch.setattr(godel, "MAX_STATES", 50)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert len(enumerate_definable([1.0, 1.3, 2.2], TWO_PI, 3.0)) == 8
            assert gc.collect() == 0
            with pytest.raises(DomainError, match="MAX_STATES = 50"):
                enumerate_definable([1.0, 1.3, 2.2], TWO_PI, 9.0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_size_limit(self, monkeypatch):
        # The largest integer below e_max holds all quanta in the mode of the
        # largest log2 prime(m) / step_m: 2^n for one unit mode, 5^n for three.
        monkeypatch.setattr(godel, "MAX_GODEL_BITS", 10)
        assert enumerate_definable([1.0], TWO_PI, 9.0)[-1].godel == 2 ** 9
        assert enumerate_definable([1.0, 1.0, 1.0], TWO_PI, 4.0)[-1].godel == 5 ** 4
        for omegas, e_max in (([1.0], 11.0), ([1.0, 1.0, 1.0], 5.0)):
            with pytest.raises(DomainError, match="MAX_GODEL_BITS = 10"):
                enumerate_definable(omegas, TWO_PI, e_max)

    def test_size_limit_checked_before_descent(self):
        # 10^6 states fit MAX_STATES, but the last of them is 2^999999.
        with pytest.raises(DomainError, match="999999 bits"):
            enumerate_definable([1.0], TWO_PI, 999_999.0)

    def test_many_modes_stay_shallow(self):
        # Mode energy 4 / 2pi: one quantum fits below 1, two do not. The
        # descent recurses once per occupied mode, not once per mode.
        omegas = [1.0] * 1200
        assert len(enumerate_definable(omegas, 4.0, 0.0)) == 1
        states = enumerate_definable(omegas, 4.0, 1.0)
        assert len(states) == 1201
        assert states[-1].occupations == (0,) * 1199 + (1,)
        assert states[-1].godel == nth_prime(1200)


class TestWorkloadLattice:
    """Twelve modes of energies 4, 5 and 6 (h = 2 pi), four of each: the shape
    of the benchmark's largest enumerations, whose runs of one mode's counts
    mix parents and leaves."""

    OMEGAS = [4.0] * 4 + [5.0] * 4 + [6.0] * 4

    @staticmethod
    def coin_change_count(weights, budget):
        """Occupations of the integer mode energies ``weights`` with total <= budget."""
        ways = [1] + [0] * budget
        for w in weights:
            for total in range(w, budget + 1):
                ways[total] += ways[total - w]
        return sum(ways)

    def test_descent(self):
        states = enumerate_definable(self.OMEGAS, TWO_PI, 28.5)
        assert len(states) == self.coin_change_count([4] * 4 + [5] * 4 + [6] * 4, 28) == 9454
        csv = serialize.enumeration_csv(states).encode()
        assert hashlib.sha256(csv).hexdigest() == (
            "da5b7486aa92d43adb099e5e269c5b8e252012af30b26cf6b56dd8bac4bfbac8")
        assert all(encode(s.occupations) == s.godel for s in states)

    def test_state_limit_at_a_run_boundary(self, monkeypatch):
        # The limit is tested once per run of one mode's counts, before the
        # run: the count reaching it exactly at the end of the last run is
        # listed, and one fewer raises.
        monkeypatch.setattr(godel, "MAX_STATES", 1341)
        assert len(enumerate_definable(self.OMEGAS, TWO_PI, 20.5)) == 1341
        monkeypatch.setattr(godel, "MAX_STATES", 1340)
        with pytest.raises(DomainError, match="more than MAX_STATES = 1340 states below "
                                              "e_max = 20.5"):
            enumerate_definable(self.OMEGAS, TWO_PI, 20.5)


def brute_force_definable(omegas, h, e_max):
    """Every distribution of at most `most` quanta, where `most` quanta of the
    lightest mode fill the cutoff; each is encoded from scratch and its energy
    summed in mode order, then kept when it lies below the cutoff."""
    steps = godel.mode_energies(omegas, h)
    limit = e_max + godel._ENERGY_SLACK * (1.0 + abs(e_max))
    most = int(limit // min(steps))
    found = []
    for total in range(most + 1):
        for modes in combinations_with_replacement(range(len(steps)), total):
            occ = [0] * len(steps)
            for m in modes:
                occ[m] += 1
            e = 0.0
            for n, step in zip(occ, steps):
                e += n * step
            if e <= limit:
                while occ and occ[-1] == 0:
                    occ.pop()
                found.append((tuple(occ), encode(occ), e))
    return sorted(found, key=lambda row: row[1])


def _exact_sum(omegas, h, occupations):
    e = 0.0
    for n, step in zip(occupations, godel.mode_energies(omegas, h)):
        e += n * step
    return e


class TestEnumerateOracle:
    """The descent against an independent scan: same states, same integers and
    bit-identical energies."""

    @staticmethod
    def check(omegas, h, e_max):
        got = [(s.occupations, s.godel, float(s[2])) for s in enumerate_definable(omegas, h, e_max)]
        assert got == brute_force_definable(omegas, h, e_max)
        return got

    def test_unsorted_frequencies(self):
        got = self.check([3.0, 1.0, 2.5, 0.7, 1.9], TWO_PI, 6.3)
        assert len(got) > 100

    def test_zero_cutoff(self):
        assert self.check([0.4, 1.3, 2.2], 1.7, 0.0) == [((), 1, 0.0)]

    def test_single_mode(self):
        got = self.check([0.37], 2.9, 4.1)
        assert [occ for occ, _, _ in got] == [()] + [(n,) for n in range(1, len(got))]

    def test_cutoff_on_a_state_energy(self):
        omegas, h = [0.1, 0.2, 0.7], TWO_PI
        e_max = _exact_sum(omegas, h, (3, 2, 1))
        got = self.check(omegas, h, e_max)
        assert ((3, 2, 1), encode((3, 2, 1)), e_max) in got

    def test_twelve_mode_lattice(self):
        weights = [5, 4, 6, 4, 6, 5, 4, 6, 5, 4, 5, 6]
        got = self.check([0.37 * w for w in weights], TWO_PI, 0.37 * 30)
        assert len(got) >= 10_000


class TestDefinableStates:
    """The read-only view an enumeration returns: plain stored rows, each read
    as an ``EnumeratedState``."""

    OMEGAS, E_MAX = [3.0, 1.0, 2.5, 0.7, 1.9], 6.3

    def expected(self):
        """The states built from the independent scan, one per row."""
        return [EnumeratedState((code, ";".join(map(str, occ)), "%.17g" % energy))
                for occ, code, energy in brute_force_definable(self.OMEGAS, TWO_PI, self.E_MAX)]

    def test_items_are_enumerated_states(self):
        states = enumerate_definable(self.OMEGAS, TWO_PI, self.E_MAX)
        expected = self.expected()
        assert len(states) == len(expected) > 100
        for i, want in enumerate(expected):
            got = states[i]
            assert type(got) is EnumeratedState and got == want
            assert (got.godel, got[1], got[2]) == tuple(want)
            assert got.occupations == want.occupations and float(got[2]) == float(want[2])
        assert states.rows == tuple(map(tuple, expected))
        assert all(type(row) is tuple for row in states.rows)

    def test_indexing_and_slices(self):
        states = enumerate_definable(self.OMEGAS, TWO_PI, self.E_MAX)
        expected = self.expected()
        n = len(states)
        assert states[-1] == expected[-1] and states[-n] == expected[0]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                states[index]
        for cut in (slice(None, 8), slice(-3, None), slice(1, None, 7), slice(n, None)):
            got = states[cut]
            assert got == expected[cut]
            assert all(type(s) is EnumeratedState for s in got)

    def test_iteration(self):
        states = enumerate_definable(self.OMEGAS, TWO_PI, self.E_MAX)
        items = list(states)
        assert items == self.expected() == list(states)  # iterates again
        assert all(type(s) is EnumeratedState for s in items)
        assert list(reversed(states)) == items[::-1]
        assert isinstance(states, Sequence)

    def test_rows_are_read_only(self):
        states = enumerate_definable(self.OMEGAS, TWO_PI, self.E_MAX)
        with pytest.raises(AttributeError):
            states.rows = ()
        with pytest.raises(TypeError):
            states.rows[0] = (1, "", "0")

    def test_rows_not_tracked_by_the_collector(self):
        # Plain tuples of ints and strings leave the collector's lists at
        # their first collection; a tuple subclass would stay in them.
        states = enumerate_definable(TestWorkloadLattice.OMEGAS, TWO_PI, 28.5)
        gc.collect()
        assert not any(map(gc.is_tracked, states.rows))
        assert gc.is_tracked(EnumeratedState(states.rows[0]))

    def test_field_result_repr_is_the_same_in_two_cold_runs(self):
        # A field pipeline's result (states, reports, spectrum, enumeration
        # rows) reprs without an object address, so two fresh processes print it alike.
        script = (
            "import math\n"
            "from eigenforge import action, godel, sigma_model\n"
            "from conftest import make_string_spec\n"
            "spec = make_string_spec()\n"
            "solved = [sigma_model.solve_state(spec, m.label, m.targets) for m in spec.modes]\n"
            "states = [s for s, _ in solved]\n"
            "alphas = [action.action_for_state(s) for s in states]\n"
            "spectrum = action.fit_spectrum([m.label for m in spec.modes], alphas)\n"
            "omegas = [s.omega for s in states]\n"
            "e_max = 2.0 * spectrum.h * max(omegas) / (2.0 * math.pi)\n"
            "rows = godel.enumerate_definable(omegas, spectrum.h, e_max).rows\n"
            "print(repr((solved, spectrum, rows)))\n"
        )
        path = [str(Path(godel.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert "((1, '', '0'), " in runs[0] and " at 0x" not in runs[0]


class TestCountVsBox:
    def test_zero_budget(self):
        assert count_vs_box([1.0], 0.0, 3) == [(1.0, 1)]

    def test_doubling_never_shrinks(self):
        counts = count_vs_box([1.0, 2.0, 4.0], 2.0, 4)
        values = [c for _, c in counts]
        assert values == sorted(values)

    def test_pi_box_matches_two_mode_example(self):
        counts = count_vs_box([math.pi], 2.0, 2)
        assert counts == [(math.pi, 4)]

    def test_descending_lengths_rejected(self):
        with pytest.raises(DomainError):
            count_vs_box([2.0, 1.0], 1.0, 2)

    # Lengths 0.5 to 8.3 by 0.71, cutoffs 0 to 12 by 1.2 and 3 pi, M in {1, 3, 6, 10}.
    GRID_LENGTHS = [0.5 + 7.8 * i / 11 for i in range(12)]
    GRID_EMAX = [1.2 * i for i in range(11)] + [3.0 * math.pi]

    @pytest.mark.parametrize("num_modes", [1, 3, 6, 10])
    def test_count_is_the_enumeration_length(self, num_modes):
        # The counts, never listed, against the listed states on a 12 x 12 grid.
        for e_max in self.GRID_EMAX:
            got = count_vs_box(self.GRID_LENGTHS, e_max, num_modes)
            want = [(L, len(enumerate_definable(
                [m * math.pi / L for m in range(1, num_modes + 1)], TWO_PI, e_max)))
                for L in self.GRID_LENGTHS]
            assert got == want, e_max

    def test_every_mode_gives_the_partition_sum(self):
        # With at least K modes every partition of k <= K steps is a state:
        # sum p(k), with p from Euler's pentagonal-number recurrence.
        p = [1]
        for n in range(1, 26):
            total, j = 0, 1
            while j * (3 * j - 1) // 2 <= n:
                sign = 1 if j % 2 else -1
                total += sign * p[n - j * (3 * j - 1) // 2]
                if j * (3 * j + 1) // 2 <= n:
                    total += sign * p[n - j * (3 * j + 1) // 2]
                j += 1
            p.append(total)
        assert sum(p) == 9296
        assert count_vs_box([1.0], 25 * math.pi, 25) == [(1.0, 9296)]
        assert count_vs_box([1.0], 25 * math.pi, 40) == [(1.0, 9296)]

    def test_cutoff_on_a_level(self):
        # Level 3 of step pi / 2 holds the three partitions of 3; just below
        # it, only the levels 0-2 count.
        level = 3 * math.pi / 2
        assert count_vs_box([2.0], level, 3) == [(2.0, 7)]
        assert count_vs_box([2.0], level * (1 - 1e-9), 3) == [(2.0, 4)]
        for e_max in (level, level * (1 - 1e-9)):
            assert count_vs_box([2.0], e_max, 3)[0][1] == len(
                enumerate_definable([m * math.pi / 2.0 for m in (1, 2, 3)], TWO_PI, e_max))

    def test_counts_past_the_listing_limit(self):
        # 3 705 839 states, more than MAX_STATES lists, in 8 * 76 additions.
        assert count_vs_box([8.0], 30.0, 8) == [(8.0, 3705839)]
        with pytest.raises(DomainError, match="MAX_STATES"):
            enumerate_definable([m * math.pi / 8.0 for m in range(1, 9)], TWO_PI, 30.0)

    def test_one_energy_per_length(self, monkeypatch):
        # Only mode 1's energy is read, so --modes costs no frequency list.
        sizes = []
        energies = godel.mode_energies

        def recording(omegas, h):
            sizes.append(len(omegas))
            return energies(omegas, h)

        monkeypatch.setattr(godel, "mode_energies", recording)
        assert count_vs_box([1.0, 2.0], 3.0, 50) == [(1.0, 1), (2.0, 2)]
        assert sizes == [1, 1]

    def test_additions_bounded_by_max_states(self, monkeypatch):
        # min(M, K) * K additions: 3 * 10 = 30 at L = 1, e_max = 10 pi.
        monkeypatch.setattr(godel, "MAX_STATES", 30)
        assert count_vs_box([1.0], 10 * math.pi, 3) == [(1.0, 67)]
        monkeypatch.setattr(godel, "MAX_STATES", 29)
        with pytest.raises(DomainError, match="takes 30 additions, more than MAX_STATES = 29"):
            count_vs_box([1.0], 10 * math.pi, 3)

    @pytest.mark.parametrize("lengths, e_max, num_modes, match", [
        ([0.0, 1.0], 1.0, 2, "box lengths must be positive"),
        ([1.0], 1.0, 0, "need at least one mode"),
        ([1.0], 3.0, 2.5, "^num_modes must be an integer$"),
        ([1.0], 3.0, True, "^num_modes must be an integer$"),
        ([1.0], -1.0, 2, "e_max must be finite and nonnegative"),
        ([1.0], math.inf, 2, "e_max must be finite and nonnegative"),
        ([1.0], sys.float_info.max, 2, "overflows when padded"),
        ([1e10], 1e300, 2, "takes more additions than MAX_STATES"),
        ([1.0], 1e300, 2, r"^counting the states below e_max = 1e\+300 takes 6\.3662e\+299 "
                          r"additions, more than MAX_STATES = 1000000$"),
    ], ids=["length", "modes", "float-modes", "bool-modes", "negative-emax", "infinite-emax", "overflowing-emax",
            "levels-past-float-range", "levels-past-int-range"])
    def test_refusals(self, lengths, e_max, num_modes, match):
        with pytest.raises(DomainError, match=match):
            count_vs_box(lengths, e_max, num_modes)


def _imported_modules(path):
    """Top-level names of the modules a source file imports, with the
    package-relative ones (``from .errors import ...``) followed into their files."""
    found, pending, seen = set(), [path], set()
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # within the package
                    names = [node.module] if node.module else [a.name for a in node.names]
                    pending.extend(path.parent / f"{name}.py" for name in names)
                else:
                    found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", [godel, qstar])
def test_exact_path_imports_no_numpy(module):
    # The codec, the enumeration and Q* are exact integer and string work, so
    # neither these modules nor the package modules they import use numpy.
    # This does not keep numpy out of the process: importing any of them runs
    # the package's __init__, which loads the numeric modules too.
    assert "numpy" not in _imported_modules(Path(module.__file__))
