"""Ratio-field tests: canonical forms, the class trichotomy, both samenesses."""

import random
import re
from time import perf_counter

import pytest

from eigenforge.errors import DomainError
from eigenforge.qstar import (
    FINITE,
    INFINITE,
    INFINITESIMAL,
    OMEGA,
    ONE,
    ZERO,
    ZERO_CLASS,
    MAX_COEFF_BITS,
    MAX_POWER_DEGREE,
    QStarElement,
    classify,
    describe,
    element,
    equal,
    identical,
    _Parser,
    parse,
    standard_part,
)


def random_element(rng, max_degree=4, max_coeff=9):
    while True:
        num = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_degree + 1))]
        den = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_degree + 1))]
        if any(num) and any(den):
            return element(num, den)


class TestCanonicalForm:
    def test_common_factor_reduced(self):
        # (W^2 - 1)/(W - 1) reduces to W + 1
        e = element((-1, 0, 1), (-1, 1))
        assert e.num == (1, 1)
        assert e.den == (1,)

    def test_content_removed(self):
        e = element((2, 4), (6,))
        assert e.num == (1, 2)
        assert e.den == (3,)

    def test_denominator_leading_positive(self):
        e = element((1,), (-2,))
        assert e.den == (2,)
        assert e.num == (-1,)

    def test_zero_canonical(self):
        e = element((0,), (5, 3))
        assert e.num == (0,) and e.den == (1,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            element(1, 0)


class TestArith:
    def test_like_denominators(self):
        inv = ONE / OMEGA
        assert inv + inv == element(2) / OMEGA

    def test_inverse(self):
        assert OMEGA * (ONE / OMEGA) == ONE

    def test_common_denominator_subtraction(self):
        # (W+1)/W - 1 = 1/W
        e = (OMEGA + element(1)) / OMEGA - element(1)
        assert e == ONE / OMEGA

    def test_division_by_zero_rejected(self):
        with pytest.raises(DomainError):
            ONE / ZERO

    def test_field_laws_on_sample(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b, c = (random_element(rng) for _ in range(3))
            assert identical((a + b) + c, a + (b + c))
            assert identical(a * (b + c), a * b + a * c)
            assert identical(a + b, b + a)
            if not b.is_zero:
                assert identical((a / b) * b, a)


class TestClassify:
    def test_reciprocal_of_omega_infinitesimal(self):
        assert classify(ONE / OMEGA) == INFINITESIMAL

    def test_equal_degrees_finite(self):
        assert classify((OMEGA + element(1)) / OMEGA) == FINITE

    def test_degree_gap_infinite(self):
        assert classify(OMEGA * OMEGA / (OMEGA + element(3))) == INFINITE

    def test_zero_class(self):
        assert classify(ZERO) == ZERO_CLASS

    def test_trichotomy_on_seeded_sample(self):
        rng = random.Random(0)
        for _ in range(1000):
            e = random_element(rng)
            if e.is_zero:
                continue
            cls = classify(e)
            assert cls in (INFINITESIMAL, FINITE, INFINITE)

    def test_reciprocal_duality_on_seeded_sample(self):
        rng = random.Random(1)
        swap = {INFINITESIMAL: INFINITE, INFINITE: INFINITESIMAL, FINITE: FINITE}
        for _ in range(400):
            e = random_element(rng)
            if e.is_zero:
                continue
            assert classify(QStarElement(e.den, e.num)) == swap[classify(e)]


class TestEqualAndIdentical:
    def test_infinitesimally_close_to_one(self):
        e = (OMEGA + element(1)) / OMEGA
        assert equal(e, ONE)
        assert not identical(e, ONE)

    def test_distinct_finites_not_equal(self):
        assert not equal(ONE, element(2))

    def test_infinitesimal_equals_zero(self):
        assert equal(ONE / OMEGA, ZERO)

    def test_identical_cases(self):
        assert not identical((OMEGA + element(1)) / OMEGA, ONE)
        assert identical(element((0, 2), (0, 2)), ONE)
        assert identical(element((-1, 0, 1), (-1, 1)), OMEGA + element(1))
        assert identical(ZERO, element(0, 5))

    def test_identical_implies_equal_on_sample(self):
        rng = random.Random(2)
        sample = [random_element(rng) for _ in range(300)]
        for e in sample:
            copy = element(e.num, e.den)
            assert identical(e, copy)
            assert equal(e, copy)

    def test_equal_is_equivalence_relation(self):
        rng = random.Random(4)
        sample = [random_element(rng) for _ in range(100)]
        # reflexive + partition into classes via representatives
        reps = []
        labels = []
        for e in sample:
            assert equal(e, e)
            for idx, rep in enumerate(reps):
                if equal(e, rep):
                    labels.append(idx)
                    break
            else:
                reps.append(e)
                labels.append(len(reps) - 1)
        # pairwise: equal iff same class (gives symmetry and transitivity)
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                assert equal(sample[i], sample[j]) == (labels[i] == labels[j])
                assert equal(sample[j], sample[i]) == (labels[i] == labels[j])

    def test_infinitesimals_form_ideal(self):
        rng = random.Random(5)
        for _ in range(200):
            e = random_element(rng)
            if classify(e) != FINITE:
                continue
            tiny = ONE / (OMEGA * OMEGA - element((3, 1)))
            if classify(tiny) != INFINITESIMAL:
                continue
            assert classify(e * tiny) == INFINITESIMAL


class TestOrderingAndStandardPart:
    def test_standard_parts(self):
        assert standard_part((OMEGA + element(1)) / OMEGA) == 1
        assert str(standard_part(element((1, 2), (0, 3)))) == "2/3"
        assert standard_part(ONE / OMEGA) == 0
        assert standard_part(OMEGA) is None


class TestLexer:
    def test_every_token_class(self):
        # Digit runs, W in either case, the six operators and both parentheses.
        assert _Parser._lex("12+w-W*(3)/4^2") == [
            "12", "+", "W", "-", "W", "*", "(", "3", ")", "/", "4", "^", "2"]
        assert _Parser._lex("") == []

    @pytest.mark.parametrize("text", ["( W\t+ 1 )/W", "\n(W\r\n+1)\t/\vW\f",
                                      "(W\u00a0+\u20031)\u3000/W\u2028"])
    def test_any_whitespace_separates(self, text):
        assert identical(parse(text), (OMEGA + element(1)) / OMEGA)

    def test_whitespace_splits_a_number(self):
        assert _Parser._lex("1 2") == ["1", "2"]
        with pytest.raises(DomainError, match="trailing input at '2'"):
            parse("1 2")

    @pytest.mark.parametrize("text,bad", [("xW+1", "x"), ("W+x+1", "x"), ("W+1x", "x"),
                                          ("W\u00b72", "\u00b7"), ("W+\u00b2", "\u00b2"),
                                          ("W+1.5", "."), ("W\u00a0+\u00a0=", "=")])
    def test_bad_character_is_named(self, text, bad):
        with pytest.raises(DomainError, match=re.escape(f"unexpected character {bad!r}")):
            parse(text)

    def test_first_bad_character_is_named(self):
        with pytest.raises(DomainError, match="unexpected character 'x'"):
            parse("W+x+y")

    def test_double_star_is_not_a_power(self):
        with pytest.raises(DomainError, match=re.escape("unexpected token '*'")):
            parse("W**2")


class TestParseAndDescribe:
    def test_parse_ratio(self):
        e = parse("(W+1)/W")
        assert identical(e, (OMEGA + element(1)) / OMEGA)

    def test_parse_precedence(self):
        assert identical(parse("1+2*W"), element((1, 2)))
        assert identical(parse("-W/2"), element((0, -1), 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse("W +")
        with pytest.raises(DomainError):
            parse("(W")
        with pytest.raises(DomainError):
            parse("x+1")

    def test_exponent_limit(self):
        # No limit of its own: the degree and integer-size limits bound every
        # power, and each factor counts at least one bit, so 1^e, (-1)^e and
        # 0^e stop at MAX_COEFF_BITS factors.
        assert identical(parse(f"W^{MAX_POWER_DEGREE}"), element((0,) * MAX_POWER_DEGREE + (1,)))
        assert classify(parse("(W+1)^64/(W-1)^64")) == FINITE
        # The degree is printed exactly up to an exponent of MAX_COEFF_BITS.
        for text, size in ((f"W^{MAX_POWER_DEGREE + 1}", "129"),
                           (f"(W+1)^{MAX_COEFF_BITS}", str(MAX_COEFF_BITS)),
                           (f"W^{MAX_COEFF_BITS + 1}", "more than 128"),
                           ("W^100000", "more than 128"),
                           ("(W+1)^" + "9" * 2400, "more than 128")):
            with pytest.raises(DomainError,
                               match=f"^power of degree {size} exceeds MAX_POWER_DEGREE = 128$"):
                parse(text)
        assert identical(parse(f"2^{MAX_COEFF_BITS}"), element(2 ** MAX_COEFF_BITS))
        for base, value in (("1", 1), ("(-1)", 1), ("0", 0)):
            assert identical(parse(f"{base}^{MAX_COEFF_BITS}"), element(value))
        # A 2 400-digit exponent is compared exactly, never converted to a float.
        for text in (f"2^{MAX_COEFF_BITS + 1}", f"1^{MAX_COEFF_BITS + 1}", "(-1)^" + "9" * 2400,
                     "0^" + "9" * 2400, "1^" + "9" * 2400):
            with pytest.raises(DomainError, match="^power of .* bits exceeds MAX_COEFF_BITS$"):
                parse(text)

    def test_power_degree_limit(self):
        # Nested powers: each exponent is allowed, the result's degree is not.
        with pytest.raises(DomainError, match="MAX_POWER_DEGREE"):
            parse("((W+1)^64)^64")
        # The degree counts numerator and denominator: 3 * 43 > 128 >= 3 * 42.
        with pytest.raises(DomainError, match="MAX_POWER_DEGREE"):
            parse("((W+1)/W^2)^43")
        ratio = parse("((W+1)/W^2)^42")
        assert (len(ratio.num) - 1, len(ratio.den) - 1) == (42, 84)
        half = parse(f"(W+1)^{MAX_POWER_DEGREE // 2}")
        at_limit = parse(f"((W+1)^2)^{MAX_POWER_DEGREE // 2}")
        assert identical(at_limit, half * half)
        assert len(at_limit.num) - 1 == MAX_POWER_DEGREE

    def test_operation_degree_limit(self):
        # Written out factor by factor, 25 factors of degree 3 + 2 make 125;
        # the 26th would make 130.
        factor = "(W^3+3*W+1)/(W^2-7)"
        product = parse("*".join([factor] * 25))
        assert (len(product.num) - 1, len(product.den) - 1) == (75, 50)
        with pytest.raises(DomainError, match="MAX_POWER_DEGREE"):
            parse("*".join([factor] * 50))
        # Operands of total degree 128 combine; one more degree does not.
        ratio = f"(W+1)^{MAX_POWER_DEGREE // 2}/(W-1)^{MAX_POWER_DEGREE // 2}"
        assert len(parse(ratio).num) + len(parse(ratio).den) - 2 == MAX_POWER_DEGREE
        for op in "*/+-":
            with pytest.raises(DomainError, match="total degree 129"):
                parse(f"{ratio}{op}W")

    def test_coefficient_size_limit(self):
        # MAX_POWER_DEGREE does not see integer bases; each level of this
        # nesting is refused before it is built, so the whole takes well
        # under a second.
        start = perf_counter()
        assert parse("(2^64)^64") == element(2**4096)
        assert parse("(2^64/3)^64") == element(2**4096, 3**64)
        for expr in ["((2^64)^64)^64", "((((2^64)^64)^64)^64)^64", "(2^64*2^64*2)^64",
                     "(W/(3^41*3^41))^64"]:
            with pytest.raises(DomainError, match="MAX_COEFF_BITS"):
                parse(expr)
        assert perf_counter() - start < 1.0

    def test_operation_result_size_limit(self):
        # A product, quotient, sum or difference of in-bound powers is refused
        # before a coefficient past MAX_COEFF_BITS is built.
        assert parse("(2^64)^64*(2^64)^63") == element(2**8128)
        for expr in ["(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64",
                     "(2^64)^64/(1/(2^64)^64)",
                     "(2^64)^64/3+1/(2^64)^64",
                     "(2^64)^64/3-1/(2^64)^64"]:
            with pytest.raises(DomainError, match="MAX_COEFF_BITS"):
                parse(expr)

    def test_literal_size_limit(self):
        # d digits count d log2(10) bits: 2466 digits are inside 8192 bits, 2467 are not.
        assert MAX_COEFF_BITS == 8192
        assert parse("9" * 2466) == element(10**2466 - 1)
        for expr in ["9" * 2467, "W^" + "0" * 2467 + "1", "1" * 5000]:
            with pytest.raises(DomainError, match=r"literal of \d+ digits exceeds MAX_COEFF_BITS"):
                parse(expr)

    def test_power_equals_repeated_product(self):
        rng = random.Random(11)
        for _ in range(40):
            base = random_element(rng, max_degree=3)
            exponent = rng.randint(0, 6)
            product = ONE
            for _ in range(exponent):
                product = product * base
            powered = parse(f"({base})^{exponent}")
            assert identical(powered, product), (str(base), exponent)

    def test_deep_nesting_rejected(self):
        with pytest.raises(DomainError, match="nests too deeply"):
            parse("(" * 5000 + "W" + ")" * 5000)
        with pytest.raises(DomainError, match="nests too deeply"):
            parse("-" * 5000 + "W")

    def test_describe_near_one(self):
        assert describe(parse("(W+1)/W")) == "finite; equal to 1; not identical to 1"

    def test_describe_identical_rational(self):
        assert describe(parse("2/3")) == "finite; equal to 2/3; identical to 2/3"

    def test_describe_classes(self):
        assert describe(parse("1/W")) == "infinitesimal; equal to 0; not identical to 0"
        assert describe(parse("W*W/(W+3)")) == "infinite"
        assert describe(ZERO) == "zero; identical to 0"

    def test_str_round_trips_through_parse(self):
        rng = random.Random(6)
        for _ in range(100):
            e = random_element(rng)
            assert identical(parse(str(e)), e)
