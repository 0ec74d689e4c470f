"""Exact arithmetic on ratios of integer polynomials in a formal infinite W.

An element num/den models a ratio of (possibly infinite) integers: W stands
for an arbitrary integer larger than every ordinary one, so classification is
decided by degree comparison, since W dominates any finite bound. Two notions of
sameness coexist: ``identical`` (exactly the same canonical ratio) and
``equal`` (difference at most infinitesimal). Canonical form divides out the
polynomial gcd and integer content and makes the denominator's leading
coefficient positive, so identity is plain tuple equality.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .errors import DomainError

ZERO_CLASS = "zero"
INFINITESIMAL = "infinitesimal"
FINITE = "finite"
INFINITE = "infinite"

IntPoly = tuple[int, ...]

# Largest degree of a power, product, quotient, sum or difference ``parse``
# builds, counted as numerator degree plus denominator degree: the base's
# times the exponent for a power, the sum of the two operands' for the other
# operations. Without it nested powers such as ((W+1)^64)^64 multiply the
# degree by 64 per level, and a product written out factor by factor grows
# with the text. At this degree the gcd that puts a power of a
# small-coefficient base in canonical form takes about 0.1 s, and it grows
# steeply with the degree.
MAX_POWER_DEGREE = 128

# Largest size, in bits, of an integer ``parse`` reads or builds, judged
# before it is built: d log2(10) for a literal of d digits; for base^e,
# e log2(max(2, s)), s the larger sum of |coefficient| of the base's numerator
# and denominator, which bounds every coefficient of the power, with at least
# one bit per factor, so that 1^e, (-1)^e and 0^e, whose degree is 0, are
# bounded too and no exponent builds more than this many factors; for + - * /,
# a bound on the coefficients of the unreduced result (see ``_Parser._apply``).
# (2^64)^64 is inside, (2^64)^64*(2^64)^64 is not.
MAX_COEFF_BITS = 8192


def _trim(c: Sequence[int]) -> IntPoly:
    out = [int(v) for v in c] or [0]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _is_zero(c: IntPoly) -> bool:
    return c == (0,)


def _add(a: IntPoly, b: IntPoly) -> IntPoly:
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _neg(a: IntPoly) -> IntPoly:
    return tuple(-v for v in a)


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if _is_zero(a) or _is_zero(b):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _content(a: IntPoly) -> int:
    return math.gcd(*a) or 1


def _primitive(a: IntPoly) -> IntPoly:
    g = _content(a)
    return tuple(v // g for v in a)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Fraction-free remainder of a by b (deg a >= deg b, b nonzero)."""
    a = list(a)
    lead_b = b[-1]
    while len(a) >= len(b) and a != [0]:
        shift = len(a) - len(b)
        lead_a = a[-1]
        a = [v * lead_b for v in a]
        for i, v in enumerate(b):
            a[shift + i] -= lead_a * v
        a = list(_trim(a))
    return tuple(a)


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of two nonzero polynomials, leading coefficient positive."""
    a, b = _primitive(a), _primitive(b)
    if len(a) == 1 or len(b) == 1:
        return (1,)
    while not _is_zero(b):
        if len(a) < len(b):
            a, b = b, a
            continue
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r) if not _is_zero(r) else (0,)
    if a[-1] < 0:
        a = _neg(a)
    return a


def _div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact polynomial division; a must be a nonzero polynomial multiple of b."""
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(out) - 1, -1, -1):
        coef, extra = divmod(rem[k + len(b) - 1], b[-1])
        if extra:
            raise DomainError("inexact polynomial division")
        out[k] = coef
        for i, v in enumerate(b):
            rem[k + i] -= coef * v
    if any(rem):
        raise DomainError("inexact polynomial division")
    return _trim(out)


@dataclass(frozen=True)
class QStarElement:
    """Canonical ratio num/den of integer polynomials in W.

    Negation and + - * / take and give elements only (``element`` builds one
    from ints). There is no order: ``classify``, ``equal`` and ``identical``
    compare by degree and by canonical form."""

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        num, den = _trim(self.num), _trim(self.den)
        if _is_zero(den):
            raise DomainError("denominator must not be the zero polynomial")
        if _is_zero(num):
            num, den = (0,), (1,)
        else:
            g = _gcd(num, den)
            if g != (1,):
                num, den = _div_exact(num, g), _div_exact(den, g)
            c = math.gcd(_content(num), _content(den))
            num = tuple(v // c for v in num)
            den = tuple(v // c for v in den)
            if den[-1] < 0:
                num, den = _neg(num), _neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.num)

    def __add__(self, other):
        return QStarElement(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)),
            _mul(self.den, other.den),
        )

    def __neg__(self):
        return QStarElement(_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return QStarElement(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero:
            raise DomainError("division by the zero element")
        return QStarElement(_mul(self.num, other.den), _mul(self.den, other.num))

    def __str__(self):
        num = _format_poly(self.num)
        if self.den == (1,):
            return num
        num_s = num if (len(self.num) == 1 or _term_count(self.num) == 1) else f"({num})"
        den = _format_poly(self.den)
        den_s = den if (len(self.den) == 1 or _term_count(self.den) == 1) else f"({den})"
        return f"{num_s}/{den_s}"


def _term_count(c: IntPoly) -> int:
    return sum(1 for v in c if v)


def _format_poly(c: IntPoly) -> str:
    if _is_zero(c):
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        v = c[k]
        if v == 0:
            continue
        if k == 0:
            body = str(abs(v))
        else:
            w = "W" if k == 1 else f"W^{k}"
            body = w if abs(v) == 1 else f"{abs(v)}*{w}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if v > 0 else f"-{body}")
    return "".join(parts)


def element(num, den=1) -> QStarElement:
    """Build from ints or ascending coefficient sequences."""
    num_t = (num,) if isinstance(num, int) else tuple(num)
    den_t = (den,) if isinstance(den, int) else tuple(den)
    return QStarElement(num_t, den_t)


ZERO = element(0)
ONE = element(1)
OMEGA = element((0, 1))


def classify(a: QStarElement) -> str:
    """Degree comparison realizes the bounded/unbounded quantifiers: W beats
    every finite threshold, so deg num < deg den means smaller than any 1/k."""
    if a.is_zero:
        return ZERO_CLASS
    dn, dd = len(a.num) - 1, len(a.den) - 1
    if dn < dd:
        return INFINITESIMAL
    if dn == dd:
        return FINITE
    return INFINITE


def _difference_numerator(a: QStarElement, b: QStarElement) -> IntPoly:
    """Numerator of a - b over the denominator a.den * b.den, not reduced."""
    return _add(_mul(a.num, b.den), _neg(_mul(b.num, a.den)))


def equal(a: QStarElement, b: QStarElement) -> bool:
    """True when the difference is zero or infinitesimal.

    Works on the unreduced difference: canceling a common factor lowers the
    numerator and denominator degrees by the same amount, so the degree gap
    that decides the class needs no gcd reduction.
    """
    diff_num = _difference_numerator(a, b)
    if _is_zero(diff_num):
        return True
    diff_den_degree = (len(a.den) - 1) + (len(b.den) - 1)
    return len(diff_num) - 1 < diff_den_degree


def identical(a: QStarElement, b: QStarElement) -> bool:
    """True when the canonical ratios coincide exactly (ratio one); both-zero
    counts as identical by convention."""
    return a.num == b.num and a.den == b.den


def standard_part(a: QStarElement) -> Fraction | None:
    """The ordinary rational an element is equal to; None for infinite ones."""
    cls = classify(a)
    if cls in (ZERO_CLASS, INFINITESIMAL):
        return Fraction(0)
    if cls == FINITE:
        return Fraction(a.num[-1], a.den[-1])
    return None


def describe(a: QStarElement) -> str:
    """Classification sentence used by the command-line front end."""
    cls = classify(a)
    if cls == ZERO_CLASS:
        return "zero; identical to 0"
    if cls == INFINITE:
        return "infinite"
    s = standard_part(a)
    target = element(s.numerator, s.denominator)
    relation = "identical" if identical(a, target) else "not identical"
    return f"{cls}; equal to {s}; {relation} to {s}"


def _coeff_bits(c: IntPoly) -> int:
    return max(map(abs, c)).bit_length()


_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive-descent parser for integers, W, + - * / ^ and parentheses."""

    def __init__(self, text: str):
        self.tokens = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        """Runs of decimal digits and single non-space characters, w read as W."""
        tokens = re.findall(r"\d+|\S", text.replace("w", "W"))
        for tok in tokens:
            if not (tok.isdecimal() or tok in "W+-*/()^"):
                raise DomainError(f"unexpected character {tok!r} in expression")
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise DomainError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> QStarElement:
        value = self._expr()
        if self._peek() is not None:
            raise DomainError(f"trailing input at {self._peek()!r}")
        return value

    @staticmethod
    def _apply(lhs: QStarElement, op: str, rhs: QStarElement) -> QStarElement:
        """lhs op rhs, refused when the result's degree could pass
        MAX_POWER_DEGREE or a coefficient could pass MAX_COEFF_BITS. Both are
        judged before the operation: a coefficient of a product of polynomials
        has at most the bits of the two factors' largest coefficients plus
        log2 of the shorter one's coefficient count, and a sum one bit more."""
        degree = sum(len(e.num) + len(e.den) - 2 for e in (lhs, rhs))
        if degree > MAX_POWER_DEGREE:
            raise DomainError(
                f"operands of total degree {degree} exceed MAX_POWER_DEGREE = {MAX_POWER_DEGREE}")
        if op == "*":
            products = ((lhs.num, rhs.num), (lhs.den, rhs.den))
        elif op == "/":
            products = ((lhs.num, rhs.den), (lhs.den, rhs.num))
        else:
            products = ((lhs.num, rhs.den), (rhs.num, lhs.den), (lhs.den, rhs.den))
        bits = max(_coeff_bits(a) + _coeff_bits(b) + math.log2(min(len(a), len(b)))
                   for a, b in products) + (op in "+-")
        if bits > MAX_COEFF_BITS:
            raise DomainError(f"{op!r} result of {bits:.0f} bits exceeds MAX_COEFF_BITS")
        return _OPERATIONS[op](lhs, rhs)

    def _expr(self) -> QStarElement:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            value = self._apply(value, op, self._term())
        return value

    def _term(self) -> QStarElement:
        value = self._unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            value = self._apply(value, op, self._unary())
        return value

    def _unary(self) -> QStarElement:
        if self._peek() == "-":
            self._take()
            return -self._unary()
        return self._power()

    def _power(self) -> QStarElement:
        base = self._atom()
        if self._peek() == "^":
            self._take()
            exp_tok = self._take()
            if not exp_tok.isdigit():
                raise DomainError("exponent must be a nonnegative integer")
            exponent = self._literal(exp_tok)
            degree = (len(base.num) + len(base.den) - 2) * exponent
            if degree > MAX_POWER_DEGREE:
                # Exact up to the exponent the bits refusal below prints exactly, so
                # the line stays short.
                size = degree if exponent <= MAX_COEFF_BITS else f"more than {MAX_POWER_DEGREE}"
                raise DomainError(
                    f"power of degree {size} exceeds MAX_POWER_DEGREE = {MAX_POWER_DEGREE}")
            # At least one bit per factor, so an exponent past MAX_COEFF_BITS
            # is refused without being converted to a float.
            bits = min(exponent, MAX_COEFF_BITS + 1) * math.log2(
                max(2, sum(map(abs, base.num)), sum(map(abs, base.den))))
            if bits > MAX_COEFF_BITS:
                size = (f"{bits:.0f}" if exponent <= MAX_COEFF_BITS
                        else f"more than {MAX_COEFF_BITS}")
                raise DomainError(f"power of {size} bits exceeds MAX_COEFF_BITS")
            # The base is canonical, so num^e and den^e need one reduction, not e.
            num, den = (1,), (1,)
            for _ in range(exponent):
                num, den = _mul(num, base.num), _mul(den, base.den)
            return QStarElement(num, den)
        return base

    def _atom(self) -> QStarElement:
        tok = self._take()
        if tok == "(":
            inner = self._expr()
            if self._take() != ")":
                raise DomainError("missing closing parenthesis")
            return inner
        if tok == "W":
            return OMEGA
        if tok.isdigit():
            return element(self._literal(tok))
        raise DomainError(f"unexpected token {tok!r}")

    @staticmethod
    def _literal(tok: str) -> int:
        if len(tok) * math.log2(10) > MAX_COEFF_BITS:
            raise DomainError(f"literal of {len(tok)} digits exceeds MAX_COEFF_BITS")
        return int(tok)


def parse(text: str) -> QStarElement:
    """Parse an expression; powers and operations of degree above
    ``MAX_POWER_DEGREE``, literals, powers, sums, differences, products and
    quotients that could hold a coefficient of more than ``MAX_COEFF_BITS``
    bits and nesting deeper than the interpreter's recursion limit raise
    DomainError."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise DomainError("expression nests too deeply") from None
