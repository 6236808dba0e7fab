"""Sparse multivariate polynomials and polynomial fractions over exact rationals.

A monomial is one packed ``int``: ``_WIDTH``-bit fields hold, most significant
first, the total degree and the exponents of ``vars[0]``, ``vars[1]``, ...
Each field's top bit is a guard bit, zero in a stored monomial, so an exponent
or total degree is at most ``MAX_DEGREE = 2**(_WIDTH-1) - 1``; beyond it the
constructor, ``*`` and ``**`` raise ``OverflowError`` instead of wrapping into
the next field, and a negative exponent is a ``ValueError``.  Integer order is
graded lexicographic order, a product of monomials is a sum, and one borrow
test on the guard bits decides divisibility.  ``terms`` is keyed by packed
monomials; the constructor takes, and every query returns, exponent tuples.
Every stored coefficient is an ``int`` when integral and a reduced ``Fraction``
with denominator > 1 otherwise (``_coeff`` is applied wherever a coefficient
is created), so integer polynomials never pay for Fraction arithmetic, and
since ``Fraction(3) == 3`` structural equality is unaffected.
``constant_value`` and ``content`` still return ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Exponents = tuple[int, ...]
Coeff = Fraction | int

_WIDTH = 16
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1
_FIELD = (1 << _WIDTH) - 1


class ZeroDenominator(ZeroDivisionError):
    """A polynomial fraction was constructed with a zero denominator."""


def _coeff(c: Coeff) -> Coeff:
    """The stored form of a coefficient: int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _quo(a: Coeff, b: Coeff) -> Coeff:
    """Exact quotient of two stored coefficients, in stored form."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _coeff(Fraction(a, b))


def _pack(exps: Exponents) -> int:
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in {exps}")
    m = sum(exps)
    if m > MAX_DEGREE:
        raise OverflowError(f"total degree of {exps} exceeds {MAX_DEGREE}")
    for e in exps:
        m = (m << _WIDTH) | e
    return m


def _unpack(m: int, n: int) -> Exponents:
    return tuple((m >> (_WIDTH * (n - 1 - i))) & _FIELD for i in range(n))


class MPoly:
    """A polynomial in a fixed ordered set of variables.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    coefficients in stored form; zero coefficients are never stored, so
    structural equality is semantic equality.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Coeff] | None = None):
        self.vars = tuple(vars)
        clean: dict[int, Coeff] = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} does not match {n} variables")
                m = _pack(exps)
                if c != 0:
                    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
                    clean[m] = _coeff(c)
        self.terms = clean

    @staticmethod
    def _new(vars: tuple[str, ...], terms: dict[int, Coeff]) -> "MPoly":
        """A polynomial on packed terms already in stored form."""
        p = MPoly.__new__(MPoly)
        p.vars = vars
        p.terms = terms
        return p

    def _shift(self, name: str) -> int:
        """Bit offset of the exponent field of ``name``."""
        return _WIDTH * (len(self.vars) - 1 - self.vars.index(name))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MPoly":
        return MPoly(vars)

    @staticmethod
    def const(c: Coeff, vars: Sequence[str]) -> "MPoly":
        return MPoly(vars, {(0,) * len(tuple(vars)): c})

    @staticmethod
    def var(name: str, vars: Sequence[str]) -> "MPoly":
        vs = tuple(vars)
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return MPoly(vs, {tuple(e): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values()), 0))

    def total_degree(self) -> int:
        return max(self.terms) >> (_WIDTH * len(self.vars)) if self.terms else -1

    def degree_in(self, name: str) -> int:
        s = self._shift(name)
        return max(((m >> s) & _FIELD for m in self.terms), default=-1)

    def coeff_of(self, name: str, power: int) -> "MPoly":
        """Coefficient of ``name**power`` as a polynomial in the same ring."""
        s = self._shift(name)
        drop = (power << s) + (power << (_WIDTH * len(self.vars)))
        return MPoly._new(
            self.vars, {m - drop: c for m, c in self.terms.items() if (m >> s) & _FIELD == power}
        )

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in descending graded-lexicographic order."""
        n = len(self.vars)
        return [(_unpack(m, n), c) for m, c in sorted(self.terms.items(), reverse=True)]

    def leading_term(self) -> tuple[Exponents, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lead = max(self.terms)
        return _unpack(lead, len(self.vars)), self.terms[lead]

    def content(self) -> Fraction:
        """Rational content: gcd of coefficients, signed by the leading term."""
        if not self.terms:
            return Fraction(0)
        cs = self.terms.values()
        cont = Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))
        return cont if self.terms[max(self.terms)] > 0 else -cont

    def primitive_part(self) -> "MPoly":
        if not self.terms:
            return self
        return self * (1 / self.content())

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"mixed rings: {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other, self.vars)
        return None

    def _plus(self, other, negate: bool) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m, 0) + (-c if negate else c)
            if s:
                out[m] = _coeff(s)
            else:
                out.pop(m, None)
        return MPoly._new(self.vars, out)

    def __add__(self, other) -> "MPoly":
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._new(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self._plus(other, True)

    def __rsub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly.zero(self.vars)
            return MPoly._new(self.vars, {m: _coeff(k * other) for m, k in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.total_degree() + o.total_degree() > MAX_DEGREE:
            raise OverflowError(f"product degree exceeds {MAX_DEGREE}")
        out: dict[int, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return MPoly._new(self.vars, {m: _coeff(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if self.total_degree() * n > MAX_DEGREE:
            raise OverflowError(f"power degree exceeds {MAX_DEGREE}")
        result = MPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable term map

    # -- calculus and substitution -------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        s = self._shift(name)
        unit = (1 << s) + (1 << (_WIDTH * len(self.vars)))
        out: dict[int, Coeff] = {}
        for m, c in self.terms.items():
            k = (m >> s) & _FIELD
            if k:
                out[m - unit] = _coeff(c * k)
        return MPoly._new(self.vars, out)

    def subs_poly(self, name: str, value: "MPoly | Coeff") -> "MPoly":
        """Substitute a polynomial (or constant) for a variable."""
        if isinstance(value, (int, Fraction)):
            value = MPoly.const(value, self.vars)
        self._check_ring(value)
        d = self.degree_in(name)
        result = MPoly.zero(self.vars)
        for k in range(max(d, 0) + 1):
            ck = self.coeff_of(name, k)
            if ck.is_zero():
                continue
            result = result + ck * value**k
        return result

    def subs_rational(self, name: str, value: "RationalExpr") -> tuple["RationalExpr", int]:
        """Substitute a fraction for a variable, clearing denominators.

        Returns the resulting fraction together with the cleared power, i.e.
        the degree of the variable being eliminated (the denominator of the
        result is ``value.den`` raised to that power).
        """
        d = max(self.degree_in(name), 0)
        num = MPoly.zero(self.vars)
        for k in range(d + 1):
            ck = self.coeff_of(name, k)
            if ck.is_zero():
                continue
            num = num + ck * value.num**k * value.den ** (d - k)
        return RationalExpr(num, value.den**d), d

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"no value for variables {missing}")
        vals = [Fraction(point[v]) for v in self.vars]
        total = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for x, k in zip(vals, _unpack(m, len(vals))):
                if k:
                    t *= x**k
            total += t
        return total

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, exps):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def variables(names: str | Sequence[str]) -> tuple[MPoly, ...]:
    """Generators of the polynomial ring with the given ordered variables."""
    vs = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(MPoly.var(v, vs) for v in vs)


def exact_divide(p: MPoly, q: MPoly) -> MPoly | None:
    """Exact polynomial division: the quotient if q divides p, else None.

    Divides by leading terms in graded-lexicographic order.  A single
    polynomial q is a Groebner basis of the ideal (q), so the remainder of
    this division is zero exactly when q divides p (Cox-Little-O'Shea,
    *Ideals, Varieties, and Algorithms*, sections 2.3-2.5); a leading
    monomial of the remainder that q's does not divide is already a nonzero
    remainder term, so the division stops there.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(q)
    lead_q = max(q.terms)
    c_q = q.terms[lead_q]
    guards = ((1 << _WIDTH * (len(p.vars) + 1)) - 1) // _FIELD << (_WIDTH - 1)
    tail = [(m, c) for m, c in q.terms.items() if m != lead_q]
    r = dict(p.terms)
    quotient: dict[int, Coeff] = {}
    while r:
        lead = max(r)
        # Every field of lead_q fits under the matching field of lead exactly
        # when no subtraction borrows its guard bit.
        if ((lead | guards) - lead_q) & guards != guards:
            return None
        shift = lead - lead_q
        t = quotient[shift] = _quo(r.pop(lead), c_q)
        for m, c in tail:
            m += shift
            s = r.get(m, 0) - t * c
            if s:
                r[m] = _coeff(s)
            else:
                r.pop(m, None)
    return MPoly._new(p.vars, quotient)


@dataclass(frozen=True)
class RationalExpr:
    """A quotient of two polynomials with a nonzero denominator.

    Normalized so that the denominator has content one and a positive
    leading coefficient; reduced to a polynomial when the denominator
    divides the numerator exactly.
    """

    num: MPoly
    den: MPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if isinstance(den, (int, Fraction)):
            den = MPoly.const(den, num.vars)
        if isinstance(num, (int, Fraction)):
            num = MPoly.const(num, den.vars)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        num._check_ring(den)
        cont = den.content()
        num = num * (1 / cont)
        den = den * (1 / cont)
        if not den.is_constant():
            q = exact_divide(num, den)
            if q is not None:
                num, den = q, MPoly.const(1, den.vars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MPoly:
        if not self.is_polynomial():
            raise ValueError("denominator is not constant")
        return self.num * (1 / self.den.constant_value())

    def _coerce(self, other) -> "RationalExpr | None":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, MPoly):
            return RationalExpr(other, MPoly.const(1, other.vars))
        if isinstance(other, (int, Fraction)):
            return RationalExpr(MPoly.const(other, self.vars), MPoly.const(1, self.vars))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpr(self.num * o.den, self.den * o.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den) == (o.num * self.den)

    def subs_rational(self, name: str, value: "RationalExpr") -> "RationalExpr":
        n, _ = self.num.subs_rational(name, value)
        d, _ = self.den.subs_rational(name, value)
        return RationalExpr(n.num * d.den, n.den * d.num)

    def __repr__(self) -> str:
        if self.is_polynomial():
            return repr(self.as_poly())
        return f"({self.num!r}) / ({self.den!r})"
