"""Sparse multivariate polynomials and polynomial fractions over exact rationals.

Exponent vectors are tuples over a fixed ordered variable set.  Every stored
coefficient is a Python ``int`` when it is integral and a reduced
``fractions.Fraction`` with denominator > 1 otherwise (``_coeff`` is applied
wherever a coefficient is created), so integer polynomials never pay for
Fraction arithmetic.  Equality is structural: same ring, same term map; it is
unaffected by the representation because ``Fraction(3) == 3`` and both print
as ``3``.  ``constant_value`` and ``content`` still return ``Fraction``, so
``1 / c`` stays exact.  The term order used for display and leading-term
queries is graded lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Mapping, Sequence

Exponents = tuple[int, ...]
Coeff = Fraction | int


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


def _grlex(exps: Exponents) -> tuple[int, Exponents]:
    return sum(exps), exps


class MPoly:
    """A polynomial in a fixed ordered set of variables.

    ``terms`` maps exponent tuples to nonzero coefficients in stored form
    (see the module docstring); zero coefficients are never stored, so
    structural equality is semantic equality.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Coeff] | None = None):
        self.vars = tuple(vars)
        clean: dict[Exponents, Coeff] = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} does not match {n} variables")
                if c != 0:
                    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
                    clean[tuple(exps)] = _coeff(c)
        self.terms = clean

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
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values()), 0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coeff_of(self, name: str, power: int) -> "MPoly":
        """Coefficient of ``name**power`` as a polynomial in the same ring."""
        i = self.vars.index(name)
        out: dict[Exponents, Coeff] = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                reduced = list(exps)
                reduced[i] = 0
                out[tuple(reduced)] = c
        return MPoly(self.vars, out)

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Exponents, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lead = max(self.terms, key=_grlex)
        return lead, self.terms[lead]

    def content(self) -> Fraction:
        """Rational content: gcd of coefficients, signed by the leading term."""
        if not self.terms:
            return Fraction(0)
        cs = self.terms.values()
        cont = Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))
        return cont if self.leading_term()[1] > 0 else -cont

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

    def __add__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in o.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = _coeff(s)
            else:
                out.pop(exps, None)
        p = MPoly.__new__(MPoly)
        p.vars = self.vars
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        p = MPoly.__new__(MPoly)
        p.vars = self.vars
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly.zero(self.vars)
            p = MPoly.__new__(MPoly)
            p.vars = self.vars
            p.terms = {e: _coeff(k * other) for e, k in self.terms.items()}
            return p
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Exponents, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        p = MPoly.__new__(MPoly)
        p.vars = self.vars
        p.terms = {e: _coeff(c) for e, c in out.items() if c}
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        i = self.vars.index(name)
        out: dict[Exponents, Coeff] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = list(exps)
            e[i] = k - 1
            out[tuple(e)] = c * k
        return MPoly(self.vars, out)

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
        for exps, c in self.terms.items():
            t = c
            for x, k in zip(vals, exps):
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
    lead_q, c_q = q.leading_term()
    deg_q = sum(lead_q)
    tail = [(sum(e), e, c) for e, c in q.terms.items() if e != lead_q]
    # The remainder is keyed by (degree, exponents), so max() is the leading term.
    r = {_grlex(e): c for e, c in p.terms.items()}
    quotient: dict[Exponents, Coeff] = {}
    while r:
        lead = max(r)
        shift = tuple(map(sub, lead[1], lead_q))
        if min(shift, default=0) < 0:
            return None
        t = quotient[shift] = _quo(r.pop(lead), c_q)
        d = lead[0] - deg_q
        for deg, e, c in tail:
            key = (deg + d, tuple(map(add, e, shift)))
            s = r.get(key, 0) - t * c
            if s:
                r[key] = _coeff(s)
            else:
                r.pop(key, None)
    out = MPoly.__new__(MPoly)
    out.vars = p.vars
    out.terms = quotient
    return out


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
