"""Sparse multivariate polynomials over exact rationals.

A monomial is one packed ``int``: ``_WIDTH``-bit fields hold, most significant
first, the total degree and the exponents of ``vars[0]``, ``vars[1]``, ...
Each field's top bit is a guard bit, zero in a stored monomial, so an exponent
or total degree is at most ``MAX_DEGREE = 2**(_WIDTH-1) - 1``; beyond it the
constructor, ``*``, ``**`` and ``subs_poly`` raise ``OverflowError`` instead of
wrapping into the next field, and a negative exponent is a ``ValueError``.  A
product or substitution checks its degree once, on its finished term map
before zero terms are dropped: no exponent field exceeds the total degree, so
while the total fits no field carries, and the largest key's top field is the
largest total degree made (and exceeds ``MAX_DEGREE`` whenever any does), even
if that term cancels.  Integer order is graded lexicographic order, a product
of monomials is a sum, and one borrow test on the guard bits decides
divisibility.  ``terms`` is keyed by packed monomials; the constructor takes,
and every query returns, exponent tuples.  Every stored coefficient is an ``int`` when integral and a reduced ``Fraction``
with denominator > 1 otherwise (``_coeff`` is applied wherever a coefficient
is created, and skipped for a product sum that is already an ``int``), so
integer polynomials never pay for Fraction arithmetic, and since
``Fraction(3) == 3`` structural equality is unaffected.  Every product, sum of
products and substitution takes one accumulation: ``sum_of_products``, or for
a monomial (a number included) one pass that moves exponents.  A polynomial is
evaluated on ``int`` when every value is one; ``constant_coeff`` returns a
constant as stored, ``constant_value`` and ``evaluate`` a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
Coeff = Fraction | int

_WIDTH = 16
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1
_FIELD = (1 << _WIDTH) - 1


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

    def constant_coeff(self) -> Coeff:
        """The constant as stored: an ``int`` when integral, else a Fraction."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)  # a constant packs to monomial 0

    def constant_value(self) -> Fraction:
        return Fraction(self.constant_coeff())

    def total_degree(self) -> int:
        return max(self.terms) >> (_WIDTH * len(self.vars)) if self.terms else -1

    def coefficients(self, name: str) -> list["MPoly"]:
        """Coefficients of ``name**0``, ``name**1``, ... up to the degree in
        ``name``, as polynomials in the same ring (empty for the zero
        polynomial); one pass over the terms."""
        s = self._shift(name)
        top = _WIDTH * len(self.vars)
        parts: dict[int, dict[int, Coeff]] = {}
        for m, c in self.terms.items():
            k = (m >> s) & _FIELD
            parts.setdefault(k, {})[m - (k << s) - (k << top)] = c
        return [MPoly._new(self.vars, parts.get(k, {})) for k in range(max(parts, default=-1) + 1)]

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in descending graded-lexicographic order."""
        n = len(self.vars)
        return [(_unpack(m, n), c) for m, c in sorted(self.terms.items(), reverse=True)]

    def leading_term(self) -> tuple[Exponents, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lead = max(self.terms)
        return _unpack(lead, len(self.vars)), self.terms[lead]

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
        return sum_of_products(self.vars, ((self, o, 1),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # Checked before any product: binary powering would otherwise build
        # every intermediate power, however large, before the first one fails.
        if self.total_degree() * n > MAX_DEGREE:
            raise OverflowError(f"power degree exceeds {MAX_DEGREE}")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MPoly.const(1, self.vars) if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({0: other} if other else {})  # a constant packs to 0
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
        """Substitute a polynomial or a number for a variable.  For a monomial
        c * x^e (a number: e = 0) each term's exponent k of ``name`` moves onto
        e, k times, and its coefficient is scaled by c^k; else sum(ck * value^k)."""
        v = self._coerce(value)
        if v is None:
            raise TypeError(f"cannot substitute {value!r}: not a polynomial or a rational")
        if len(v.terms) > 1:
            pairs = [(c, v**k, 1) for k, c in enumerate(self.coefficients(name)) if c.terms]
            return sum_of_products(self.vars, pairs)
        ((mv, cv),) = (v.terms or {0: 0}).items()  # zero is the monomial 0 * 1
        s = self._shift(name)
        top = _WIDTH * len(self.vars)
        step = mv - (1 << s) - (1 << top)  # one factor of name traded for the monomial
        out: dict[int, Coeff] = {}
        get = out.get
        for m, c in self.terms.items():
            k = (m >> s) & _FIELD
            if k:
                m += k * step
                c *= cv**k
            out[m] = get(m, 0) + c
        # One degree check on every moved key, cancelled ones included (module docstring).
        if max(out, default=0) >> top > MAX_DEGREE:
            raise OverflowError(f"substituted degree exceeds {MAX_DEGREE}")
        terms = {m: c if type(c) is int else _coeff(c) for m, c in out.items() if c}
        return MPoly._new(self.vars, terms)

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"no value for variables {missing}")
        vals = [x if type(x) is int else Fraction(x) for x in (point[v] for v in self.vars)]
        total: Coeff = 0
        for m, c in self.terms.items():
            t = c
            for x, k in zip(vals, _unpack(m, len(vals))):
                if k:
                    t *= x**k
            total += t
        return Fraction(total)

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


def sum_of_products(vars: tuple[str, ...], pairs: Iterable[tuple[MPoly, MPoly, int]]) -> MPoly:
    """sum(sign * a * b) over the (a, b, sign) in ``pairs``, in one term map."""
    top = _WIDTH * len(vars)
    out: dict[int, Coeff] = {}
    get = out.get
    for a, b, sign in pairs:
        if a.vars != vars or b.vars != vars:
            raise ValueError(f"mixed rings: {vars} vs {a.vars}, {b.vars}")
        a, b = a.terms, b.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            c1 = c1 if sign > 0 else -c1
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    # One degree check on every product key, cancelled ones included (module docstring).
    if max(out, default=0) >> top > MAX_DEGREE:
        raise OverflowError(f"product degree exceeds {MAX_DEGREE}")
    return MPoly._new(vars, {m: c if type(c) is int else _coeff(c) for m, c in out.items() if c})


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
    quotient: dict[int, Coeff] = {}
    if not tail:  # a monomial adds no terms, so p's may be divided in any order
        for m, c in p.terms.items():
            if ((m | guards) - lead_q) & guards != guards:
                return None
            quotient[m - lead_q] = _quo(c, c_q)
        return MPoly._new(p.vars, quotient)
    r = dict(p.terms)
    get = r.get
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
            s = get(m, 0) - t * c
            if s:
                r[m] = s if type(s) is int else _coeff(s)
            else:  # t * c != 0, so m was a key of r
                del r[m]
    return MPoly._new(p.vars, quotient)
