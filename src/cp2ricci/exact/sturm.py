"""Real-root counting for univariate rational polynomials via Sturm chains.

Polynomials are dense coefficient lists ``[c0, c1, ...]`` of Fractions
(index = power).  Counting is over the open interval (a, b); ``None``
endpoints stand for -infinity / +infinity.  The square-free part is taken
internally, so the count is of distinct real roots.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly

UPoly = list[Fraction]


def as_upoly(coeffs) -> UPoly:
    return _trim([Fraction(c) for c in coeffs])


def _trim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: UPoly) -> int:
    return len(p) - 1


def is_zero(p: UPoly) -> bool:
    return not p


def divmod_poly(p: UPoly, q: UPoly) -> tuple[UPoly, UPoly]:
    if is_zero(q):
        raise ZeroDivisionError("division by zero polynomial")
    r = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while not is_zero(_trim(r)) and degree(_trim(r)) >= dq:
        r = _trim(r)
        k = degree(r) - dq
        f = r[-1] / lead
        quo[k] = f
        for j, b in enumerate(q):
            r[k + j] -= f * b
        r = _trim(r)
    return _trim(quo), _trim(r)


def derivative(p: UPoly) -> UPoly:
    return _trim([c * k for k, c in enumerate(p)][1:])


def eval_at(p: UPoly, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def monic(p: UPoly) -> UPoly:
    if is_zero(p):
        return p
    return [c / p[-1] for c in p]


def gcd(p: UPoly, q: UPoly) -> UPoly:
    a, b = _trim(list(p)), _trim(list(q))
    while not is_zero(b):
        _, r = divmod_poly(a, b)
        a, b = b, r
    return monic(a)


def squarefree_part(p: UPoly) -> UPoly:
    if degree(p) < 1:
        return _trim(list(p))
    g = gcd(p, derivative(p))
    if degree(g) < 1:
        return _trim(list(p))
    quo, rem = divmod_poly(p, g)
    assert is_zero(rem)
    return quo


def sturm_chain(p: UPoly) -> list[UPoly]:
    chain = [list(p), derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if is_zero(r):
            break
        chain.append([-c for c in r])
    return [c for c in chain if not is_zero(c)]


def _sign_at(p: UPoly, x: Fraction | None, hi: bool) -> int:
    """Sign of p at the endpoint; x=None means the infinite endpoint."""
    if is_zero(p):
        return 0
    if x is not None:
        v = eval_at(p, x)
        return (v > 0) - (v < 0)
    lead = p[-1]
    s = (lead > 0) - (lead < 0)
    if hi:
        return s
    return s if degree(p) % 2 == 0 else -s


def _variations(chain: list[UPoly], x: Fraction | None, hi: bool) -> int:
    signs = [s for s in (_sign_at(p, x, hi) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(p, lo: Fraction | int | None = None, hi: Fraction | int | None = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    ps = squarefree_part(as_upoly(p))
    if degree(ps) < 1:
        return 0
    a = Fraction(lo) if lo is not None else None
    b = Fraction(hi) if hi is not None else None
    if a is not None and b is not None and a >= b:
        raise ValueError("empty interval")
    chain = sturm_chain(ps)
    count = _variations(chain, a, hi=False) - _variations(chain, b, hi=True)
    # Sturm counts (a, b]; the interval here is open on the right as well.
    if b is not None and eval_at(ps, b) == 0:
        count -= 1
    return count


def upoly_from_mpoly(p: MPoly, name: str) -> UPoly:
    """Extract a univariate coefficient list; p must involve only ``name``."""
    for v in p.vars:
        if v != name and p.degree_in(v) > 0:
            raise ValueError(f"polynomial is not univariate in {name}: involves {v}")
    d = p.degree_in(name)
    out = [Fraction(0)] * (d + 1 if d >= 0 else 0)
    for k in range(0, d + 1):
        c = p.coeff_of(name, k)
        if not c.is_zero():
            out[k] = c.constant_value()
    return _trim(out)
