"""Real-root counting by Sturm chains on ``MPoly``.

``sturm_count(p, name, lo, hi)`` counts the distinct real roots of p, a
polynomial in the variable ``name`` alone, over the open interval (lo, hi);
``None`` endpoints stand for -infinity / +infinity.  There is no second
polynomial type: the chain runs on p's ascending ``MPoly`` coefficient list
(``MPoly.coefficients``).  It is p, p', and then minus the pseudo-remainder of
the two members before (``resultant._pseudo_remainder``, the step of the
subresultant PRS) times the sign of lc^(deg a - deg b + 1), so that each
member is a positive multiple of minus the Euclidean remainder.  The last
member is then a constant multiple of gcd(p, p'); when it is not constant, p
is replaced by its square-free part p / gcd and the chain is built again.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly, exact_divide
from .resultant import _pseudo_remainder


def _chain(c: list[MPoly]) -> list[list[MPoly]]:
    """Sturm chain of the ascending coefficient list c, deg c >= 1."""
    chain = [c, [k * c[k] for k in range(1, len(c))]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_remainder(a, b)
        if not r:
            break
        # r = lc(b)^(deg a - deg b + 1) * rem; that power is negative exactly
        # when lc(b) < 0 and the exponent is odd.
        negative = b[-1].constant_value() < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(r if negative else [-x for x in r])
    return chain


def _value(c: list[MPoly], x: Fraction) -> Fraction:
    """Value at x by Horner's rule."""
    v = Fraction(0)
    for ck in reversed(c):
        v = v * x + ck.constant_value()
    return v


def _variations(chain: list[list[MPoly]], x: Fraction | None, plus_inf: bool) -> int:
    """Sign changes along the chain at x; x = None is +infinity when
    ``plus_inf``, else -infinity, where the sign is that of the leading
    coefficient, flipped at -infinity for odd degree."""
    signs = []
    for c in chain:
        if x is not None:
            v = _value(c, x)
        else:
            v = c[-1].constant_value() * (1 if plus_inf or len(c) % 2 else -1)
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_count(
    p: MPoly, name: str, lo: Fraction | int | None = None, hi: Fraction | int | None = None
) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    c = p.coefficients(name)
    if not all(ck.is_constant() for ck in c):
        raise ValueError(f"polynomial is not univariate in {name}")
    a = Fraction(lo) if lo is not None else None
    b = Fraction(hi) if hi is not None else None
    if a is not None and b is not None and a >= b:
        raise ValueError("empty interval")
    if len(c) < 2:
        return 0
    chain = _chain(c)
    if len(chain[-1]) > 1:
        x = MPoly.var(name, p.vars)
        gcd = sum((ck * x**k for k, ck in enumerate(chain[-1])), MPoly.zero(p.vars))
        q = exact_divide(p, gcd)
        if q is None:
            raise ArithmeticError("gcd(p, p') does not divide p")
        chain = _chain(q.coefficients(name))
    count = _variations(chain, a, False) - _variations(chain, b, True)
    # Sturm counts (a, b]; the interval here is open on the right as well.
    if b is not None and _value(chain[0], b) == 0:
        count -= 1
    return count
