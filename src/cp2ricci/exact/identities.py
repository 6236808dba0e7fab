"""Named polynomial identities behind the equality-case elimination.

The shape operator of an equality-case hypersurface point is encoded by the
scalars beta, gamma, mu (off-diagonal entry, holomorphic diagonal entry, and
constant third principal value) together with the connection scalars kappa1,
kappa3.  Every constant below is one display of the elimination chain; they
are kept in a single auditable file, and the suite in ``checks`` validates
them against each other, so a transcription slip in any one constant is
caught by the derivative and resultant consistency checks.

All polynomials live in the five-variable ring (beta, gamma, mu, kappa1,
kappa3); the connection scalars simply have exponent zero where they do not
occur.  A closed form that is a fraction is stored as its numerator over the
common denominator ``D_DENOM``.
"""

from __future__ import annotations

from .mpoly import variables

RING_VARS = ("beta", "gamma", "mu", "kappa1", "kappa3")

BETA, GAMMA, MU, KAPPA1, KAPPA3 = variables(RING_VARS)

# Recurring combinations: the denominator (mu-gamma)^2 + beta^2 of all
# closed forms, and the shifted norm beta^2 + gamma^2 - 1.
D_DENOM = (MU - GAMMA) ** 2 + BETA**2
_S = BETA**2 + GAMMA**2 - 1

# Linear relations pinning down kappa1, kappa3.
KAPPA_RELATION_A = BETA * KAPPA1 + (MU - GAMMA) * KAPPA3 - _S
KAPPA_RELATION_B = (MU - GAMMA) * KAPPA1 - BETA * KAPPA3

# Their closed-form solutions, kappa1 = KAPPA1_CLOSED / D_DENOM and
# kappa3 = KAPPA3_CLOSED / D_DENOM.
KAPPA1_CLOSED = BETA * _S
KAPPA3_CLOSED = (MU - GAMMA) * _S

# Derivatives of beta and gamma along the third frame direction, after the
# closed forms are inserted (numerators over D_DENOM).
E3_BETA = ((MU - 2 * GAMMA) * MU + BETA**2 + 1) * D_DENOM - (MU - GAMMA) ** 2 * _S
E3_GAMMA = BETA * (GAMMA + 2 * MU) * D_DENOM + (GAMMA - MU) * BETA * _S

# The combined curvature relation with the connection scalars eliminated:
# COEFF_DBETA * e3(beta) + COEFF_DGAMMA * e3(gamma) + TAIL = 0.
GAUSS_COEFF_DBETA = (3 * BETA**2 + GAMMA**2 - 1) * D_DENOM - 2 * BETA**2 * _S
GAUSS_COEFF_DGAMMA = 2 * BETA * GAMMA * D_DENOM + 2 * (MU - GAMMA) * BETA * _S
GAUSS_TAIL = (
    -2 * MU * GAMMA * D_DENOM**2
    - BETA**2 * _S**2
    + (GAMMA**2 - MU**2) * _S * D_DENOM
    - 4 * D_DENOM**2
)

# The obstruction polynomial: the relation above factors as
# (mu - gamma) * F_POLY once the derivative rules are substituted.
F_POLY = (
    2 * MU * GAMMA**4
    - (4 * MU**2 - 1) * GAMMA**3
    + (3 * MU**2 + 4 * BETA**2 - 6) * MU * GAMMA**2
    - (MU**4 + (4 * BETA**2 - 7) * MU**2 - BETA**2 - 1) * GAMMA
    + (BETA**2 - 2) * MU**3
    + (2 * BETA**4 - 2 * BETA**2 - 1) * MU
)

# Differentiating F_POLY = 0 along the third frame direction yields this
# degree-six companion (after the overall beta factor is removed).
F_E3_DERIVED = (
    8 * MU * GAMMA**6
    - (24 * MU**2 - 4) * GAMMA**5
    + (30 * MU**2 + 24 * BETA**2 - 15) * MU * GAMMA**4
    - (20 * MU**4 + (48 * BETA**2 + 3) * MU**2 - 8 * BETA**2 - 3) * GAMMA**3
    + (7 * MU**5 + (36 * BETA**2 + 45) * MU**3 + (24 * BETA**4 - 10 * BETA**2 - 2) * MU) * GAMMA**2
    - (
        MU**6
        + (12 * BETA**2 + 44) * MU**4
        + (24 * BETA**4 + 19 * BETA**2 + 2) * MU**2
        - 4 * BETA**4
        - 3 * BETA**2
        + 1
    )
    * GAMMA
    + (BETA**2 + 13) * MU**5
    + (6 * BETA**4 + 19 * BETA**2 + 1) * MU**3
    + (8 * BETA**6 + 5 * BETA**4 - 2 * BETA**2 + 1) * MU
)

# Eliminating gamma between F_POLY and F_E3_DERIVED must produce exactly this
# factored form, which forces mu into {0, 1} once beta != 0.
RESULTANT_TARGET = (
    202500 * (MU**2 - 1) ** 4 * BETA**4 * MU**6 * (4 * MU**2 * BETA**2 + (MU**2 - 1) ** 2) ** 2
)

# Reduced system on the mu = 1 branch.
MU1_QUADRATIC = 2 * BETA**2 + 2 * GAMMA**2 + GAMMA - 3
MU1_MIDDLE_QUAD = 16 * GAMMA**2 - 4 * GAMMA + 3
MU1_TAIL_QUAD = 8 * GAMMA**2 + 12 * GAMMA + 15
MU1_QUARTIC = (
    8 * BETA**4 + 16 * BETA**2 * GAMMA**2 + 8 * GAMMA**4 - 4 * BETA**2 * GAMMA - 4 * GAMMA**3
    + 3 * BETA**2 - GAMMA**2 - 18 * GAMMA + 15
)

# Reduction on the mu = 0 branch.
MU0_PRODUCT = GAMMA * (BETA**2 + GAMMA**2 + 1)
