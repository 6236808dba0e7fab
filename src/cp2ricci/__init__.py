"""Curvature verification lab for hypersurface models of the complex
projective plane: a numerical engine working through the circle-fibration
lift to the unit 5-sphere, and an exact-rational symbolic engine for the
equality-case elimination."""

__version__ = "0.1.0"
