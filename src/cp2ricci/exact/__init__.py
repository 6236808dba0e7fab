"""Exact-rational polynomial engine: arithmetic, resultants, root counts,
and the exact checks (the symbolic suite and the Hopf radii certificate)."""
