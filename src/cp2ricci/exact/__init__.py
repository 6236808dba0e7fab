"""Exact-rational polynomial engine: arithmetic, resultants, root counts,
and the symbolic verification suite."""
