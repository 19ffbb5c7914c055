"""Exact workbench for generating functionals of cocycles on finitely
presented group algebras and small star algebras with rewriting rules.

Everything is computed over Gaussian rationals, so every verdict is an
exact equality, never a float comparison.

The package exposes its modules; import names from them, for example
``from nlk.functionals import solve_generating_functional``.  The command
line lives in ``nlk.cli``.
"""

from . import (
    catalog,
    cocycles,
    decompose,
    functionals,
    linalg,
    presentations,
    reports,
    scalars,
    scenarios,
)

__all__ = [
    "catalog", "cocycles", "decompose", "functionals", "linalg",
    "presentations", "reports", "scalars", "scenarios",
]
