"""Exact workbench for generating functionals of cocycles on finitely
presented group algebras and small star algebras with rewriting rules.

Everything is computed over Gaussian rationals, so every verdict is an
exact equality, never a float comparison.

The package exposes its modules; import names from them, for example
``from nlk.functionals import solve_generating_functional``.  The command
line lives in ``nlk.cli``.  ``import nlk`` loads no module; each one is
imported on first access, as in ``nlk.catalog.ENTRIES``.
"""

import importlib

__all__ = [
    "catalog", "cocycles", "decompose", "functionals", "linalg",
    "presentations", "reports", "scalars", "scenarios",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
