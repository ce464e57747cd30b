"""Exact wall-and-chamber toolkit for moduli of log Fano products.

Modules:
  exactq       exact rationals and fractional-linear reparametrizations
  wallsets     per-family wall registries on the unit interval
  arrangement  axis-parallel product chamber complexes and their diagrams
  stackalg     symbolic moduli descriptors and finite groupoid models
  invariants   dimension / volume / Hilbert-polynomial calculus for products
  gitwalls     independent re-derivation of the degree-3 slope walls
  cli          command-line front end
"""

from .exactq import MoebiusMap, format_rational, parse_rational
from .wallsets import FamilyRecord, WallSet, load_registry

__version__ = "0.1.0"

__all__ = [
    "FamilyRecord",
    "MoebiusMap",
    "WallSet",
    "format_rational",
    "load_registry",
    "parse_rational",
    "__version__",
]
