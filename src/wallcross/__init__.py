"""Exact wall-and-chamber toolkit for moduli of log Fano products.

The package root is a namespace: it re-exports nothing, so importing one
module loads only what that module imports.  Import each name from the
module that owns it, e.g. ``from wallcross.wallsets import load_registry``.

Modules:
  errors       the WallcrossError types that every library error derives from
  exactq       exact rationals and fractional-linear reparametrizations
  wallsets     per-family wall registries on the unit interval
  arrangement  axis-parallel product chamber complexes and their diagrams
  stackalg     symbolic moduli descriptors and finite groupoid models
  invariants   dimension / volume / Hilbert-polynomial calculus for products
  gitwalls     independent re-derivation of the degree-3 slope walls
  cli          command-line front end
"""

__version__ = "0.1.0"
