"""Finite search tools for partition patterns over the rationals.

The package answers questions of the form: color a finite window of
rationals with r colors; must some instantiation of a pattern family
(Schur triples, arithmetic progressions, product-shifted tuples, ...)
land inside a single color class?  It provides witness detection,
exhaustive avoidance search with certificates, CNF export, and a
regularity test for single linear equations.  Each name is imported from
the module that defines it, as in ``from qramsey.search import
search_avoiding``; the package itself holds only ``__version__``.
"""

from __future__ import annotations

__version__ = "0.1.0"
