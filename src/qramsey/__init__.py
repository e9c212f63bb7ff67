"""Finite search tools for partition patterns over the rationals.

The package answers questions of the form: color a finite window of
rationals with r colors; must some instantiation of a pattern family
(Schur triples, arithmetic progressions, product-shifted tuples, ...)
land inside a single color class?  It provides witness detection,
exhaustive avoidance search with certificates, CNF export, and a
regularity test for single linear equations.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .arith import format_polynomial, format_rational, parse_rational
from .certificates import (
    certificate_for_result,
    dumps_certificate,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .cnf import CnfInstance, export_cnf, import_assignment, parse_assignment, to_dimacs
from .colorings import Coloring
from .detector import CandidateTable, build_candidates, find_witness
from .patterns import (
    Family,
    Witness,
    builtin_family,
    instantiate,
    parse_family,
)
from .rado import (
    LinearSystem,
    columns_condition,
    cross_validate,
    parse_equation,
    system_to_family,
)
from .search import (
    AVOIDING,
    BUDGET_EXCEEDED,
    EXHAUSTED,
    SearchResult,
    search_avoiding,
    threshold_sweep,
    window_for_template,
)
from .windows import (
    FareyWindow,
    IntegerInterval,
    MultiplicativeGrid,
    Window,
    parse_window,
)

__all__ = [
    "__version__",
    "AVOIDING",
    "BUDGET_EXCEEDED",
    "CandidateTable",
    "CnfInstance",
    "Coloring",
    "EXHAUSTED",
    "Family",
    "FareyWindow",
    "IntegerInterval",
    "LinearSystem",
    "MultiplicativeGrid",
    "SearchResult",
    "Window",
    "Witness",
    "build_candidates",
    "builtin_family",
    "certificate_for_result",
    "columns_condition",
    "cross_validate",
    "dumps_certificate",
    "export_cnf",
    "find_witness",
    "format_polynomial",
    "format_rational",
    "import_assignment",
    "instantiate",
    "load_certificate",
    "parse_assignment",
    "parse_equation",
    "parse_family",
    "parse_rational",
    "parse_window",
    "search_avoiding",
    "system_to_family",
    "threshold_sweep",
    "to_dimacs",
    "verify_certificate",
    "window_for_template",
    "write_certificate",
]
