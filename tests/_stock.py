"""The stock families of the test suite: seven catalog keys, each read by
``builtin_family``.  Two pairs name one family: ``question-hs`` and
``bowen-sabok(1)``, ``moreira(1)`` and ``product-poly(1,[t])``."""

STOCK_KEYS = (
    "schur",
    "vdw(2)",
    "moreira(1)",
    "bowen-sabok(1)",
    "quotient-poly(1,[t])",
    "product-poly(1,[t])",
    "question-hs",
)
