"""Serializable certificates for search outcomes.

Two kinds.  A lower-bound certificate carries an avoiding coloring and is
re-verified by ``find_witness`` without a table: the detector joins the
family once per color class of the coloring and builds no candidate table.
An upper-bound certificate records that the search tree was exhausted:
the parameters, the node count and a hash of the decision trace.  At desk
scale re-running the search is cheaper than checking a proof log, so an upper
bound is checked only by a re-run; without one it is reported as not checked.

Format 3 marks upper bounds found with smallest-domain-first branching.  The
node count and the trace hash follow the branching order, and the hash is
now the plain SHA-256 of the decision trace.  Format 1 (an old split over
threads, whose counts depended on the split) and format 2 (static order)
upper bounds cannot be re-run to the same counts, so they are rejected and
have to be regenerated with a fresh search.  A search split over processes
gives the sequential count and hash, so that split has no format of its
own.  Lower bounds kept their layout, so they are still written and read as
format 1.

``certificate_for_result`` builds either kind from a decided SearchResult;
the caller decides where it goes (the command line writes one for
``search`` and for each decided ``sweep`` row).  ``family_flags`` holds
exactly parse_family's three flags, and any other key is rejected: a
misspelt flag would otherwise verify a different family.

The JSON layout is stable and fully ordered; byte-identical output for
identical inputs is part of the contract, so no timestamps or volatile fields
go in.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, NamedTuple

from . import __version__
from .colorings import Coloring
from .detector import find_witness
from .patterns import Witness, parse_family
from .search import AVOIDING, EXHAUSTED, SearchResult, search_avoiding
from .windows import parse_window

FORMAT_VERSION = 3
LOWER_BOUND_FORMAT = 1

LOWER_BOUND = "lower-bound"
UPPER_BOUND = "upper-bound"
# the keys of "family_flags": parse_family's keyword arguments
FAMILY_FLAGS = ("allow_offsets", "require_distinct_values", "strict_nonzero_x")
_SHA256 = re.compile(r"[0-9a-f]{64}")


def certificate_for_result(result: SearchResult) -> dict:
    """The certificate of a decided SearchResult: a lower bound for an
    avoiding coloring, an upper bound for an exhausted tree."""
    if result.outcome == AVOIDING:
        version, kind, evidence = LOWER_BOUND_FORMAT, LOWER_BOUND, {
            "coloring": list(result.coloring.colors),
        }
    elif result.outcome == EXHAUSTED:
        version, kind, evidence = FORMAT_VERSION, UPPER_BOUND, {
            "exhaustion": {"nodes": result.nodes, "proof_log_hash": result.proof_log_hash},
        }
    else:
        raise ValueError(f"no certificate for outcome {result.outcome!r}")
    family = result.family
    return {
        "format_version": version,
        "tool_version": __version__,
        "kind": kind,
        "family": family.serialize(),
        "family_flags": {
            "allow_offsets": family.has_offsets(),
            "require_distinct_values": family.require_distinct_values,
            "strict_nonzero_x": family.strict_nonzero_x,
        },
        "window": result.window_spec,
        "r": result.r,
        **evidence,
    }


def dumps_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def write_certificate(cert: dict, directory: str, stem: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{stem}.{cert['kind']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_certificate(cert))
    return path


def _field(record: dict, name: str, kind: type) -> Any:
    # Exact types, so that true and false are not integers.
    if name not in record:
        raise ValueError(f"certificate missing field {name!r}")
    value = record[name]
    if type(value) is not kind:
        raise ValueError(
            f"certificate field {name!r} must be {kind.__name__}, not {type(value).__name__}"
        )
    return value


def check_certificate(cert: Any) -> None:
    """Raise ValueError unless ``cert`` has the fields, field types and value
    ranges of its kind: r >= 1, and for an upper bound nodes >= 0 and a
    SHA-256 hex digest."""
    if type(cert) is not dict:
        raise ValueError(f"certificate must be a JSON object, not {type(cert).__name__}")
    version = _field(cert, "format_version", int)
    kind = _field(cert, "kind", str)
    _field(cert, "family", str)
    _field(cert, "window", str)
    if _field(cert, "r", int) < 1:
        raise ValueError(f"certificate field 'r' must be at least 1, not {cert['r']}")
    if kind == UPPER_BOUND and version < FORMAT_VERSION:
        raise ValueError(
            f"format {version} upper-bound certificates are no longer accepted: the "
            "branching order of the search changed; re-run `qramsey search` to "
            "regenerate the certificate"
        )
    if kind not in (LOWER_BOUND, UPPER_BOUND):
        raise ValueError(f"unknown certificate kind {kind!r}")
    if version != (LOWER_BOUND_FORMAT if kind == LOWER_BOUND else FORMAT_VERSION):
        raise ValueError(f"unsupported certificate format {version}")
    if "tool_version" in cert:
        _field(cert, "tool_version", str)
    flags = _field(cert, "family_flags", dict) if "family_flags" in cert else {}
    for name in flags:
        if name not in FAMILY_FLAGS:
            raise ValueError(f"unknown family flag {name!r} in certificate")
        _field(flags, name, bool)
    if kind == LOWER_BOUND:
        if any(type(c) is not int for c in _field(cert, "coloring", list)):
            raise ValueError("certificate field 'coloring' must hold integers only")
    else:
        ex = _field(cert, "exhaustion", dict)
        if _field(ex, "nodes", int) < 0:
            raise ValueError(f"certificate field 'nodes' must not be negative, not {ex['nodes']}")
        if not _SHA256.fullmatch(_field(ex, "proof_log_hash", str)):
            raise ValueError("certificate field 'proof_log_hash' must be 64 lowercase hex digits")


def load_certificate(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    check_certificate(cert)
    return cert


class VerificationResult(NamedTuple):
    ok: bool
    message: str
    witness: Witness | None = None
    checked: bool = True  # False when the claim was not tested at all


def verify_certificate(cert: dict, rerun: bool = False) -> VerificationResult:
    """Check a certificate; a malformed one raises ValueError.

    Lower bounds are checked by the detector's per-color join over the
    stored coloring.  With rerun=True an upper bound's search is repeated
    and must exhaust again with the same node count and trace hash.  Without
    a re-run the claim is untested, so the result is not ok and has
    checked=False.
    """
    check_certificate(cert)
    family = parse_family(cert["family"], **cert.get("family_flags", {}))
    window = parse_window(cert["window"])
    r = cert["r"]
    if cert["kind"] == LOWER_BOUND:
        coloring = Coloring(window, cert["coloring"], r)
        witness = find_witness(family, coloring)
        if witness is None:
            return VerificationResult(True, "coloring avoids the family")
        return VerificationResult(
            False,
            f"coloring has a monochromatic instance at x={witness.x}, y={witness.y}",
            witness,
        )
    if not rerun:
        return VerificationResult(
            False,
            "upper bound not checked: it was not re-run (use --rerun)",
            checked=False,
        )
    ex = cert["exhaustion"]
    res = search_avoiding(family, window, r)
    if res.outcome != EXHAUSTED:
        return VerificationResult(False, f"re-run outcome was {res.outcome}")
    if res.proof_log_hash != ex["proof_log_hash"]:
        return VerificationResult(False, "re-run decision trace hash differs")
    if res.nodes != ex["nodes"]:
        return VerificationResult(
            False, f"re-run took {res.nodes} nodes, the certificate says {ex['nodes']}"
        )
    return VerificationResult(True, "re-run exhausted with matching trace hash")
