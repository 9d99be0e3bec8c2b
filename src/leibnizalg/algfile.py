"""JSON documents describing structure-constant tables.

A document looks like

    {
      "format_version": 1,
      "field": {"kind": "prime_field", "p": 3},
      "dim": 2,
      "basis_names": ["e1", "e2"],
      "table": [[[0, 0], [1, 0]], [[2, 0], [0, 0]]]
    }

where table[i][j] lists the coefficients of the product of basis vectors
i and j.  Scalars use the owning field's literal syntax: strings or ints
for the rationals, ints or base-p digit lists for finite fields.  Dumps
are canonical (sorted keys, two-space indent, trailing newline), so a
document round-trips byte for byte.
"""

from __future__ import annotations

import hashlib
import json

from .core import LeibnizAlgebra
from .errors import FieldParseError, ParseError
from .fields import field_from_doc, field_to_doc

FORMAT_VERSION = 1


def algebra_to_doc(L: LeibnizAlgebra) -> dict:
    F = L.field
    table = [[[F.serialize_scalar(c) for c in entry] for entry in row]
             for row in L.table]
    return {
        "format_version": FORMAT_VERSION,
        "field": field_to_doc(F),
        "dim": L.dim,
        "basis_names": list(L.names),
        "table": table,
    }


def _expect_list(obj, length, where):
    if not isinstance(obj, list) or len(obj) != length:
        raise ParseError(f"expected a list of length {length}", where)
    return obj


def algebra_from_doc(doc) -> LeibnizAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = doc.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    if "field" not in doc:
        raise ParseError("missing field description", "field")
    F = field_from_doc(doc["field"])
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError("dim must be a non-negative integer", "dim")
    names = doc.get("basis_names")
    if names is not None:
        _expect_list(names, dim, "basis_names")
        if any(not isinstance(s, str) or not s for s in names):
            raise ParseError("basis names must be non-empty strings", "basis_names")
        if len(set(names)) != dim:
            raise ParseError("basis names must be distinct", "basis_names")
        names = tuple(names)
    raw = _expect_list(doc.get("table"), dim, "table")
    table = []
    for i, row in enumerate(raw):
        _expect_list(row, dim, f"table[{i}]")
        out_row = []
        for j, entry in enumerate(row):
            _expect_list(entry, dim, f"table[{i}][{j}]")
            coeffs = []
            for k, lit in enumerate(entry):
                try:
                    coeffs.append(F.parse_scalar(lit))
                except FieldParseError as exc:
                    raise ParseError(str(exc), f"table[{i}][{j}][{k}]") from None
            out_row.append(tuple(coeffs))
        table.append(tuple(out_row))
    return LeibnizAlgebra(F, tuple(table), names)


def dumps_algebra(L: LeibnizAlgebra) -> str:
    return json.dumps(algebra_to_doc(L), sort_keys=True, indent=2) + "\n"


def loads_algebra(text: str) -> LeibnizAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return algebra_from_doc(doc)


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
