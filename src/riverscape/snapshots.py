"""Versioned JSON persistence for landscapes and certificates.

A landscape snapshot materializes heights and label prefixes for every
window vertex, in enumeration order, so a checker can replay claims
without any construction code.  Windows themselves are not embedded:
the (group, radius) reference rebuilds the identical ball because the
enumeration order is canonical.  A pipeline writes two files: the
bundle (certificates, reports and the matrix) and the snapshot of its
final rule (:func:`final_snapshot`), which the bundle does not repeat.
The schemas live in :mod:`riverscape.checking`, beside their reader.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .checking import BUNDLE_SCHEMA, SNAPSHOT_SCHEMA
from .groups import Window
from .patterns import InputError

if TYPE_CHECKING:
    from .landscapes import LandscapeRule


def snapshot_landscape(z: LandscapeRule, window: Window,
                       prefix_len: int) -> dict:
    """Materialize heights and label prefixes over the whole window."""
    if prefix_len < 1:
        raise ValueError("prefix length must be >= 1")
    snap = z.snapshot(window, prefix_len)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "provenance": z.provenance,
        "windowRef": {
            "group": window.spec.to_dict(),
            "radius": window.radius,
        },
        "labelPrefixLen": prefix_len,
        "heights": snap.heights,
        "labels": snap.labels,
    }


def bundle_pipeline(result) -> dict:
    """Serialize a pipeline run: certificates, reports, and the matrix."""
    certs = []
    for cert, report in zip(result.certificates, result.reports):
        obj = cert.to_dict()
        obj["verification"] = report.to_dict()
        certs.append(obj)
    matrix = [
        [entry.to_dict() if entry is not None else None for entry in row]
        for row in result.matrix
    ]
    return {
        "schema": BUNDLE_SCHEMA,
        "certificates": certs,
        "matrix": matrix,
        "halted": result.halted,
    }


def final_snapshot(result, window: Window) -> dict:
    """The snapshot of a pipeline's final rule at the longest prefix its
    certificates read (1 when there are none)."""
    prefix_len = max((c.prefix_len for c in result.certificates),
                     default=1)
    return snapshot_landscape(result.final_rule, window, prefix_len)


# the items of a top-level array encoded per ``json.dumps`` call
_CHUNK = 4096

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_json(obj: dict, path) -> None:
    """Deterministic JSON emission (sorted keys, fixed separators).

    The file holds ``json.dumps(obj, sort_keys=True, separators=(",",
    ":")) + "\\n"`` byte for byte, written in pieces: the string keys
    of ``obj`` in sorted order, each top-level list as the encodings of
    its slices of ``_CHUNK`` items, so no more than one slice's text is
    held at a time.
    """
    with open(path, "w") as out:
        out.write("{")
        for n, key in enumerate(sorted(obj)):
            if n:
                out.write(",")
            out.write(_encode(key) + ":")
            value = obj[key]
            if not isinstance(value, list):
                out.write(_encode(value))
                continue
            out.write("[")
            for i in range(0, len(value), _CHUNK):
                if i:
                    out.write(",")
                out.write(_encode(value[i:i + _CHUNK])[1:-1])
            out.write("]")
        out.write("}\n")


def load_json(path) -> dict:
    """The JSON document in the file at ``path``; a file that is not
    JSON text is an :class:`~riverscape.patterns.InputError` naming
    it."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not a JSON file: {exc}") from None
