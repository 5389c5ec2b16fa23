"""Versioned JSON persistence for landscapes and certificates.

A landscape snapshot materializes heights and label prefixes for every
window vertex, in enumeration order, so a checker can replay claims
without any construction code.  Windows themselves are not embedded:
the (group, radius) reference rebuilds the identical ball because the
enumeration order is canonical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .groups import Window
from .landscapes import LandscapeRule

SNAPSHOT_SCHEMA = "riverscape.snapshot/1"
BUNDLE_SCHEMA = "riverscape.bundle/1"


def snapshot_landscape(z: LandscapeRule, window: Window,
                       prefix_len: int) -> dict:
    """Materialize heights and label prefixes over the whole window."""
    if prefix_len < 1:
        raise ValueError("prefix length must be >= 1")
    labels, heights = z.window_rows(window, prefix_len)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "provenance": z.provenance,
        "windowRef": {
            "group": window.spec.to_dict(),
            "radius": window.radius,
        },
        "labelPrefixLen": prefix_len,
        "heights": heights,
        "labels": labels,
    }


def bundle_pipeline(result, window: Window) -> dict:
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
    prefix_len = max(
        (c.prefix_len for c in result.certificates), default=1
    )
    return {
        "schema": BUNDLE_SCHEMA,
        "certificates": certs,
        "matrix": matrix,
        "halted": result.halted,
        "finalSnapshot": snapshot_landscape(
            result.final_rule, window, prefix_len
        ),
    }


def dump_json(obj: dict, path) -> None:
    """Deterministic JSON emission (sorted keys, fixed separators)."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    )


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
