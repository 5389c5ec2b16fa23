"""Independent certificate checking against materialized snapshots.

The checker never touches construction code: it replays a landscape
purely from the arrays stored in a snapshot and re-runs the clause
verification.  Shared surface is limited to type definitions (words,
windows, pattern balls, certificates).  The snapshot rule serves its
stored rows, index-aligned with the window, straight to the pattern
scan; a bundle's snapshot is loaded once and checked against every
certificate.
"""

from __future__ import annotations

from .groups import GroupSpec, Window, ball
from .landscapes import LandscapeRule, word_rows
from .paradox import (CertificateReport, certificate_from_dict,
                      verify_certificate)
from .snapshots import SNAPSHOT_SCHEMA


class SnapshotLandscape(LandscapeRule):
    """A landscape replayed from stored per-vertex heights and labels.

    Only window vertices can be queried, and only up to the stored
    prefix length; anything past that is a hard error rather than a
    silent recomputation.
    """

    provenance = "snapshot"

    def __init__(self, window: Window, heights, labels, prefix_len: int):
        self.spec = window.spec
        self.window = window
        self.prefix_len = prefix_len
        self.heights = heights
        self.labels = labels

    def _index(self, word) -> int:
        i = self.window.index.get(word)
        if i is None:
            raise ValueError(f"word {word!r} outside the snapshot window")
        return i

    def _check_prefix(self, s: int) -> None:
        if s > self.prefix_len:
            raise ValueError(
                f"prefix {s} exceeds snapshot prefix length "
                f"{self.prefix_len}"
            )

    def height(self, word) -> int:
        return self.heights[self._index(word)]

    def label(self, word, s: int) -> str:
        self._check_prefix(s)
        return self.labels[self._index(word)][:s]

    def _own(self, window: Window) -> bool:
        return (window.spec, window.radius) == (self.spec, self.window.radius)

    def window_heights(self, window: Window) -> list[int]:
        return self.heights if self._own(window) \
            else self._compute_heights(window)

    def window_rows(self, window: Window, s: int
                    ) -> tuple[list[str], list[int]]:
        if not self._own(window):
            return word_rows(self, window, s)
        self._check_prefix(s)
        labels = self.labels if s == self.prefix_len \
            else [bits[:s] for bits in self.labels]
        return labels, self.heights


def load_snapshot(obj: dict) -> SnapshotLandscape:
    if obj.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unsupported snapshot schema: {obj.get('schema')!r}")
    spec = GroupSpec.from_dict(obj["windowRef"]["group"])
    window = ball(spec, int(obj["windowRef"]["radius"]))
    return SnapshotLandscape(
        window, obj["heights"], obj["labels"], int(obj["labelPrefixLen"])
    )


def check_certificate_dict(z: SnapshotLandscape, cert_obj: dict
                           ) -> CertificateReport:
    """Re-verify one serialized certificate against a loaded snapshot
    (:func:`load_snapshot`).

    Raises ``ValueError`` on schema or window mismatch; verification
    failures come back as a failing report, not an exception.
    """
    cert = certificate_from_dict(cert_obj, z.spec)
    if cert.window_radius != z.window.radius:
        raise ValueError(
            f"certificate radius {cert.window_radius} does not match "
            f"snapshot radius {z.window.radius}"
        )
    if cert.prefix_len > z.prefix_len:
        raise ValueError(
            f"certificate needs label prefix {cert.prefix_len}, snapshot "
            f"stores only {z.prefix_len}"
        )
    return verify_certificate(z, cert, z.window)
