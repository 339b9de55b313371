"""Convex power cells, their adjacency, and side statistics.

Cells are computed by clipping a bounding frame against the k-1 bisector
halfplanes of each center, O(k^2) total. Edge provenance is tracked so
frame edges and bisector edges can be told apart when counting sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CenterSet, ModelError, PowerWeights

# Edge labels < 0 mark the four frame sides; labels >= 0 name the opposing center.
_FRAME_LABELS = (-1, -2, -3, -4)
# the frame pads the points' bounding box by this share of its span per side
_FRAME_MARGIN = 0.05


@dataclass(frozen=True)
class ConvexCell:
    """One power region clipped to the frame.

    ``vertices`` run counterclockwise without repeating the first point;
    ``edge_sources[e]`` labels the edge from vertex e to vertex e+1 with the
    opposing center index, or a negative value for a frame side.
    """

    center_index: int
    vertices: np.ndarray  # (v, 2) float64
    edge_sources: tuple[int, ...]
    clipped: bool

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def ring(self) -> list[list[float]]:
        """Closed vertex ring (first point repeated at the end)."""
        if self.is_empty:
            return []
        pts = self.vertices.tolist()
        pts.append(pts[0])
        return pts


@dataclass(frozen=True)
class DiagramStats:
    """Internal (bisector) side counts and adjacency of nonempty cells."""

    side_counts: tuple[tuple[int, int], ...]  # (center index, internal sides)
    adjacency: tuple[tuple[int, int], ...]  # sorted center pairs sharing an edge
    average_sides: float
    nonempty_cells: int


def bisector_halfplane(
    pi: Sequence[float], wi: float, pj: Sequence[float], wj: float
) -> tuple[tuple[float, float], float] | None:
    """Halfplane of points weighted-closer to center i than to center j.

    Expanding d2(p, xi) - wi <= d2(p, xj) - wj gives the linear inequality
    2 (xj - xi) . p <= |xj|^2 - |xi|^2 - wj + wi, returned as ((ax, ay), b)
    with ax px + ay py <= b. Returns None for coincident centers; the caller
    decides the degenerate all-or-nothing split.
    """
    (xi, yi), (xj, yj) = pi, pj
    if xi == xj and yi == yj:
        return None
    return (2.0 * (xj - xi), 2.0 * (yj - yi)), (xj * xj + yj * yj) - (xi * xi + yi * yi) - wj + wi


def _clip(
    verts: list[tuple[float, float]],
    labels: list[int],
    a: tuple[float, float],
    b: float,
    source: int,
) -> tuple[list[tuple[float, float]], list[int]]:
    """Clip a convex polygon by a . p <= b; the new chord is labeled source."""
    ax, ay = a
    vals = [ax * x + ay * y - b for x, y in verts]
    out_v: list[tuple[float, float]] = []
    out_l: list[int] = []
    nv = len(verts)
    for i in range(nv):
        j = (i + 1) % nv
        s_in = vals[i] <= 0.0
        if s_in:
            out_v.append(verts[i])
            out_l.append(labels[i])
        if s_in != (vals[j] <= 0.0):
            (sx, sy), (ex, ey) = verts[i], verts[j]
            t = vals[i] / (vals[i] - vals[j])
            out_v.append((sx + t * (ex - sx), sy + t * (ey - sy)))
            out_l.append(source if s_in else labels[i])
    return out_v, out_l


def _dedupe(verts: list[tuple[float, float]], labels: list[int], eps: float):
    """Drop zero-length edges introduced by clips through a vertex."""
    keep = [
        i
        for i, ((x, y), (u, v)) in enumerate(zip(verts, verts[1:] + verts[:1]))
        if math.hypot(u - x, v - y) > eps
    ]
    if len(keep) < 3:
        return [], []
    return [verts[i] for i in keep], [labels[i] for i in keep]


def default_frame(points: np.ndarray) -> tuple[float, float, float, float]:
    """Bounding box of the points expanded by ``_FRAME_MARGIN`` of the span per side."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    diag = float(np.hypot(span[0], span[1]))
    pad_x = _FRAME_MARGIN * (span[0] if span[0] > 0 else (diag if diag > 0 else 1.0))
    pad_y = _FRAME_MARGIN * (span[1] if span[1] > 0 else (diag if diag > 0 else 1.0))
    # a pad below the coordinates' resolution still widens each side by a float
    lo = np.minimum(lo - (pad_x, pad_y), np.nextafter(lo, -np.inf))
    hi = np.maximum(hi + (pad_x, pad_y), np.nextafter(hi, np.inf))
    return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def compute_cells(
    centers,
    weights: PowerWeights,
    frame: tuple[float, float, float, float],
) -> list[ConvexCell]:
    """Power cells of all centers, clipped to the frame rectangle.

    The frame must contain every center and every point of interest. Empty
    cells are returned with an empty vertex list (a center's power region
    can be empty); cells of the nonempty centers tile the frame. The
    clipping is plain Python float arithmetic, so the vertices do not
    depend on the BLAS kernel.
    """
    if isinstance(centers, CenterSet):
        centers = centers.positions
    pos = np.asarray(centers, dtype=np.float64).reshape(-1, 2).tolist()
    w = np.asarray(weights, dtype=np.float64).reshape(-1).tolist()
    k = len(pos)
    if len(w) != k:
        raise ModelError("one weight per center required")
    x0, y0, x1, y1 = frame
    if not (x1 > x0 and y1 > y0):
        raise ModelError(f"degenerate frame {frame}")
    eps = 1e-12 * math.hypot(x1 - x0, y1 - y0)
    frame_verts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    cells: list[ConvexCell] = []
    for i in range(k):
        verts = list(frame_verts)
        labels = list(_FRAME_LABELS)
        for j in range(k):
            if j == i or not verts:
                continue
            plane = bisector_halfplane(pos[i], w[i], pos[j], w[j])
            if plane is None:
                # coincident centers: the heavier weight wins the whole
                # plane; on equal weights the lower index keeps it
                if w[i] > w[j] or (w[i] == w[j] and i < j):
                    continue
                verts, labels = [], []
                break
            verts, labels = _clip(verts, labels, plane[0], plane[1], j)
        verts, labels = _dedupe(verts, labels, eps)
        cells.append(
            ConvexCell(
                center_index=i,
                vertices=np.array(verts, dtype=np.float64).reshape(-1, 2),
                edge_sources=tuple(labels),
                clipped=any(lab < 0 for lab in labels),
            )
        )
    return cells


def diagram_stats(cells: list[ConvexCell]) -> DiagramStats:
    """Internal side counts, adjacency, and the average over nonempty cells."""
    side_counts: list[tuple[int, int]] = []
    adjacency: set[tuple[int, int]] = set()
    for cell in cells:
        if cell.is_empty:
            continue
        neighbors = {lab for lab in cell.edge_sources if lab >= 0}
        side_counts.append((cell.center_index, len(neighbors)))
        for lab in neighbors:
            adjacency.add((min(cell.center_index, lab), max(cell.center_index, lab)))
    nonempty = len(side_counts)
    average = (sum(c for _, c in side_counts) / nonempty) if nonempty else 0.0
    return DiagramStats(
        side_counts=tuple(side_counts),
        adjacency=tuple(sorted(adjacency)),
        average_sides=average,
        nonempty_cells=nonempty,
    )
