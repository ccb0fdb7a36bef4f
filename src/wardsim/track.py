"""Painted-line track geometry on a bounded mat.

A track is a polyline of waypoints with a per-segment tag ("straight" or
"turn"); a closed one (the default) also joins its last waypoint to its
first. Queries return the perpendicular distance from a world point to the
polyline, the closest point itself, the heading of the closest segment (the
angle of its unit tangent, fixed when the track is built), and that
segment's tag.

A query searches only the candidate segments of the grid cell that holds the
point, and the grid never changes a result:

- Lower bound: a segment lies inside its bounding box, so no point of a cell
  is nearer to the segment than the cell is to that box.
- Upper bound: distance to a segment is a convex function of the point, so
  over a cell it is largest at a corner. No point of the cell is farther from
  its nearest segment than the smallest worst-corner distance of any segment.
- A cell keeps every segment whose lower bound is at most that smallest upper
  bound plus a margin. A segment left out is farther from every point of the
  cell than some kept one.
- The margin, 1e-9 m times the longer mat side when that exceeds 1 m, absorbs
  the rounding of the bounds and of a point on a cell edge, which may be
  filed in either neighbouring cell.
- Candidates keep index order and are measured with the same float
  expressions as a full scan (t = (p - a).d / |d|^2 clipped to [0, 1], then
  a + t d, then the squared distance), so the first segment at the smallest
  distance wins exactly as it would in a full scan.
- A point off the mat has no cell and scans all segments.

The grid has about 0.1 m cells and at most 64 along either side of the mat,
so a larger mat costs no more set-up time or memory than a 6.4 m one with
the same segments. It is built in one numpy pass over every cell and segment
(in blocks of rows only for a track of many segments, to bound its memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import require

DEFAULT_MAT = (3.5, 4.0)    # meters
DEFAULT_LINE_WIDTH = 0.018  # meters

_CELL_M = 0.1        # target side of a candidate-grid cell
_MAX_CELLS = 64      # per mat side, so a large mat cannot inflate set-up
_MARGIN_M = 1e-9
_BLOCK = 2 ** 20     # corner-segment pairs per pass of the grid build


@dataclass(slots=True)
class TrackQuery:
    distance: float
    point: tuple[float, float]
    heading: float
    tag: str
    segment: int


@dataclass(frozen=True)
class Track:
    """A scenario's `track` section: its fields are the YAML keys, stored as
    tuples of floats. The heading, length and candidate grid derived from
    them are set once here."""
    waypoints: tuple[tuple[float, float], ...]
    tags: tuple[str, ...]
    line_width: float = DEFAULT_LINE_WIDTH
    mat_size: tuple[float, float] = DEFAULT_MAT
    closed: bool = True

    def __post_init__(self):
        pts = np.array(self.waypoints, dtype=float)
        w, h = self.mat_size
        require((pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 2,
                 "track needs at least two 2-D waypoints"),
                (self.line_width > 0, "line_width must be positive"),
                (math.isfinite(w) and math.isfinite(h) and w > 0 and h > 0,
                 "mat_size must be two positive finite numbers"))
        a, b = (pts, np.roll(pts, -1, axis=0)) if self.closed else (pts[:-1], pts[1:])
        n_seg = len(a)
        tags = tuple(self.tags)
        require((np.all(np.isfinite(pts)), "track waypoints must be finite"),
                (not (np.any(pts < 0) or np.any(pts > (w, h))),
                 "track waypoints must lie inside the mat bounds"),
                (len(tags) == n_seg, f"expected {n_seg} segment tags, got {len(tags)}"),
                *((t in ("straight", "turn"), f"unknown segment tag {t!r}") for t in dict.fromkeys(tags)))
        w, h = mat_size = (float(w), float(h))
        d = b - a
        len2 = np.einsum("ij,ij->i", d, d)
        len2[len2 == 0.0] = 1e-30
        seg_len = np.sqrt(len2)
        # (index, ax, ay, dx, dy, len2) as Python floats: the query's scan
        segs = [(i, *row) for i, row in enumerate(np.column_stack([a, d, len2]).tolist())]
        # capped before rounding, so a mat too wide to count cells in still gets the cap
        nx = math.ceil(min(w / _CELL_M, _MAX_CELLS))
        ny = math.ceil(min(h / _CELL_M, _MAX_CELLS))
        # a point on the far border indexes one past the last cell, so the
        # last column and row are repeated rather than clamped per query
        keep = np.pad(_candidate_grid(a, d, len2, mat_size, nx, ny),
                      ((0, 1), (0, 1), (0, 0)), mode="edge").reshape(-1, n_seg)
        kept = [segs[i] for i in np.nonzero(keep)[1].tolist()]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        cells = [kept[i:j] for i, j in zip([0, *ends], ends)]
        # the fields in their stored form and the facts derived from them, set
        # past the frozen __setattr__
        for name, value in (
                ("waypoints", tuple(map(tuple, pts.tolist()))), ("tags", tags),
                ("line_width", float(self.line_width)), ("mat_size", mat_size),
                ("headings", tuple(math.atan2(ty, tx) for tx, ty in (d / seg_len[:, None]).tolist())),
                ("length", float(seg_len.sum())), ("_segs", segs),
                ("_grid", (*mat_size, nx / w, ny / h, nx + 1, cells))):
            object.__setattr__(self, name, value)

    def query(self, x: float, y: float) -> TrackQuery:
        """Closest point on the polyline to the finite point (x, y)."""
        w, h, sx, sy, stride, cells = self._grid
        if 0.0 <= x <= w and 0.0 <= y <= h:
            segs = cells[int(y * sy) * stride + int(x * sx)]
        else:
            segs = self._segs
        best, best_i = math.inf, -1
        for i, ax, ay, dx, dy, l2 in segs:
            t = ((x - ax) * dx + (y - ay) * dy) / l2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            px = ax + t * dx
            py = ay + t * dy
            ex = px - x
            ey = py - y
            dist2 = ex * ex + ey * ey
            if dist2 < best:
                best, best_i, best_x, best_y = dist2, i, px, py
        if best_i < 0:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"track query at a non-finite point ({x}, {y})")
            # so far off that every squared distance overflows: in floats each
            # point of the track is then about as near as any other; take the first
            _, ax, ay, _, _, _ = self._segs[0]
            return TrackQuery(math.hypot(ax - x, ay - y), (ax, ay), self.headings[0], self.tags[0], 0)
        return TrackQuery(math.sqrt(best), (best_x, best_y), self.headings[best_i],
                          self.tags[best_i], best_i)


def _candidate_grid(a, d, len2, mat_size, nx: int, ny: int) -> np.ndarray:
    """Whether each cell keeps each segment, as an (ny, nx, n_seg) array of
    rows of cells from the origin; see the module docstring for why the
    search stays exact."""
    w, h = mat_size
    margin = _MARGIN_M * max(1.0, w, h)
    lo = np.minimum(a, a + d)
    hi = np.maximum(a, a + d)
    xs = np.linspace(0.0, w, nx + 1)[:, None]
    gap_x = np.maximum(0.0, np.maximum(lo[:, 0] - xs[1:], xs[:-1] - hi[:, 0]))

    def rows(ys):  # the rows of cells between k + 1 corner rows, a (k + 1, 1, 1) array
        px = xs - a[:, 0]
        py = ys - a[:, 1]
        t = np.clip((px * d[:, 0] + py * d[:, 1]) / len2, 0.0, 1.0)
        corner = np.hypot(px - t * d[:, 0], py - t * d[:, 1])
        upper = np.maximum(np.maximum(corner[:-1, :-1], corner[:-1, 1:]),
                           np.maximum(corner[1:, :-1], corner[1:, 1:]))
        gap_y = np.maximum(0.0, np.maximum(lo[:, 1] - ys[1:], ys[:-1] - hi[:, 1]))
        return np.hypot(gap_x, gap_y) <= upper.min(axis=2, keepdims=True) + margin

    ys = np.linspace(0.0, h, ny + 1)[:, None, None]
    step = max(1, _BLOCK // ((nx + 1) * len(a)))
    return np.concatenate([rows(ys[r:r + step + 1]) for r in range(0, ny, step)])


def rounded_rect_track() -> Track:
    """The default course: the rectangle (0.6, 0.6)-(2.9, 3.4) on the default
    mat with 0.35 m corner arcs of 6 chords each; edges are tagged straight,
    corner arcs turn."""
    x0, y0, x1, y1, r, arc_points = 0.6, 0.6, 2.9, 3.4, 0.35, 6
    centers = [
        (x1 - r, y1 - r, 0.0),          # top-right, arc 0 -> 90 deg
        (x0 + r, y1 - r, math.pi / 2),  # top-left
        (x0 + r, y0 + r, math.pi),      # bottom-left
        (x1 - r, y0 + r, 1.5 * math.pi)  # bottom-right
    ]
    pts: list[tuple[float, float]] = []
    tags: list[str] = []
    for cx, cy, start in centers:
        # straight edge leading into this corner is appended implicitly by
        # the polyline closure; tag boundaries are tracked per appended point
        for k in range(arc_points + 1):
            ang = start + (math.pi / 2) * k / arc_points
            pts.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
            tags.append("turn" if k < arc_points else "straight")
    return Track(pts, tags)
