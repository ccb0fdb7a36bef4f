"""Track polyline queries and the shipped rounded-rectangle course."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardsim import ConfigurationError
from wardsim import track as track_module
from wardsim.scenario import validate
from wardsim.track import Track, TrackQuery, rounded_rect_track


def reference_segments(track):
    """Each segment's start, direction, squared length (a zero length
    clamped to 1e-30) and unit tangent, as numpy arrays."""
    pts = np.array(track.waypoints)
    a, b = (pts, np.roll(pts, -1, axis=0)) if track.closed else (pts[:-1], pts[1:])
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    len2[len2 == 0.0] = 1e-30
    return a, d, len2, d / np.sqrt(len2)[:, None]


def reference_heading(tangent):
    return math.atan2(float(tangent[1]), float(tangent[0]))


def reference_query(track, x, y):
    """Full numpy scan over every segment. Track.query searches only a grid
    cell's candidates and must return exactly this."""
    a, d, len2, tangents = reference_segments(track)
    p = np.array([x, y])
    t = np.clip(np.einsum("ij,ij->i", p[None, :] - a, d) / len2, 0.0, 1.0)
    proj = a + t[:, None] * d
    diff = proj - p
    dist2 = np.einsum("ij,ij->i", diff, diff)
    i = int(np.argmin(dist2))
    return TrackQuery(
        distance=float(math.sqrt(dist2[i])),
        point=(float(proj[i, 0]), float(proj[i, 1])),
        heading=reference_heading(tangents[i]),
        tag=track.tags[i],
        segment=i,
    )


def assert_matches_reference(track, x, y):
    # dataclass equality: exact == on distance, point, heading, tag and segment
    assert track.query(x, y) == reference_query(track, x, y), (x, y)


def square():
    return Track([(0, 0), (1, 0), (1, 1), (0, 1)],
                 ["straight"] * 4, line_width=0.02, mat_size=(2.0, 2.0))


def test_query_on_segment():
    q = square().query(0.5, 0.1)
    assert q.distance == pytest.approx(0.1)
    assert q.point == pytest.approx((0.5, 0.0))
    assert q.heading == pytest.approx(0.0)
    assert q.segment == 0


def test_query_clamps_to_vertices():
    # nearest feature is the corner (1, 1), not a segment interior
    q = square().query(1.3, 1.4)
    assert q.point == pytest.approx((1.0, 1.0))
    assert q.distance == pytest.approx(math.hypot(0.3, 0.4))


def test_closed_track_wraps_final_segment():
    q = square().query(0.0, 0.5)
    assert q.segment == 3
    assert q.distance == pytest.approx(0.0, abs=1e-12)


def test_track_length():
    assert square().length == pytest.approx(4.0)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        Track([(0, 0)], [])
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (1, 0)], ["straight", "bogus"], closed=True)
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (5, 0)], ["straight"] * 2, mat_size=(2.0, 2.0))
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (1, 0)], ["straight"] * 2, line_width=0.0)
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (1, 0)], ["straight"] * 2, mat_size=(math.inf, 2.0))
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (math.nan, 0)], ["straight"] * 2)


def test_tag_count_matches_open_vs_closed():
    Track([(0, 0), (1, 0), (1, 1)], ["straight", "turn"], closed=False)
    with pytest.raises(ConfigurationError):
        Track([(0, 0), (1, 0), (1, 1)], ["straight", "turn"], closed=True)


def test_default_course_tags_and_bounds():
    t = rounded_rect_track()
    assert set(t.tags) == {"straight", "turn"}
    assert t.tags.count("straight") == 4
    w, h = t.mat_size
    assert all(0 <= x <= w and 0 <= y <= h for x, y in t.waypoints)
    # rectangle 2.3 x 2.8 with r=0.35 corners:
    # perimeter = 2*(1.6 + 2.1) + 2*pi*0.35
    assert t.length == pytest.approx(2 * (1.6 + 2.1) + 2 * math.pi * 0.35, rel=0.01)


def test_default_course_straights_are_axis_aligned():
    t = rounded_rect_track()
    for heading, tag in zip(t.headings, t.tags):
        if tag == "straight":
            assert min(abs(math.cos(heading)), abs(math.sin(heading))) == pytest.approx(0.0, abs=1e-12)


def test_query_rejects_a_non_finite_point():
    with pytest.raises(ValueError):
        square().query(math.inf, 0.5)


def test_query_far_off_the_mat_where_squared_distances_overflow():
    # from this far every point of the track is about as near as any other
    for x, y in ((1e200, 0.5), (-1e308, 1e308)):
        q = square().query(x, y)
        assert (q.segment, q.point, q.distance) == (0, (0.0, 0.0), math.hypot(x, y))


@st.composite
def tracks(draw):
    w = draw(st.floats(0.05, 30.0))
    h = draw(st.floats(0.05, 30.0))
    point = st.tuples(st.floats(0.0, w), st.floats(0.0, h))
    pts = draw(st.lists(point, min_size=1, max_size=10))
    # repeat some waypoints: zero-length segments, whose len2 is clamped
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        pts.insert(i, pts[i])
    if len(pts) < 2:
        pts.append(pts[0])
    closed = draw(st.booleans())
    n_seg = len(pts) if closed else len(pts) - 1
    tags = draw(st.lists(st.sampled_from(["straight", "turn"]), min_size=n_seg, max_size=n_seg))
    return Track(pts, tags, mat_size=(w, h), closed=closed)


def grid_cells(track):
    """The candidate grid's cells along x and y, read from its row stride and
    cell count (each row and column is stored once more for the far border)."""
    stride, cells = track._grid[4:]
    return stride - 1, len(cells) // stride - 1


@st.composite
def query_points(draw, track):
    """Points on and off the mat, on cell edges and the mat border, and on the line."""
    w, h = track.mat_size
    nx, ny = grid_cells(track)
    kind = draw(st.sampled_from(["anywhere", "edge", "line"]))
    if kind == "anywhere":
        return draw(st.floats(-w, 2 * w)), draw(st.floats(-h, 2 * h))
    if kind == "edge":
        x = draw(st.sampled_from([0.0, w]) | st.integers(0, nx).map(lambda k: k * w / nx))
        y = draw(st.sampled_from([0.0, h]) | st.integers(0, ny).map(lambda k: k * h / ny))
        return (x, draw(st.floats(0.0, h))) if draw(st.booleans()) else (draw(st.floats(0.0, w)), y)
    i = draw(st.integers(0, len(track.waypoints) - 1))
    j = (i + 1) % len(track.waypoints)
    t = draw(st.floats(0.0, 1.0))
    (ax, ay), (bx, by) = track.waypoints[i], track.waypoints[j]
    return ax + t * (bx - ax), ay + t * (by - ay)


# at least 300 examples in Tier-1, and the `corridor-fuzz` profile's budget in CI
@pytest.mark.corridor_oracle
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.data())
def test_grid_query_equals_full_scan(data):
    track = data.draw(tracks())
    for x, y in data.draw(st.lists(query_points(track), min_size=1, max_size=20)):
        assert_matches_reference(track, x, y)


# Tier-1 runs hypothesis' default budget; CI runs the `corridor-fuzz` profile
@pytest.mark.corridor_oracle
@settings(deadline=None)
@given(tracks())
def test_track_headings_equal_the_atan2_of_the_reference_tangents(track):
    # fixed once per segment where the track is built, and read by the
    # re-placement, the odometry correction and the default start pose
    assert track.headings == tuple(map(reference_heading, reference_segments(track)[3]))


def test_default_course_matches_full_scan_on_a_lattice():
    track = rounded_rect_track()
    w, h = track.mat_size
    nx, ny = grid_cells(track)
    # quarter-cell steps from just off the mat to just past it, so the
    # lattice holds every cell corner and the mat border
    for i in range(-2, 4 * nx + 3):
        for j in range(-2, 4 * ny + 3):
            assert_matches_reference(track, i * w / (4 * nx), j * h / (4 * ny))


def test_a_mat_too_wide_to_count_cells_in_validates_and_queries_exactly():
    # 1.7e308 / 0.1 overflows to inf, so the cell count is capped before it
    # is rounded; the grid keeps every segment in every cell
    track = validate({"track": {"waypoints": [[0.2, 0.2], [1.2, 0.2], [1.2, 1.2], [0.2, 1.2]],
                                "tags": ["straight"] * 4, "mat_size": [1.7e308, 2.0]}}).track
    assert grid_cells(track) == (64, 20)
    assert all(len(cell) == 4 for cell in track._grid[5])
    for x, y in ((0.5, 0.1), (1.3, 1.4), (0.0, 0.5), (1e150, 2.0), (-1.0, -1.0)):
        assert_matches_reference(track, x, y)


@pytest.mark.parametrize("block", [1, 36 * 28 * 3])
def test_a_grid_built_in_blocks_of_rows_equals_one_built_in_one_pass(block, monkeypatch):
    # a track of many segments builds its grid a few rows at a time: one row
    # per block, and blocks of three rows that leave a shorter last block
    whole = rounded_rect_track()
    monkeypatch.setattr(track_module, "_BLOCK", block)
    assert rounded_rect_track()._grid == whole._grid
