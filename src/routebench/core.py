"""Geometric primitives, grid densities, sampling, and route metrics.

Everything downstream (tour construction, subset routing, latency schemes,
fairness mixtures) is built on the small set of value types defined here:
points in a bounding square, visiting orders, piecewise-constant densities
on an m x m grid, and reproducible random seeds.

All types are immutable after construction and safe to share across
threads or processes; randomness always flows through an explicit
:class:`RandomSeed` so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point",
    "Square",
    "UNIT_SQUARE",
    "PointSet",
    "Route",
    "GridDensity",
    "RandomSeed",
    "BETA_TSP_BRACKET",
    "route_length",
    "total_latency",
    "last_latency",
    "sample_points",
    "cell_ids",
    "latency_growth_constant",
    "stable_stream",
    "save_points_csv",
    "load_points_csv",
    "density_to_json",
    "density_from_json",
]

# Legal bracket for the square-root growth constant of optimal tours on
# uniform points.  The library never asserts a specific value inside it;
# it is exposed for callers that want a configured estimate.
BETA_TSP_BRACKET = (0.6250, 0.9204)


# The scalar input contract.  Every public entry point checks its scalar
# arguments with one of these three rules and raises ValueError naming the
# argument; arrays are checked where they are built.


def _require_count(name: str, value: float, least: int = 0) -> int:
    """``value`` as an int; ValueError unless it is a finite whole number of
    at least ``least`` (1.0 is; "3", 2.5 and NaN are not)."""
    try:
        whole = math.isfinite(value) and value == math.floor(value)
    except TypeError:
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _require_int(name: str, value: int, least: int) -> int:
    """``value`` as an int; ValueError unless it is a Python or numpy integer
    of at least ``least`` (2.0, "2" and None are not)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _require_finite(**values: float) -> None:
    """ValueError naming the first keyword argument that is not a finite real."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by its lower-left corner and side length."""

    origin: tuple[float, float]
    side: float

    def __post_init__(self):
        ox, oy = self.origin
        if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(self.side)):
            raise ValueError("square parameters must be finite")
        if self.side <= 0:
            raise ValueError("square side must be positive")

    @property
    def area(self) -> float:
        return self.side * self.side

    def cell(self, m: int, k: int) -> "Square":
        """Sub-square k (row-major, bottom row first) of the m x m partition."""
        if not 0 <= k < m * m:
            raise ValueError(f"cell index {k} out of range for m={m}")
        h = self.side / m
        row, col = divmod(k, m)
        return Square((self.origin[0] + col * h, self.origin[1] + row * h), h)

    def cell_center(self, m: int, k: int) -> Point:
        c = self.cell(m, k)
        return Point(c.origin[0] + c.side / 2, c.origin[1] + c.side / 2)


UNIT_SQUARE = Square((0.0, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered sample of planar points inside a closed bounding square."""

    coords: np.ndarray
    square: Square = UNIT_SQUARE

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)  # a private copy
        if coords.size == 0:
            coords = coords.reshape(0, 2)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (n, 2)")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        if not _inside(coords, self.square):
            raise ValueError("all points must lie inside the bounding square")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]], square: Square = UNIT_SQUARE) -> "PointSet":
        pts = list(points)
        arr = np.array(pts, dtype=np.float64).reshape(len(pts), 2)
        return cls(arr, square)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def subset(self, indices: Sequence[int], square: Square | None = None) -> "PointSet":
        """Point set restricted to ``indices``, optionally with a tighter square.

        A tighter square is a cell, or a block of cells, of a partition, and
        its edges are rounded: a point that :func:`cell_ids` puts in a cell
        can lie a few ulps outside that cell's square.  Such a point is moved
        onto the square's edge; one more than 1e-9 of the square's scale
        outside it raises ``ValueError``.
        """
        coords = self.coords.take(np.asarray(indices, dtype=np.intp), axis=0)
        square = square or self.square
        try:
            return PointSet(coords, square)
        except ValueError:  # the coordinates are finite: a point lies outside
            lo = np.array(square.origin)
            inside = np.clip(coords, lo, lo + square.side)
            if np.abs(inside - coords).max() > 1e-9 * (square.side + np.abs(lo).max()):
                raise
            return PointSet(inside, square)


@dataclass(frozen=True)
class Route:
    """A visiting order over point indices; closed routes return to the start.

    Indices must be integers (Python or numpy; floats are rejected, not
    truncated), distinct and nonnegative.  ``order`` is stored as a tuple of
    Python ints.
    """

    order: tuple[int, ...]
    closed: bool

    def __post_init__(self):
        try:
            order = tuple(map(operator.index, self.order))
        except TypeError:
            raise ValueError(f"route indices must be integers, got {self.order!r}") from None
        if order and min(order) < 0:
            raise ValueError("route indices must be nonnegative")
        if len(set(order)) != len(order):
            raise ValueError("route indices must be distinct")
        object.__setattr__(self, "order", order)

    def __len__(self) -> int:
        return len(self.order)


def _route_points(route: Route, ps: PointSet) -> np.ndarray:
    idx = np.fromiter(route.order, dtype=np.intp, count=len(route.order))
    if len(idx) and idx.max() >= len(ps):
        raise ValueError("route index out of range for the point set")
    return ps.coords.take(idx, axis=0)


def _path_length(pts: np.ndarray, closed: bool) -> float:
    """Euclidean length of the path through the rows of ``pts`` in order;
    a closed path includes the edge from the last row back to the first."""
    if len(pts) < 2:
        return 0.0
    diffs = pts[1:] - pts[:-1]
    length = float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())
    if closed:
        dx, dy = pts[0] - pts[-1]
        length += float(np.hypot(dx, dy))
    return length


def route_length(route: Route, ps: PointSet) -> float:
    """Euclidean length of the route; closed routes include the return edge."""
    return _path_length(_route_points(route, ps), route.closed)


def total_latency(route: Route, ps: PointSet) -> float:
    """Sum of waiting distances over an open visiting order.

    The i-th visited point waits for the path travelled before it, so edge
    i contributes with multiplicity (n - i).  The closing edge of a tour
    carries no latency, hence closed routes are rejected.
    """
    if route.closed:
        raise ValueError("latency is defined along an open visiting order")
    pts = _route_points(route, ps)
    n = len(pts)
    if n < 2:
        return 0.0
    diffs = pts[1:] - pts[:-1]
    edges = np.hypot(diffs[:, 0], diffs[:, 1])
    weights = np.arange(n - 1, 0, -1, dtype=np.float64)
    return float(weights @ edges)


def last_latency(route: Route, ps: PointSet) -> float:
    """Waiting distance of the final visited point (max-min objective)."""
    if route.closed:
        raise ValueError("latency is defined along an open visiting order")
    if len(route) == 0:
        raise ValueError("last latency of an empty route is undefined")
    return route_length(route, ps)


# ---------------------------------------------------------------------------
# Reproducible randomness


@dataclass(frozen=True)
class RandomSeed:
    """A (master seed, stream index) pair identifying one random stream.

    Both are integers (Python or numpy; floats are rejected) in [0, 2**64),
    stored as Python ints.  Identical pairs reproduce identical sample
    sequences.  Concurrent tasks must each use their own stream;
    :meth:`child` derives one stably from string/integer keys so stream
    assignment does not depend on scheduling.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        seed = _require_int("master_seed", self.master_seed, 0)
        stream = _require_int("stream_index", self.stream_index, 0)
        if seed >= 2**64 or stream >= 2**64:
            raise ValueError(f"master_seed and stream_index must fit in 64 bits, got {seed} and {stream}")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_index", stream)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.stream_index & 0xFFFFFFFF, self.stream_index >> 32),
        )
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, *keys) -> "RandomSeed":
        return RandomSeed(self.master_seed, stable_stream(self.stream_index, *keys))


def stable_stream(*parts) -> int:
    """Stable 64-bit stream index from arbitrary string/int parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


# ---------------------------------------------------------------------------
# Grid densities


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Piecewise-constant density on the m x m partition of a square.

    ``cells`` holds relative levels in row-major order (bottom row first)
    and averages to one, so cell k receives probability ``cells[k] / m**2``.
    ``m`` is a whole number of at least 1, stored as an int (2.0 becomes 2).
    """

    m: int
    cells: np.ndarray
    square: Square = UNIT_SQUARE

    def __post_init__(self):
        object.__setattr__(self, "m", _require_count("grid resolution m", self.m, 1))
        cells = np.asarray(self.cells, dtype=np.float64).reshape(-1)
        if cells.shape[0] != self.m * self.m:
            raise ValueError(f"expected {self.m * self.m} cell values, got {cells.shape[0]}")
        if not np.all(np.isfinite(cells)) or np.any(cells < 0):
            raise ValueError("cell values must be finite and nonnegative")
        if abs(cells.mean() - 1.0) > 1e-9:
            raise ValueError("cell values must average to 1 (density normalization)")
        cells = cells.copy()
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def uniform(cls, m: int, square: Square = UNIT_SQUARE) -> "GridDensity":
        m = _require_count("grid resolution m", m, 1)
        return cls(m, np.ones(m * m), square)

    @classmethod
    def from_raw(cls, m: int, raw, square: Square = UNIT_SQUARE) -> "GridDensity":
        """Normalize nonnegative raw cell masses into a valid density."""
        raw = np.asarray(raw, dtype=np.float64).reshape(-1)
        if np.any(raw < 0):
            raise ValueError("cell masses must be nonnegative")
        total = raw.sum()
        if total <= 0:
            raise ValueError("cell masses must not all be zero")
        return cls(m, raw * (m * m / total), square)

    def max_cell(self) -> int:
        """Index of the highest-density cell (ties broken by lowest index)."""
        return int(np.argmax(self.cells))


def _inside(coords: np.ndarray, square: Square) -> bool:
    """Whether every row of the (n, 2) array ``coords`` lies in the closed
    square; False when a coordinate is NaN (min and max propagate it)."""
    if not len(coords):
        return True
    # per column: numpy reduces an (n, 2) array over axis 0 with an inner
    # loop of length 2, several times slower than reducing each column
    x, y = coords[:, 0], coords[:, 1]
    ox, oy = square.origin
    s = square.side
    return bool(x.min() >= ox and y.min() >= oy and x.max() <= ox + s and y.max() <= oy + s)


def cell_ids(coords: np.ndarray, square: Square, m: int) -> np.ndarray:
    """Row-major cell index of each point under the half-open convention.

    Left/bottom cell edges are inclusive; the square's top/right boundary
    belongs to the last row/column so the cells form a true partition.
    ``m`` must be a positive integer and every point must lie in the closed
    square (NaN does not); otherwise ``ValueError``.
    """
    m = _require_int("grid resolution m", m, 1)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    if not _inside(coords, square):
        raise ValueError("point outside the bounding square")
    ox, oy = square.origin
    h = square.side / m
    # inside the square the offsets are >= 0, so truncation is the floor
    col = np.minimum(((coords[:, 0] - ox) / h).astype(np.int64), m - 1)
    row = np.minimum(((coords[:, 1] - oy) / h).astype(np.int64), m - 1)
    return row * m + col


def _group_by_cell(ids: np.ndarray, cells: int) -> tuple[np.ndarray, list[int]]:
    """Point indices sorted by cell id, ascending within a cell, and the
    offsets of each cell's run: cell c holds ``by_cell[start[c]:start[c + 1]]``."""
    by_cell = np.argsort(ids, kind="stable")
    start = [0] + np.cumsum(np.bincount(ids, minlength=cells)).tolist()
    return by_cell, start


def sample_points(d: GridDensity, n: int, seed: RandomSeed) -> PointSet:
    """Draw n i.i.d. points: pick a cell by its mass, then uniform within it.

    ``n`` is a nonnegative whole number (2.0 is, 2.5 is not).
    """
    n = _require_count("n", n)
    rng = seed.generator()
    m = d.m
    probs = d.cells / (m * m)
    ids = rng.choice(m * m, size=n, p=probs)
    offsets = rng.random((n, 2))
    h = d.square.side / m
    rows, cols = np.divmod(ids, m)
    xs = d.square.origin[0] + (cols + offsets[:, 0]) * h
    ys = d.square.origin[1] + (rows + offsets[:, 1]) * h
    return PointSet(np.column_stack([xs, ys]), d.square)


def latency_growth_constant(d: GridDensity) -> float:
    """Distribution-dependent constant of the latency growth law.

    For a piecewise-constant density the defining double integral reduces
    to a sum over distinct density levels: each level contributes its mass
    times the square root of the level, counting lower levels fully and
    equal levels (including the level against itself) with weight 1/2.
    Uniform densities give exactly 0.5 on the unit square; the value scales
    linearly with the side of the bounding square.
    """
    m2 = d.m * d.m
    levels, counts = np.unique(d.cells, return_counts=True)
    keep = levels > 0
    levels, counts = levels[keep], counts[keep]
    weights = counts / m2
    mass = levels * weights
    below = np.cumsum(mass) - mass
    base = float(np.sum(np.sqrt(levels) * weights * (0.5 * mass + below)))
    return d.square.side * base


# ---------------------------------------------------------------------------
# Serialization


def save_points_csv(ps: PointSet, path) -> None:
    """Write a point set as CSV with header x,y at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in ps.coords:
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])


def load_points_csv(path, square: Square | None = None) -> PointSet:
    """Read a point CSV; infers a snug bounding square when none is given."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
            raise ValueError("point CSV must start with header 'x,y'")
        pts = [(float(row[0]), float(row[1])) for row in reader if row]
    if square is None:
        if pts:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            side = max(max(xs) - min(xs), max(ys) - min(ys))
            square = Square((min(xs), min(ys)), side if side > 0 else 1.0)
        else:
            square = UNIT_SQUARE
    arr = np.array(pts, dtype=np.float64).reshape(len(pts), 2)
    return PointSet(arr, square)


def density_to_json(d: GridDensity) -> dict:
    return {
        "m": d.m,
        "cells": [float(v) for v in d.cells],
        "square": {"origin": [d.square.origin[0], d.square.origin[1]], "side": d.square.side},
    }


def _square_from_json(obj: dict) -> Square:
    """The ``{"origin", "side"}`` square of a density JSON object; unit when absent."""
    sq = obj.get("square")
    if sq is None:
        return UNIT_SQUARE
    return Square((float(sq["origin"][0]), float(sq["origin"][1])), float(sq["side"]))


def density_from_json(obj: dict | str) -> GridDensity:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return GridDensity(obj["m"], np.asarray(obj["cells"], dtype=np.float64), _square_from_json(obj))
