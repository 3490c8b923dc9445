"""Geometric primitives, grid densities, sampling, and route metrics.

Everything downstream (tour construction, subset routing, latency schemes,
fairness mixtures) is built on the small set of value types defined here:
points in a bounding square, visiting orders, piecewise-constant densities
on an m x m grid (:class:`GridDensity`, and :class:`PopulationGridDensity`
split by population) with the one reader and writer of their JSON specs,
and reproducible random seeds.

All types are immutable after construction and safe to share across
threads or processes; randomness always flows through an explicit
:class:`RandomSeed` so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import numbers
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
    "PopulationGridDensity",
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


# The input contract: every public entry point checks its scalars, index selections and
# planar pairs with these five rules, which raise ValueError naming the argument.


def _brief(value) -> str:
    """``repr(value)`` cut to 40 characters, for error messages; a value
    holding an int too long for ``repr`` is shown by its type."""
    try:
        text = repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else text[:37] + "..."


def _require_count(name: str, value: float, least: int = 0) -> int:
    """``value`` as an int; ValueError unless it is a finite whole number of
    at least ``least`` (1.0 is; "3", 2.5 and NaN are not)."""
    try:
        whole = math.isfinite(value) and value == math.floor(value)
    except (TypeError, OverflowError):  # an int beyond float range overflows
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {_brief(value)}")
    if value < least:
        raise ValueError(f"{name} must be at least {_brief(least)}, got {_brief(value)}")
    return int(value)


def _require_int(name: str, value: int, least: int) -> int:
    """``value`` as an int; ValueError unless it is a Python or numpy integer
    of at least ``least`` (2.0, "2" and None are not)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_brief(value)}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {_brief(least)}, got {_brief(value)}")
    return value


def _require_real(name: str, value: float, sign: str = "") -> float:
    """``value``; ValueError unless it is a finite ``numbers.Real`` (not a
    Decimal or a string) that is ``sign``: "positive", "nonnegative" or any ("")."""
    if sign not in ("", "positive", "nonnegative"):
        raise ValueError(f"sign must be 'positive', 'nonnegative' or '', got {sign!r}")
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except (TypeError, OverflowError):  # an int beyond float range overflows
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {_brief(value)}")
    if sign and (value < 0 or value == 0 and sign == "positive"):
        raise ValueError(f"{name} must be {sign}, got {_brief(value)}")
    return value


def _require_indices(name: str, values, n: int | None = None) -> np.ndarray:
    """``values`` as a 1-d intp array; ValueError naming ``name`` unless it is a sequence or
    1-d array of integers (not bools) in [0, n), or in [0, 2**63) when n is None; it may be empty."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    idx = arr.astype(np.intp, copy=False) if arr.ndim == 1 and (arr.dtype.kind in "iu" or not arr.size) else None
    if arr.ndim == 1 and arr.dtype == object:  # entry by entry; a bool is swapped for None, which fails
        with contextlib.suppress(TypeError, OverflowError):  # OverflowError: an int beyond 64 bits
            idx = np.array([operator.index(None if isinstance(v, (bool, np.bool_)) else v) for v in arr], dtype=np.intp)
    # one reduction: viewed unsigned, a negative (or wrapped uint64) index reads as past the bound
    if idx is None or (idx.size and idx.view(np.uintp).max() >= (2**63 if n is None else n)):
        rule = f"integers in [0, {n})" if n is not None else "nonnegative integers below 2**63"
        raise ValueError(f"{name} must be {rule} in shape (k,), got {_brief(values)}")
    return idx


def _require_pair(name: str, value) -> tuple[float, float]:
    """``value`` as (x, y); ValueError naming ``name`` unless it is a pair of finite reals."""
    try:
        x, y = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair, got {_brief(value)}") from None
    return _require_real(f"{name} x", x), _require_real(f"{name} y", y)


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by its lower-left corner and side length."""

    origin: tuple[float, float]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "origin", _require_pair("square origin", self.origin))  # a tuple, so hashable
        _require_real("square side", self.side, "positive")

    @property
    def area(self) -> float:
        return self.side * self.side

    def cell(self, m: int, k: int) -> "Square":
        """Sub-square k (row-major, bottom row first) of the m x m partition."""
        m, k = _require_int("m", m, 1), _require_int("k", k, 0)
        if k >= m * m:
            raise ValueError(f"cell index {k} out of range for m={m}")
        h = self.side / m
        row, col = divmod(k, m)
        origin = (self.origin[0] + col * h, self.origin[1] + row * h)
        if h > 0 and math.isfinite(origin[0]) and math.isfinite(origin[1]):
            return Square._of(origin, h)
        return Square(origin, h)  # a side that underflows or an origin that overflows: ValueError

    @classmethod
    def _of(cls, origin: tuple[float, float], side: float) -> "Square":
        """A square with a pair of finite reals ``origin`` and a positive
        finite real ``side``: unchecked."""
        square = object.__new__(cls)
        square.__dict__.update(origin=origin, side=side)
        return square

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
    def _of(cls, coords: np.ndarray, square: Square) -> "PointSet":
        """A point set that takes over ``coords``, a fresh (n, 2) float64
        array of finite points inside ``square``: unchecked and not copied."""
        coords.setflags(write=False)
        ps = object.__new__(cls)
        ps.__dict__.update(coords=coords, square=square)
        return ps

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
        outside it raises ``ValueError``.  Indices must be integers (not
        bools) in [0, n); ``ValueError`` otherwise.
        """
        return self._subset(_require_indices("indices", indices, len(self.coords)), square or self.square)

    def _subset(self, indices: np.ndarray, square: Square) -> "PointSet":
        """:meth:`subset` without its index test: ``indices`` is a 1-d intp
        array of indices in [0, n).  The edge clip still runs."""
        coords = self.coords.take(indices, axis=0)  # a fresh copy of finite points
        if not _inside(coords, square):
            lo = np.array(square.origin)
            inside = np.clip(coords, lo, lo + square.side)
            if np.abs(inside - coords).max() > 1e-9 * (square.side + np.abs(lo).max()):
                raise ValueError("all points must lie inside the bounding square")
            coords = inside
        return PointSet._of(coords, square)


@dataclass(frozen=True)
class Route:
    """A visiting order over point indices; closed routes return to the start.

    Indices must be distinct integers in [0, 2**63) (Python or numpy; floats
    and bools are rejected, not cast).  ``order`` is stored as a tuple of
    Python ints.  Routes the library builds are not checked again (``_of``).
    """

    order: tuple[int, ...]
    closed: bool

    def __post_init__(self):
        order = tuple(_require_indices("route indices", self.order).tolist())
        if len(set(order)) != len(order):
            raise ValueError("route indices must be distinct")
        object.__setattr__(self, "order", order)

    @classmethod
    def _of(cls, order: tuple[int, ...], closed: bool) -> "Route":
        """A route over ``order``, distinct nonnegative Python ints: unchecked."""
        route = object.__new__(cls)
        route.__dict__.update(order=order, closed=closed)
        return route

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
            raise ValueError(
                f"master_seed and stream_index must fit in 64 bits, got {_brief(seed)} and {_brief(stream)}"
            )
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_index", stream)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.stream_index & 0xFFFFFFFF, self.stream_index >> 32),
        )
        return np.random.Generator(np.random.PCG64(ss))

    @classmethod
    def _of(cls, master_seed: int, stream_index: int) -> "RandomSeed":
        """A seed of two Python ints in [0, 2**64): unchecked."""
        seed = object.__new__(cls)
        seed.__dict__.update(master_seed=master_seed, stream_index=stream_index)
        return seed

    def child(self, *keys) -> "RandomSeed":
        return RandomSeed._of(self.master_seed, stable_stream(self.stream_index, *keys))


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


@dataclass(frozen=True, eq=False)
class PopulationGridDensity:
    """Per-population density layers summing cell-wise to a total density.

    ``m`` follows :class:`GridDensity`: a whole number of at least 1,
    stored as an int.
    """

    m: int
    layers: np.ndarray  # (P, m*m), nonnegative
    square: Square = UNIT_SQUARE

    def __post_init__(self):
        object.__setattr__(self, "m", _require_count("grid resolution m", self.m, 1))
        layers = np.asarray(self.layers, dtype=np.float64)
        if layers.ndim != 2 or layers.shape[0] < 1 or layers.shape[1] != self.m * self.m:
            raise ValueError(f"layers must have shape (P, {self.m * self.m}) with at least one population")
        if not np.all(np.isfinite(layers)) or np.any(layers < 0):
            raise ValueError("layer values must be finite and nonnegative")
        total = layers.sum(axis=0)
        if abs(total.mean() - 1.0) > 1e-9:
            raise ValueError("layers must sum to a normalized total density")
        layers = layers.copy()
        layers.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_total", GridDensity(self.m, total, self.square))

    @property
    def populations(self) -> int:
        return self.layers.shape[0]

    @property
    def total(self) -> GridDensity:
        """The cell-wise sum of the layers, built once."""
        return self._total

    def population_shares(self) -> np.ndarray:
        """Overall share of each population: the integral of its layer."""
        return self.layers.sum(axis=1) / (self.m * self.m)


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
    return _cell_ids(coords, square, m)


def _cell_ids(coords: np.ndarray, square: Square, m: int) -> np.ndarray:
    """:func:`cell_ids` unchecked: (n, 2) float64 points in the square, an int m >= 1."""
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

    ``n`` is a nonnegative whole number (2.0 is, 2.5 is not).  The stream
    holds n cell uniforms, then n offset pairs; a point's x is
    origin x + (its cell's column + its x offset) * (side / m), and its y
    likewise with the row.  A one-cell density draws its n cell uniforms
    and discards them, as its cell is always 0, so its stream and its
    samples are those of the general draw, bit for bit.
    """
    n = _require_count("n", n)
    rng = seed.generator()
    m = d.m
    u = rng.random(n)
    coords = rng.random((n, 2))  # the offsets, turned into points in place
    if m > 1:
        # the draw of rng.choice(m * m, size=n, p=cells / m**2), whose checks of p GridDensity makes
        cdf = np.cumsum(d.cells / (m * m))
        cdf /= cdf[-1]
        rows, cols = np.divmod(cdf.searchsorted(u, side="right"), m)
        coords[:, 0] += cols
        coords[:, 1] += rows
    coords *= d.square.side / m
    coords += np.array(d.square.origin, dtype=np.float64)  # finite: drawn from a checked density
    if not _inside(coords, d.square):  # rounding past the top or right edge
        raise ValueError("all points must lie inside the bounding square")
    return PointSet._of(coords, d.square)


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
        pts = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) < 2:
                raise ValueError(f"point CSV line {reader.line_num} has fewer than two fields")
            pts.append((float(row[0]), float(row[1])))
    arr = np.array(pts, dtype=np.float64).reshape(len(pts), 2)
    if square is None and len(arr):
        lo = arr.min(axis=0)
        side = float((arr.max(axis=0) - lo).max())
        square = Square((float(lo[0]), float(lo[1])), side if side > 0 else 1.0)
    return PointSet(arr, square or UNIT_SQUARE)


def density_to_json(d: GridDensity | PopulationGridDensity) -> dict:
    """The JSON spec of a density, read back by :func:`density_from_json`;
    a population density adds its ``layers`` to its total's ``cells``."""
    pop = isinstance(d, PopulationGridDensity)
    obj = {
        "m": d.m,
        "cells": (d.total if pop else d).cells.tolist(),
        "square": {"origin": list(d.square.origin), "side": d.square.side},
    }
    return obj | {"layers": d.layers.tolist()} if pop else obj


def _spec_key(spec: dict, path: str):
    """The value at the dotted ``path`` of a spec; ValueError naming it when absent."""
    try:
        for key in path.split("."):
            spec = spec[key]
        return spec
    except (KeyError, TypeError):  # TypeError: not an object
        raise ValueError(f"density spec lacks {path!r}") from None


def _spec_numbers(spec: dict, key: str) -> np.ndarray:
    """The numbers at ``key`` of a spec as a float64 array; ValueError naming
    the key when they are not arrays of numbers (an object, say)."""
    value = _spec_key(spec, key)
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):  # TypeError: an object; ValueError: a ragged array or text
        raise ValueError(f"density spec {key!r} must be arrays of numbers, got {_brief(value)}") from None


def density_from_json(obj: dict | str) -> GridDensity | PopulationGridDensity:
    """The density of a JSON spec (an object or its text); ValueError when a
    key is missing, ``cells`` or ``layers`` are not arrays of numbers, or
    ``kind`` is unknown.

    ``kind`` is ``"uniform"`` (``m``, default 1), ``"grid"`` (``m``, ``cells``)
    or ``"population"`` (``m``, ``layers``, and optionally ``cells``, which
    must then be the layers' cell-wise sum to within 1e-9); a spec without
    one is a population density if it has ``layers``, else a grid density.
    ``square`` (``origin``, a pair, and ``side``) defaults to the unit square.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"a density spec must be a JSON object, got {_brief(obj)}")
    square = UNIT_SQUARE
    if obj.get("square") is not None:
        ox, oy = _require_pair("density spec 'square.origin'", _spec_key(obj, "square.origin"))
        side = _require_real("density spec 'square.side'", _spec_key(obj, "square.side"), "positive")
        square = Square((float(ox), float(oy)), float(side))
    kind = obj.get("kind", "population" if "layers" in obj else "grid")
    if kind == "uniform":
        return GridDensity.uniform(obj.get("m", 1), square)
    if kind not in ("grid", "population"):
        raise ValueError(f"unknown density spec kind {_brief(kind)}")
    cls, key = (GridDensity, "cells") if kind == "grid" else (PopulationGridDensity, "layers")
    d = cls(_spec_key(obj, "m"), _spec_numbers(obj, key), square)
    if key == "layers" and "cells" in obj:  # the total that density_to_json writes next to the layers
        cells = _spec_numbers(obj, "cells").reshape(-1)
        if cells.shape != d.total.cells.shape or not np.all(np.abs(cells - d.total.cells) <= 1e-9):
            raise ValueError("density spec 'cells' must be the cell-wise sum of its 'layers'")
    return d
