"""Barycentric lattices over the constrained simplex and SVG contour plots.

Points (x1, x2, x3) project onto the plane as (x2 + x3/2, sqrt(3)/2 * x3),
which sends the three pure blends to an equilateral triangle of unit side.
Surfaces are drawn as filled bands: each band is one SVG path in the band's
color whose subpaths are the closed outline loops of the band's lattice cells;
a dashed inner triangle marks the proportion floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .design import PROPORTION_DECIMALS, check_floor
from .fileio import atomic_write_bytes, atomic_write_text
from .mixmodel import MixtureModelFit, predict_rows

SQRT3_2 = math.sqrt(3.0) / 2.0

# dark-blue-to-yellow ramp, interpolated per band
_RAMP = (
    (0.267, 0.005, 0.329),
    (0.254, 0.265, 0.530),
    (0.164, 0.471, 0.558),
    (0.134, 0.658, 0.517),
    (0.477, 0.821, 0.318),
    (0.993, 0.906, 0.144),
)


class ContourError(ValueError):
    pass


def barycentric_to_xy(points):
    """Project simplex points to plot coordinates."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = points[:, 1] + 0.5 * points[:, 2]
    y = SQRT3_2 * points[:, 2]
    return np.column_stack([x, y])


def simplex_lattice(q, m, min_prop=0.0):
    """Every m-part composition of q with all parts >= min_prop * q, scaled by
    1/q, in lexicographic order.

    Stars and bars: the free = q - m * floor units above the floor split at
    m - 1 bar positions among free + m - 1 slots, and itertools.combinations
    yields those positions in lexicographic order of the parts.
    """
    if q < 2:
        raise ContourError(f"lattice resolution q={q} must be >= 2")
    check_floor(m, min_prop, ContourError)
    floor_count = int(math.ceil(min_prop * q - 1e-9))
    free = q - m * floor_count
    if free < 0:
        raise ContourError(f"no lattice point of q={q} has all m={m} parts at or "
                           f"above min_prop={min_prop}")
    bars = np.array(list(itertools.combinations(range(free + m - 1), m - 1)))
    slots = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, free + m - 1))
    return (np.diff(slots, axis=1) - 1 + floor_count) / q


@dataclass
class TernaryGrid:
    q: int
    min_prop: float
    points: np.ndarray
    values: np.ndarray | None = None
    covariates: tuple = ()
    response: str = ""
    scenario: str = ""
    # the lattice's own CSV and SVG parts, built on first use: replace() hands
    # this same dict on, so every surface predicted on one lattice shares them
    lattice_parts: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, q, min_prop=0.0, m=3):
        return cls(q=q, min_prop=min_prop, points=simplex_lattice(q, m, min_prop))


def _lattice_part(grid: TernaryGrid, build):
    """build(grid), computed once per (points array, q) and kept in the grid's
    lattice_parts; a grid given other points or another q builds it anew."""
    points, q, part = grid.lattice_parts.get(build, (None, None, None))
    if points is not grid.points or q != grid.q:
        part = build(grid)
        grid.lattice_parts[build] = (grid.points, grid.q, part)
    return part


def grid_predict(fit: MixtureModelFit, grid: TernaryGrid, z) -> TernaryGrid:
    """Evaluate the fitted surface at every grid point for covariate levels z."""
    z = tuple(float(v) for v in z)
    covariates = np.broadcast_to(np.array(z, dtype=float), (len(grid.points), len(z)))
    values = predict_rows(fit, grid.points, covariates)
    return replace(grid, values=values, covariates=z)


def _csv_prefixes(grid: TernaryGrid):
    """The CSV header line and each point's "x1,...,xm," row prefix."""
    m = grid.points.shape[1]
    point = ",".join([f"%.{PROPORTION_DECIMALS}f"] * m) + ","
    return (",".join([f"x{j}" for j in range(1, m + 1)] + ["value"]) + "\n",
            [point % tuple(p) for p in grid.points.tolist()])


def grid_to_csv(grid: TernaryGrid) -> str:
    if grid.values is None:
        raise ContourError("grid has no values; predict before exporting")
    header, prefixes = _lattice_part(grid, _csv_prefixes)
    return header + "".join([f"{prefix}{value:.10g}\n"
                             for prefix, value in zip(prefixes, grid.values.tolist())])


def write_grid_csv(grid: TernaryGrid, path):
    atomic_write_text(path, grid_to_csv(grid))


def _ramp_color(t):
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(_RAMP) - 1)
    frac = pos - low
    rgb = [(1 - frac) * _RAMP[low][c] + frac * _RAMP[high][c] for c in range(3)]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(255 * v)) for v in rgb))


def _svg_lattice(grid: TernaryGrid):
    """The lattice cells, their edges' lattice directions and twins, and each
    point's "x,y" in plot pixels.

    Edge 3i + k runs from corner k of cell i to corner k + 1 (mod 3), so every
    cell winds the same way.
    """
    cells = _micro_triangles(grid).astype(np.int32)
    starts, ends = cells.ravel(), np.roll(cells, -1, axis=1).ravel()
    counts = np.rint(grid.points[:, 1:3] * grid.q).astype(np.int32)
    steps = counts[ends] - counts[starts]  # each component is -1, 0 or 1
    directions = (3 * steps[:, 0] + steps[:, 1]).astype(np.int8)
    px, py = _to_px(barycentric_to_xy(grid.points).T)
    return (cells, directions, _twin_edges(starts, ends, directions, len(grid.points)),
            [f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())])


def _twin_edges(starts, ends, directions, n_points):
    """For each directed edge, the index of the reverse edge in the neighbouring
    cell, or -1 where the edge lies on the lattice boundary."""
    # a point leaves in each of the six directions along at most one cell edge
    leaving = np.full((n_points, 7), -1, dtype=np.int32)
    leaving[starts, directions + 3] = np.arange(len(starts), dtype=np.int32)
    return leaving[ends, 3 - directions]


def _band_loops(bands, n_bands, lattice):
    """Each band's outline as closed "M...L...Z" loops in plot pixels.

    An edge whose twin lies in the same band cancels. Within a band, the edges
    left over enter and leave each point equally often, so pairing the r-th
    edge into a point with the r-th edge out of it, both in edge order, chains
    them into closed loops; a point where the lattice direction does not
    change is dropped. Every cell winds the same way, so a band's outer loops
    do too and its holes wind the other way.
    """
    cells, directions, twins, coords = lattice
    edge_bands = np.repeat(bands, 3)
    kept = np.flatnonzero((twins < 0) | (edge_bands[twins] != edge_bands))
    band, start = edge_bands[kept], cells.ravel()[kept]
    leaving = np.lexsort((start, band))
    entering = np.lexsort((cells[kept // 3, (kept + 1) % 3], band))
    after, before = np.empty_like(leaving), np.empty_like(leaving)
    after[entering] = leaving
    before[leaving] = entering
    turn = directions[kept]
    corner = (turn != turn[before]).tolist()
    after, band, start = after.tolist(), band.tolist(), start.tolist()
    seen = [False] * len(after)
    loops = [[] for _ in range(n_bands)]
    for first in leaving.tolist():
        if seen[first] or not corner[first]:
            continue
        points, edge = [], first
        while not seen[edge]:
            seen[edge] = True
            if corner[edge]:
                points.append(coords[start[edge]])
            edge = after[edge]
        loops[band[first]].append("M" + "L".join(points) + "Z")
    return loops


def _micro_triangles(grid: TernaryGrid):
    """Lattice cells whose three corners all satisfy the floor constraint.

    Returns an (n, 3) array of grid row indices: for each lattice point in
    row order, its upward cell then its downward cell, when present.
    """
    q = grid.q
    counts = np.rint(grid.points[:, 1:3] * q).astype(int)
    b, c = counts[:, 0], counts[:, 1]
    # one spare row and column so every (b + 1, c + 1) lookup stays in bounds
    index = np.full((q + 2, q + 2), -1)
    index[b, c] = np.arange(len(grid.points))
    up = np.column_stack([index[b, c], index[b + 1, c], index[b, c + 1]])
    down = np.column_stack([index[b + 1, c], index[b + 1, c + 1], index[b, c + 1]])
    cells = np.stack([up, down], axis=1).reshape(-1, 3)
    return cells[(cells >= 0).all(axis=1)]


# a surface whose values span at most this many ulps of their magnitude is
# drawn flat: the span is rounding in the prediction, not a surface to band
_FLAT_ULPS = 4

# plot geometry in pixels: the simplex's side, and where its bounding box starts
_SIDE, _MARGIN_LEFT, _MARGIN_TOP, _LEGEND_WIDTH = 400.0, 60.0, 56.0, 150.0


def _to_px(xy):
    return (_MARGIN_LEFT + xy[0] * _SIDE,
            _MARGIN_TOP + _SIDE * SQRT3_2 - xy[1] * _SIDE)


def render_ternary(grid: TernaryGrid, levels=10) -> bytes:
    """Self-contained SVG: banded surface, outer simplex, dashed floor
    triangle, vertex labels and a value legend. Deterministic bytes.

    Each lattice cell takes the band of its corners' mean value. A band is one
    path of closed outline loops, filled by the default nonzero rule."""
    if grid.values is None or len(grid.values) == 0:
        raise ContourError("cannot render an empty grid")
    if levels < 1:
        raise ContourError("levels must be >= 1")
    height = _MARGIN_TOP + _SIDE * SQRT3_2 + 60.0
    width = _MARGIN_LEFT + _SIDE + _LEGEND_WIDTH + 40.0

    values = np.asarray(grid.values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ContourError(f"grid value at point {grid.points[bad[0]].tolist()} "
                           f"is {values[bad[0]]}; cannot assign a band")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    constant = vmax - vmin <= _FLAT_ULPS * np.spacing(max(abs(vmin), abs(vmax)))
    n_bands = 1 if constant else levels

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    title = f"{grid.response} ({grid.scenario}), z={grid.covariates}".strip()
    parts.append(f'<text x="{_MARGIN_LEFT:.1f}" y="24" font-family="sans-serif" '
                 f'font-size="15">{_escape(title)}</text>')

    lattice = _lattice_part(grid, _svg_lattice)
    cells = lattice[0]
    if constant:
        bands = np.zeros(len(cells), dtype=int)
    else:
        cell_values = values[cells].sum(axis=1) / 3.0
        bands = ((cell_values - vmin) / (vmax - vmin) * levels).astype(int)
        bands = np.clip(bands, 0, levels - 1)
    for band, loops in enumerate(_band_loops(bands, n_bands, lattice)):
        if not loops:
            continue
        color = _ramp_color(0.5 if constant else (band + 0.5) / levels)
        path = "".join(loops)
        # the same-color stroke hides the anti-aliasing seam between bands
        parts.append(f'<path d="{path}" fill="{color}" stroke="{color}" '
                     'stroke-width="0.6"/>')

    corners = [_to_px(xy) for xy in barycentric_to_xy(np.eye(3))]
    outline = " ".join(f"{x:.2f},{y:.2f}" for x, y in corners)
    parts.append(f'<polygon points="{outline}" fill="none" stroke="black" '
                 'stroke-width="1.2"/>')

    if grid.min_prop > 0:
        eps = grid.min_prop
        floor_corners = [
            (1 - 2 * eps, eps, eps), (eps, 1 - 2 * eps, eps), (eps, eps, 1 - 2 * eps)]
        dashed = " ".join(f"{x:.2f},{y:.2f}"
                          for x, y in (_to_px(xy) for xy in barycentric_to_xy(floor_corners)))
        parts.append(f'<polygon points="{dashed}" fill="none" stroke="black" '
                     'stroke-width="0.9" stroke-dasharray="6,4"/>')

    label_pos = [
        (corners[0][0] - 10, corners[0][1] + 18, "x1"),
        (corners[1][0] - 6, corners[1][1] + 18, "x2"),
        (corners[2][0] - 8, corners[2][1] - 8, "x3"),
    ]
    for x, y, text in label_pos:
        parts.append(f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" '
                     f'font-size="14">{text}</text>')

    legend_x = _MARGIN_LEFT + _SIDE + 30.0
    swatch = min(24.0, (_SIDE * SQRT3_2) / n_bands)
    legend_top = _MARGIN_TOP
    for band in range(n_bands):
        color = _ramp_color(0.5 if constant else (band + 0.5) / levels)
        y = legend_top + (n_bands - 1 - band) * swatch
        parts.append(f'<rect x="{legend_x:.1f}" y="{y:.1f}" width="18" '
                     f'height="{swatch:.1f}" fill="{color}" stroke="black" '
                     'stroke-width="0.4"/>')
        if constant:
            label = f"{vmin:.4g}"
        else:
            lo = vmin + band * (vmax - vmin) / levels
            hi = vmin + (band + 1) * (vmax - vmin) / levels
            label = f"{lo:.4g} to {hi:.4g}"
        parts.append(f'<text x="{legend_x + 24:.1f}" y="{y + swatch / 2 + 4:.1f}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def surface_filenames(response, scenario, z):
    """One surface's grid CSV and SVG names: `grid_<stem>.csv` and
    `contour_<stem>.svg`, where the stem is `<response>_<scenario>_z<levels>`."""
    stem = f"{response}_{scenario}_z{''.join(f'{float(v):g}' for v in z)}"
    return f"grid_{stem}.csv", f"contour_{stem}.svg"


def write_ternary_svg(grid: TernaryGrid, path, levels=10):
    atomic_write_bytes(path, render_ternary(grid, levels=levels))
