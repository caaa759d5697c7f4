import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from mixrobust import (MixtureModelFit, TernaryGrid, barycentric_to_xy,
                       grid_predict, render_ternary, simplex_lattice, term_labels)
from mixrobust import ternary
from mixrobust.design import DesignError, check_floor
from mixrobust.ternary import (ContourError, _micro_triangles, grid_to_csv,
                               surface_filenames)
from mixrobust.seeding import generator

THIRD = 1.0 / 3.0


def make_fit(coefficients, m=3, h=2):
    p = len(coefficients)
    return MixtureModelFit(coefficients=np.asarray(coefficients, dtype=float),
                           covariance=np.zeros((p, p)), sigma2=0.0, df=71,
                           labels=term_labels(m, h), m=m, h=h, n=84, rss=0.0)


def reference_micro_triangles(grid):
    """Dict-keyed cell enumeration kept as the oracle for the lookup table."""
    q = grid.q
    index = {}
    for row, point in enumerate(grid.points):
        index[(int(round(point[1] * q)), int(round(point[2] * q)))] = row
    cells = []
    for (b, c), row in index.items():
        up = (index.get((b + 1, c)), index.get((b, c + 1)))
        if None not in up:
            cells.append((row, up[0], up[1]))
        down = (index.get((b + 1, c)), index.get((b + 1, c + 1)), index.get((b, c + 1)))
        if None not in down:
            cells.append(down)
    return cells


def reference_bands(surface, levels):
    """{band: oracle cells}, each cell in the band of its corners' mean value."""
    values = surface.values
    low, high = values.min(), values.max()
    bands = {}
    for cell in reference_micro_triangles(surface):
        mean = values[list(cell)].sum() / 3.0
        band = max(0, min(int((mean - low) / (high - low) * levels), levels - 1))
        bands.setdefault(band, []).append(cell)
    return bands


def cancelled_edges(cells):
    """The cells' directed edges whose reverse is not an edge of these cells."""
    edges = {(cell[k], cell[(k + 1) % 3]) for cell in cells for k in range(3)}
    return {(a, b) for a, b in edges if (b, a) not in edges}


def lattice_counts(surface):
    """Each grid row's (b, c) lattice counts, and the row of each count pair."""
    counts = [tuple(c) for c in
              np.rint(surface.points[:, 1:3] * surface.q).astype(int).tolist()]
    return counts, {count: row for row, count in enumerate(counts)}


def svg_band_loops(svg, surface, levels):
    """{band: loops} read back from the SVG paths, each loop its corner rows."""
    px, py = ternary._to_px(barycentric_to_xy(surface.points).T)
    rows = {f"{x:.2f},{y:.2f}": row for row, (x, y) in enumerate(zip(px.tolist(),
                                                                      py.tolist()))}
    bands = {ternary._ramp_color((band + 0.5) / levels): band for band in range(levels)}
    return {bands[fill]: [[rows[p] for p in loop.split("L")]
                          for loop in re.findall(r"M([^Z]*)Z", d)]
            for d, fill in re.findall(r'<path d="([^"]*)" fill="(#[0-9a-f]{6})"', svg)}


LATTICE_STEPS = {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)}


def unit_edges(surface, loop):
    """A loop's unit lattice edges, checking that each corner turns."""
    counts, rows = lattice_counts(surface)
    edges, turns = [], []
    for a, b in zip(loop, loop[1:] + loop[:1]):
        (b0, c0), (b1, c1) = counts[a], counts[b]
        steps = max(abs(b1 - b0), abs(c1 - c0))
        step = ((b1 - b0) // steps, (c1 - c0) // steps)
        assert step in LATTICE_STEPS and (step[0] * steps, step[1] * steps) == (b1 - b0, c1 - c0)
        turns.append(step)
        path = [rows[(b0 + k * step[0], c0 + k * step[1])] for k in range(steps + 1)]
        edges += zip(path, path[1:])
    assert all(turn != after for turn, after in zip(turns, turns[1:] + turns[:1]))
    return edges


def signed_area(surface, loop):
    """Shoelace area of a loop in lattice units, positive counterclockwise."""
    counts, _ = lattice_counts(surface)
    xy = [(b + c / 2.0, c * math.sqrt(3.0) / 2.0) for b, c in (counts[row] for row in loop)]
    return 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1]))


def reference_lattice(q, m, min_prop):
    """Recursive composition enumeration kept as the oracle for the closed form."""
    floor_count = int(math.ceil(min_prop * q - 1e-9))
    points = []

    def fill(prefix, remaining, parts_left):
        if parts_left == 1:
            if remaining >= floor_count:
                points.append(prefix + [remaining])
            return
        for value in range(floor_count, remaining - floor_count * (parts_left - 1) + 1):
            fill(prefix + [value], remaining - value, parts_left - 1)

    fill([], q, m)
    return np.array(points, dtype=float) / q


ORACLE_CASES = [(q, m, min_prop)
                for m in range(2, 7)
                for q in (2, 3, 5, 7, 10, 20) + ((100,) if m <= 3 else ())
                for min_prop in (0.0, 0.01, 0.05, np.nextafter(1.0 / m, 0.0))]


class TestLattice:
    @pytest.mark.parametrize("q,m,min_prop", ORACLE_CASES)
    def test_matches_recursive_oracle(self, q, m, min_prop):
        want = reference_lattice(q, m, min_prop)
        if not len(want):
            with pytest.raises(ContourError, match=rf"q={q} has all m={m} parts"):
                simplex_lattice(q, m, min_prop)
            return
        got = simplex_lattice(q, m, min_prop)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_oracle_cases_cover_empty_and_single_point_lattices(self):
        sizes = {len(reference_lattice(*case)) for case in ORACLE_CASES}
        assert {0, 1} <= sizes

    @pytest.mark.parametrize("q,m,min_prop", [(20, 7, 0.14), (100, 3, 0.333)])
    def test_empty_lattice_raises(self, q, m, min_prop):
        # configs the design accepts, but whose floor rounds past q / m units
        with pytest.raises(ContourError, match=rf"no lattice point of q={q} has all "
                                               rf"m={m} parts at or above "
                                               rf"min_prop={min_prop}"):
            simplex_lattice(q, m, min_prop)

    def test_q2_unconstrained(self):
        points = simplex_lattice(2, 3, 0.0)
        got = {tuple(p) for p in points}
        assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1),
                       (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)}

    def test_q100_unconstrained_count(self):
        assert simplex_lattice(100, 3, 0.0).shape == (5151, 3)

    def test_q100_floored_excludes_boundary(self):
        points = simplex_lattice(100, 3, 0.01)
        assert points.min() >= 0.01 - 1e-12
        assert points.shape[0] == 4851  # each count >= 1: C(97 + 2, 2) compositions

    def test_rows_sum_to_one(self):
        points = simplex_lattice(37, 3, 0.01)
        assert np.max(np.abs(points.sum(axis=1) - 1.0)) <= 1e-12

    def test_general_m_lattice(self):
        points = simplex_lattice(4, 4, 0.0)
        assert points.shape == (35, 4)  # C(7, 3)
        assert np.max(np.abs(points.sum(axis=1) - 1.0)) <= 1e-12

    def test_build_takes_the_number_of_parts(self):
        assert TernaryGrid.build(q=20, min_prop=0.01).points.tolist() == \
            simplex_lattice(20, 3, 0.01).tolist()
        grid = TernaryGrid.build(q=20, min_prop=0.01, m=5)
        assert (grid.q, grid.min_prop) == (20, 0.01)
        assert grid.points.tolist() == simplex_lattice(20, 5, 0.01).tolist()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContourError):
            simplex_lattice(1, 3, 0.0)
        with pytest.raises(ContourError):
            simplex_lattice(10, 3, 0.5)

    @pytest.mark.parametrize("m,min_prop", [(1, 0.0), (3, -0.01), (3, THIRD)])
    def test_floor_rule_is_the_designs(self, m, min_prop):
        with pytest.raises(DesignError) as design_error:
            check_floor(m, min_prop)
        with pytest.raises(ContourError) as lattice_error:
            simplex_lattice(10, m, min_prop)
        assert str(lattice_error.value) == str(design_error.value)


class TestProjection:
    def test_pure_corners_form_unit_equilateral_triangle(self):
        xy = barycentric_to_xy(np.eye(3))
        for i in range(3):
            for j in range(i + 1, 3):
                side = np.linalg.norm(xy[i] - xy[j])
                assert abs(side - 1.0) <= 1e-12

    def test_floored_corners_shrink_by_one_minus_3eps(self):
        eps = 0.01
        corners = [(1 - 2 * eps, eps, eps), (eps, 1 - 2 * eps, eps),
                   (eps, eps, 1 - 2 * eps)]
        xy = barycentric_to_xy(corners)
        for i in range(3):
            for j in range(i + 1, 3):
                side = np.linalg.norm(xy[i] - xy[j])
                assert abs(side - (1 - 3 * eps)) <= 1e-12

    def test_centroid_maps_to_triangle_center(self):
        xy = barycentric_to_xy([(THIRD, THIRD, THIRD)])[0]
        center = barycentric_to_xy(np.eye(3)).mean(axis=0)
        assert np.allclose(xy, center, atol=1e-12)


class TestGridPredict:
    def test_reference_centroid_value(self):
        coeffs = np.array([0.4400, 0.5455, 0.8599, 0.5989, 0.6472, 0.5512,
                           0.2532, 0.1660, -0.0148, 0.0241, 0.0744, -0.1186,
                           -0.0414])
        fit = make_fit(coeffs)
        grid = TernaryGrid.build(q=30, min_prop=0.0)
        surface = grid_predict(fit, grid, (0, 0))
        centroid_row = np.argmin(np.abs(surface.points - THIRD).sum(axis=1))
        assert surface.values[centroid_row] == pytest.approx(0.81483, abs=5e-6)

    def test_constant_fit_gives_constant_surface(self):
        coeffs = np.zeros(13)
        coeffs[:3] = 0.7  # equal main effects, no interactions
        fit = make_fit(coeffs)
        surface = grid_predict(fit, TernaryGrid.build(q=25, min_prop=0.01), (0, 0))
        assert np.max(np.abs(surface.values - 0.7)) <= 1e-12

    def test_symmetric_positive_interactions_peak_at_centroid(self):
        # y = c + b * sum_{j<j'} x_j x_j' with b > 0 is maximized where
        # sum x_j^2 is smallest, the centroid
        coeffs = np.zeros(13)
        coeffs[:3] = 0.5
        coeffs[3:6] = 0.9
        fit = make_fit(coeffs)
        surface = grid_predict(fit, TernaryGrid.build(q=30, min_prop=0.0), (0, 0))
        best = surface.points[np.argmax(surface.values)]
        assert np.allclose(best, THIRD, atol=1e-12)

    def test_values_at_design_points_equal_predict(self):
        from mixrobust import predict
        rng = generator(51, "grid")
        fit = make_fit(rng.normal(size=13))
        grid = TernaryGrid.build(q=100, min_prop=0.01)
        surface = grid_predict(fit, grid, (1, 0))
        for row, point in enumerate(surface.points):
            assert surface.values[row] == predict(fit, point, (1, 0))
        fit5 = make_fit(rng.normal(size=33), m=5, h=3)
        grid5 = TernaryGrid(q=20, min_prop=0.01, points=simplex_lattice(20, 5, 0.01))
        surface5 = grid_predict(fit5, grid5, (1, 0, 1))
        assert len(surface5.points) == 3876  # each count >= 1: C(15 + 4, 4)
        for row, point in enumerate(surface5.points):
            assert surface5.values[row] == predict(fit5, point, (1, 0, 1))


class TestRender:
    def _surface(self, q=12, min_prop=0.01, seed=52):
        rng = generator(seed, "render")
        fit = make_fit(rng.normal(size=13))
        return grid_predict(fit, TernaryGrid.build(q=q, min_prop=min_prop), (1, 1))

    def test_wellformed_xml(self):
        svg = render_ternary(self._surface(), levels=10)
        root = ET.fromstring(svg.decode("utf-8"))
        assert root.tag.endswith("svg")

    def test_constant_grid_single_band_legend(self):
        coeffs = np.zeros(13)
        coeffs[:3] = 0.25
        surface = grid_predict(make_fit(coeffs),
                               TernaryGrid.build(q=8, min_prop=0.0), (0, 0))
        svg = render_ternary(surface, levels=10).decode("utf-8")
        assert svg.count("<rect") == 2  # background + single legend swatch
        assert "0.25" in svg

    def test_byte_identical_rendering(self):
        a = render_ternary(self._surface(), levels=10)
        b = render_ternary(self._surface(), levels=10)
        assert a == b

    def test_dashed_floor_triangle_present(self):
        svg = render_ternary(self._surface(min_prop=0.01)).decode("utf-8")
        assert "stroke-dasharray" in svg
        unfloored = render_ternary(self._surface(min_prop=0.0)).decode("utf-8")
        assert "stroke-dasharray" not in unfloored

    def test_vertex_labels(self):
        svg = render_ternary(self._surface()).decode("utf-8")
        for label in (">x1<", ">x2<", ">x3<"):
            assert label in svg

    @pytest.mark.parametrize("q, min_prop", [(2, 0.0), (5, 0.0), (12, 0.01),
                                             (30, 0.05), (100, 0.01), (9, 0.3)])
    def test_micro_triangles_match_dict_reference(self, q, min_prop):
        grid = TernaryGrid.build(q=q, min_prop=min_prop)
        got = [tuple(cell) for cell in _micro_triangles(grid).tolist()]
        want = reference_micro_triangles(grid)
        assert len(got) == len(want)
        assert set(got) == set(want)

    @pytest.mark.parametrize("q, min_prop", [(2, 0.0), (5, 0.0), (12, 0.01),
                                             (30, 0.05), (100, 0.01), (9, 0.3)])
    def test_twin_edges_are_the_reverse_edges(self, q, min_prop):
        grid = TernaryGrid.build(q=q, min_prop=min_prop)
        cells, _, twins, _ = ternary._svg_lattice(grid)
        assert twins.dtype == np.int32
        edges = [(cell[k], cell[(k + 1) % 3]) for cell in cells.tolist() for k in range(3)]
        edge_set = set(edges)
        for (start, end), twin in zip(edges, twins.tolist()):
            if twin < 0:
                assert (end, start) not in edge_set
            else:
                assert edges[twin] == (end, start)

    @pytest.mark.parametrize("kind", ["smooth", "noisy"])
    def test_band_outlines_tile_the_floor_triangle(self, kind):
        if kind == "smooth":
            surface = self._surface(q=100)
        else:  # a noisy ramp: bands with holes, and bands touching at a point
            grid = TernaryGrid.build(q=30, min_prop=0.0)
            noise = generator(56, "noisy").normal(scale=0.1, size=len(grid.points))
            surface = replace(grid, values=grid.points[:, 0] + grid.points[:, 2] / 2 + noise)
        svg = render_ternary(surface, levels=10).decode("utf-8")
        fills = re.findall(r'<path d="[^"]*" fill="(#[0-9a-f]{6})"', svg)
        assert len(fills) == len(set(fills)) > 1
        assert svg.count("<polygon") == (2 if surface.min_prop > 0 else 1)
        cells = reference_bands(surface, levels=10)
        loops = svg_band_loops(svg, surface, levels=10)
        assert sorted(loops) == sorted(cells)
        cell_area = math.sqrt(3.0) / 4.0
        total, holes, pinches = 0.0, 0, 0
        for band, band_loops in loops.items():
            edges = [edge for loop in band_loops for edge in unit_edges(surface, loop)]
            assert len(edges) == len(set(edges))
            assert set(edges) == cancelled_edges(cells[band])
            areas = [signed_area(surface, loop) for loop in band_loops]
            assert sum(areas) == pytest.approx(len(cells[band]) * cell_area, rel=1e-9)
            total += sum(areas)
            holes += sum(area < 0 for area in areas)
            pinches += len(edges) - len({start for start, _ in edges})
        free = surface.q - 3 * math.ceil(surface.min_prop * surface.q - 1e-9)
        assert total == pytest.approx(free * free * cell_area, rel=1e-9)
        if kind == "noisy":
            assert holes > 0 and pinches > 0

    @pytest.mark.parametrize("min_prop", [0.01, 0.0])
    def test_constant_surface_is_one_triangle(self, min_prop):
        grid = TernaryGrid.build(q=100, min_prop=min_prop)
        surface = replace(grid, values=np.full(len(grid.points), 0.25))
        svg = render_ternary(surface, levels=10).decode("utf-8")
        paths = re.findall(r'<path d="([^"]*)"', svg)
        assert len(paths) == 1
        loops = re.findall(r"M([^Z]*)Z", paths[0])
        assert len(loops) == 1
        # the last polygon is the dashed floor triangle, or the outline at floor 0
        corners = re.findall(r'<polygon points="([^"]*)"', svg)[-1].split(" ")
        assert len(loops[0].split("L")) == 3
        assert sorted(loops[0].split("L")) == sorted(corners)

    def test_fit_flat_up_to_rounding_is_one_band(self):
        # equal main effects and no interactions: the predictions differ only
        # by rounding, and were once cut into noise bands labelled "0.25 to 0.25"
        coeffs = np.zeros(13)
        coeffs[:3] = 0.25
        surface = grid_predict(make_fit(coeffs), TernaryGrid.build(q=100, min_prop=0.01),
                               (0, 0))
        assert 0 < np.ptp(surface.values) <= 2 * np.spacing(0.25)
        svg = render_ternary(surface, levels=10).decode("utf-8")
        assert len(re.findall(r"<path ", svg)) == 1
        assert len(re.findall(r"<rect x=", svg)) == 1
        assert ">0.25</text>" in svg and " to " not in svg

    def test_smooth_surface_svg_stays_small(self):
        # one subpath per micro-triangle wrote about 407 KB here
        assert len(render_ternary(self._surface(q=100), levels=10)) < 50_000

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        surface = self._surface()
        surface.values[7] = bad
        with pytest.raises(ContourError, match="cannot assign a band"):
            render_ternary(surface)

    def test_empty_grid_rejected(self):
        grid = TernaryGrid(q=5, min_prop=0.0, points=np.zeros((0, 3)),
                           values=np.zeros(0))
        with pytest.raises(ContourError):
            render_ternary(grid)
        with pytest.raises(ContourError):
            render_ternary(TernaryGrid.build(5, 0.0))  # no values yet


class TestLatticeParts:
    def test_surfaces_of_one_lattice_format_it_once(self, monkeypatch):
        calls = []
        for name in ("_micro_triangles", "_twin_edges", "_csv_prefixes"):
            build = getattr(ternary, name)
            monkeypatch.setattr(ternary, name, lambda *args, name=name, build=build:
                                calls.append(name) or build(*args))
        grid = TernaryGrid.build(q=20, min_prop=0.01)
        rng = generator(54, "parts")
        fits = [make_fit(rng.normal(size=13)) for _ in range(3)]
        surfaces = [replace(grid_predict(fit, grid, (1, 0)), response="mean_auc")
                    for fit in fits]
        outputs = [(grid_to_csv(s), render_ternary(s)) for s in surfaces]
        assert sorted(calls) == ["_csv_prefixes", "_micro_triangles", "_twin_edges"]
        # the same bytes as surfaces on lattices of their own
        for fit, output in zip(fits, outputs):
            alone = replace(grid_predict(fit, TernaryGrid.build(q=20, min_prop=0.01),
                                         (1, 0)), response="mean_auc")
            assert (grid_to_csv(alone), render_ternary(alone)) == output

    def test_other_points_rebuild_the_parts(self):
        rng = generator(55, "parts")
        fit = make_fit(rng.normal(size=13))
        surface = grid_predict(fit, TernaryGrid.build(q=20, min_prop=0.01), (0, 1))
        render_ternary(surface)
        grid_to_csv(surface)
        coarse = TernaryGrid.build(q=7, min_prop=0.01)
        # replace() hands on the first lattice's parts with the new points
        moved = grid_predict(fit, replace(surface, q=coarse.q, points=coarse.points),
                             (0, 1))
        alone = grid_predict(fit, coarse, (0, 1))
        assert grid_to_csv(moved) == grid_to_csv(alone)
        assert render_ternary(moved) == render_ternary(alone)
        twins = [ternary._lattice_part(g, ternary._svg_lattice)[2] for g in (moved, alone)]
        assert len(twins[0]) == 3 * len(_micro_triangles(coarse))
        assert twins[0].tobytes() == twins[1].tobytes()


class TestCsvAndNames:
    def test_grid_csv_layout(self):
        surface = grid_predict(make_fit(np.ones(13)), TernaryGrid.build(3, 0.0), (0, 1))
        text = grid_to_csv(surface)
        lines = text.splitlines()
        assert lines[0] == "x1,x2,x3,value"
        assert len(lines) == 1 + 10  # C(5, 2) lattice points

    def test_grid_csv_bytes_match_csv_writer(self):
        rng = generator(53, "csv")
        fit = make_fit(rng.normal(size=13) * 1e3)
        surface = grid_predict(fit, TernaryGrid.build(17, 0.01), (1, 0))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x1", "x2", "x3", "value"])
        for point, value in zip(surface.points, surface.values):
            writer.writerow([f"{v:.6f}" for v in point] + [f"{value:.10g}"])
        assert grid_to_csv(surface) == buf.getvalue()

    def test_contour_filename(self):
        assert surface_filenames("mean_auc", "balanced", (1, 0))[1] \
            == "contour_mean_auc_balanced_z10.svg"
