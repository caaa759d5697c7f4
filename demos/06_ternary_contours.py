"""Render fitted response surfaces over the constrained simplex as SVGs.

One surface per covariate combination: one barycentric lattice is
evaluated through the fitted model and drawn as filled contour bands with
a dashed inner triangle marking the proportion floor.
"""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np

from mixrobust import (DesignConfig, TernaryGrid, cross_array, fit_ols, grid_predict,
                       model_matrix, simplex_centroid, term_labels, write_grid_csv,
                       write_ternary_svg)
from mixrobust.cli import CONTOUR_SVG, GRID
from mixrobust.mixmodel import ModelMatrix
from mixrobust.seeding import generator
from mixrobust.ternary import covariate_tag

design = DesignConfig(m=3, covariate_levels=((1, 0), (1, 0)), min_prop=0.01)
base = cross_array(simplex_centroid(3, 0.01), design)
runs = base.runs * 3
values = model_matrix([r.train_mixture for r in runs], [r.covariates for r in runs])
matrix = ModelMatrix(values=values, labels=term_labels(3, 2), m=3, h=2)

# a made-up but shaped response: balance helps, class 3 helps, z1 helps
rng = generator(66, "demo")
beta = np.array([0.45, 0.55, 0.85, 0.60, 0.65, 0.55,
                 0.25, 0.17, -0.01, 0.02, 0.07, -0.12, -0.04])
y = values @ beta + 0.01 * rng.standard_normal(values.shape[0])
fit = fit_ols(matrix, y)

out_dir = Path("demo_output")
grid = TernaryGrid.build(q=100, min_prop=design.min_prop)
for z in itertools.product(*design.covariate_levels):
    surface = replace(grid_predict(fit, grid, z), response="mean_auc", scenario="balanced")
    # the names `mixrobust contour` gives these files
    names = dict(response="mean_auc", scenario="balanced", tag=covariate_tag(z))
    grid_name, name = GRID.format(**names), CONTOUR_SVG.format(**names)
    write_ternary_svg(surface, out_dir / name)
    write_grid_csv(surface, out_dir / grid_name)
    peak = grid.points[np.argmax(surface.values)]
    print(f"z={z}: wrote {name}; surface peak near {np.round(peak, 3)} "
          f"(max {surface.values.max():.3f})")

print(f"\nSVGs and grid CSVs are under {out_dir}/")
