"""The fit stages pin OpenBLAS to one thread; their outputs do not depend on
the BLAS thread count, and `simulate` leaves the count alone. Every mapped
OpenBLAS names the kernel it runs."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mixrobust
from mixrobust import blas, cli
from mixrobust.blas import openblas_corenames, openblas_threads, set_openblas_threads
from mixrobust.cli import EXIT_OK, main

from test_outcome_table import shaped_experiment
from test_pipeline import small_config_doc

pytestmark = pytest.mark.skipif(not openblas_threads(),
                                reason="no OpenBLAS mapped into this process")

FIT_STAGES = ("analyze", "shap", "contour")


@pytest.fixture
def unpinned(monkeypatch):
    """A process not yet pinned, with every OpenBLAS at 2 threads; the thread
    count is restored afterwards."""
    before = openblas_threads()
    monkeypatch.setattr(blas, "_pinned", False)
    set_openblas_threads(2)
    if set(openblas_threads().values()) != {2}:
        set_openblas_threads(max(before.values()))
        pytest.skip("OpenBLAS will not run 2 threads here")
    yield
    set_openblas_threads(max(before.values()))


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "outcomes.csv"}


@pytest.mark.parametrize("name", ["c7", "m5"])
def test_fit_outputs_identical_at_one_and_two_threads(tmp_path, monkeypatch, unpinned,
                                                      name):
    outputs = {}
    # at 2 threads the pin is skipped; then the real pin takes the count to 1
    for threads, pin in ((2, lambda: None), (1, blas.single_thread)):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        config_path = shaped_experiment(run_dir, name)
        monkeypatch.setattr(cli, "single_thread", pin)
        for stage in FIT_STAGES:
            assert main([stage, "--config", str(config_path)]) == EXIT_OK
            assert set(openblas_threads().values()) == {threads}
        outputs[threads] = _outputs(run_dir / "out")
    names = sorted(outputs[1])
    assert any(n.startswith("fit_") for n in names)
    assert any(n.startswith("shap_phi_") for n in names)
    assert any(n.startswith("grid_") for n in names)
    assert any(n.endswith(".svg") for n in names) == (name == "c7")
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize("stage", FIT_STAGES)
def test_fit_stage_pins_every_openblas_to_one_thread(tmp_path, unpinned, stage):
    config_path = shaped_experiment(tmp_path, "c7")
    assert main([stage, "--config", str(config_path)]) == EXIT_OK
    assert set(openblas_threads().values()) == {1}


def test_simulate_leaves_thread_count_alone(tmp_path, unpinned):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config_doc()))
    assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
    assert set(openblas_threads().values()) == {2}


def test_every_mapped_openblas_names_its_kernel():
    names = openblas_corenames()
    assert sorted(names) == sorted(Path(path).name for path in blas._loaded_paths())
    assert all(names.values())


@pytest.mark.skipif(platform.machine() != "x86_64", reason="Haswell is an x86-64 kernel")
def test_forced_kernel_is_the_one_named():
    # the kernel is chosen when OpenBLAS loads, so only a new process can change it
    src = str(Path(mixrobust.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import json, scipy.linalg; from mixrobust.blas import "
         "openblas_corenames; print(json.dumps(openblas_corenames()))"],
        env=env, capture_output=True, text=True, check=True)
    names = json.loads(done.stdout)
    assert names and set(names.values()) == {"Haswell"}
