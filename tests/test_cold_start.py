"""Every stage as a fresh process, as `mixrobust <stage>` runs it: the stages
that never fit start without scipy, and `analyze`, the one stage that fits,
loads scipy before it pins OpenBLAS, so scipy's OpenBLAS runs at one thread
too. The pytest process has scipy loaded already, so only a new process can
show either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixrobust

from test_pipeline import small_config_doc

STAGES = ("design", "simulate", "analyze", "shap", "contour", "report")

# runs one stage, prints what it left loaded as the last stdout line, and
# exits with the stage's code
_PROBE = """
import json, sys
from mixrobust.blas import openblas_threads
from mixrobust.cli import main
before = openblas_threads()
code = main(sys.argv[1:])
print(json.dumps({"scipy": "scipy" in sys.modules,
                  "before": before, "after": openblas_threads()}))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def cold_stages(tmp_path_factory):
    """{stage: probe result} for each stage run in order as a fresh process,
    with OpenBLAS asked for 2 threads."""
    run_dir = tmp_path_factory.mktemp("cold")
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(small_config_doc()))
    src = str(Path(mixrobust.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    results = {}
    for stage in STAGES:
        done = subprocess.run([sys.executable, "-c", _PROBE, stage, "--config",
                               str(config_path), "--jobs", "1"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (stage, done.stderr)
        results[stage] = json.loads(done.stdout.splitlines()[-1])
    return results


# shap and contour read the fits `analyze` reported
@pytest.mark.parametrize("stage", ["design", "simulate", "shap", "contour", "report"])
def test_stage_that_never_fits_starts_without_scipy(cold_stages, stage):
    assert not cold_stages[stage]["scipy"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="on one CPU OpenBLAS starts at 1 thread")
def test_analyze_pins_scipys_openblas_too(cold_stages):
    before, after = cold_stages["analyze"]["before"], cold_stages["analyze"]["after"]
    if not before:
        pytest.skip("no OpenBLAS mapped into a fresh process")
    # the stage starts with numpy's OpenBLAS at 2 threads, and maps scipy's
    assert set(before.values()) == {2}
    assert set(after) > set(before)
    assert set(after.values()) == {1}
