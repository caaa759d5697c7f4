import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_passes():
    pass
'''


LEAKED_FILE = '''
import gc


def test_leaves_a_file_open(tmp_path):
    (tmp_path / "data.txt").write_text("x")
    handle = open(tmp_path / "data.txt")
    del handle
    gc.collect()


def test_passes():
    pass
'''


def _run_suite(tmp_path, module):
    """Run pytest on one test module under the repo's pyproject.toml."""
    (tmp_path / "test_module.py").write_text(module)
    env = {key: value for key, value in os.environ.items() if key != "PYTEST_ADDOPTS"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_module.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_failing_property_fails_one_test_not_the_session(tmp_path):
    """A falsified @given test under the suite's warning filters fails that test
    alone, and the session goes on to run the rest."""
    result = _run_suite(tmp_path, FAILING_PROPERTY)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_leaked_file_fails_its_test(tmp_path):
    """A file a test leaves open fails that test under the suite's warning filters."""
    result = _run_suite(tmp_path, LEAKED_FILE)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "FAILED test_module.py::test_leaves_a_file_open" in result.stdout
