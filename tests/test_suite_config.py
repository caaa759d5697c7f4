import ast
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
SRC = Path(__file__).parents[1] / "src" / "mixrobust"

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


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loads(tree):
    """The names a module reads: each name it loads and each attribute it takes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _imports(tree):
    """(line, bound name) of each import, but those of `from __future__` and
    those in mixmodel.load_scipy, which are made for their side effect."""
    skipped = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name == "load_scipy"
               for node in ast.walk(function)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in skipped
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_import_in_src_is_loaded():
    """Each module loads every name it imports; __init__.py only re-exports."""
    unused = [f"{name}:{line}: {bound}"
              for name, tree in _modules().items() if name != "__init__.py"
              for line, bound in _imports(tree) if bound not in _loads(tree)]
    assert unused == []


def _top_level_names(tree):
    """The names a module binds at its top level, imports aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (target.id for target in ast.walk(node)
                        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store))


def test_every_private_name_in_src_is_loaded():
    """Each module-level _name of src/ is read by some module of src/."""
    modules = _modules()
    loaded = set().union(*map(_loads, modules.values()))
    unread = [f"{name}: {bound}" for name, tree in modules.items()
              for bound in _top_level_names(tree)
              if bound.startswith("_") and not bound.startswith("__") and bound not in loaded]
    assert unread == []
