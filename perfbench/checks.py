"""Output checks: digests of the byte-deterministic files, SVG well-formedness,
and file-for-file equality between two output directories."""

from __future__ import annotations

import fnmatch
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1

# files the program writes byte-for-byte the same under a fixed config;
# SVGs are left out because their encoding is expected to change
DETERMINISTIC = ("plan.csv", "outcomes.csv", "run_metadata.json", "fit_*.json",
                 "shap_*.json", "shap_phi_*.csv", "grid_*.csv", "report.txt")


class Checks:
    """Named pass/fail results; each one counts towards `attempted`."""

    def __init__(self):
        self.results = []

    def add(self, name, ok):
        self.results.append((name, bool(ok)))
        return ok

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]

    def __len__(self):
        return len(self.results)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def deterministic_digests(out_dir):
    return {p.name: sha256(p) for p in sorted(Path(out_dir).iterdir())
            if any(fnmatch.fnmatch(p.name, pat) for pat in DETERMINISTIC)}


def svg_paths(out_dir):
    return sorted(Path(out_dir).glob("*.svg"))


def svg_is_wellformed(path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError:
        return False
    return root.tag.rsplit("}", 1)[-1] == "svg"


def load_reference(workload):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def save_reference(workload, digests, svg_count):
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc[workload] = {"seed": DEFAULT_SEED, "svg_count": svg_count, "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def check_against_reference(checks, reference, digests, svgs, seed):
    """File names and SVG count must match the reference; digests only for
    the seed the reference was recorded with."""
    if reference is None:
        checks.add("reference.present", False)
        return
    expected = reference["digests"]
    for name in sorted(set(expected) | set(digests)):
        if seed == reference["seed"]:
            ok = expected.get(name) == digests.get(name)
        else:
            ok = name in expected and name in digests
        checks.add(f"reference:{name}", ok)
    checks.add("svg.count", len(svgs) == reference["svg_count"])
    for path in svgs:
        checks.add(f"svg.wellformed:{path.name}", svg_is_wellformed(path))


def check_same_files(checks, label, expected_dir, actual_dir, names):
    for name in names:
        a, b = Path(expected_dir) / name, Path(actual_dir) / name
        checks.add(f"{label}:{name}",
                   a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes())
