"""Every headed-CSV reader rejects a malformed file in its own error class,
naming the path, and the line for a row error. The atomic writer gives each
file the mode open() would."""

import os
import re
import stat

import pytest

from mixrobust.classifiers import ExternalRunnerError, _read_scores_csv
from mixrobust.fileio import atomic_write_bytes
from mixrobust.metrics import MetricsError, outcomes_header, read_outcomes_csv
from mixrobust.sampling import SamplingError, load_pool_csv

# reader, its error class, a valid header and a valid row
READERS = {
    "outcomes": (read_outcomes_csv, MetricsError, outcomes_header(3, 2),
                 "0,1,balanced,1,0,0.333333,0.333333,0.333334,0.9,0.8,0.7,0.8,-2.3,0"),
    "pool": (load_pool_csv, SamplingError, ["label", "f1", "f2"], "1,0.5,0.25"),
    "scores": (lambda path: _read_scores_csv(path, 2, 1), ExternalRunnerError,
               ["score_1", "score_2"], "0.25,0.75"),
}


def _malformed(case, header, row):
    """(file text or bytes, message pattern after the path) for one malformed
    case."""
    fields = row.split(",")
    if case == "empty":
        return "", ": empty file"
    if case == "wrong-header":
        return ",".join(["bogus"] + header[1:]) + "\n" + row + "\n", ": expected header"
    if case == "short-row":
        text = ",".join(fields[:-1])
        return ",".join(header) + "\n" + text + "\n", (
            f":2: expected {len(fields)} fields, got {len(fields) - 1}")
    if case == "undecodable":
        # blank lines are skipped: the byte lies past the first 8 KiB decoded,
        # after the header and a row were read
        text = ",".join(header) + "\n" + row + "\n" + "\n" * 9000
        return text.encode() + b"\xff\n", ": .*can't decode byte 0xff"
    if case == "oversized-field":
        # over the csv module's 131,072-character field limit
        fields[-2] = "9" * 140_000
        return ",".join(header) + "\n" + ",".join(fields) + "\n", ":2: field larger"
    fields[-2] = "x"
    return ",".join(header) + "\n" + ",".join(fields) + "\n", ":2: .*'x'"


@pytest.mark.parametrize("case", ["empty", "wrong-header", "short-row", "non-numeric",
                                  "undecodable", "oversized-field"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_malformed_file_names_path_and_line(tmp_path, name, case):
    read, error, header, row = READERS[name]
    text, message = _malformed(case, header, row)
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(error, match=re.escape(str(path)) + message):
        read(path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_table_reads(tmp_path, name):
    # so each malformed case above fails on its one malformation
    read, _, header, row = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(header) + "\n\n" + row + "\n")
    read(path)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_takes_the_umask(tmp_path, umask, mode):
    before = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "result.csv", b"x\n")
        (tmp_path / "plain.csv").write_bytes(b"x\n")
        left = os.umask(before)
    finally:
        os.umask(before)
    assert left == umask
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"result.csv": mode, "plain.csv": mode}
