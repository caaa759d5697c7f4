"""The files the stages exchange: atomic emission, headed CSV tables, JSON."""

import csv
import io
import json
import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path, data: bytes):
    """Write bytes to path via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0o077)  # os.umask reads only by setting; 077 loosens nothing
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # open()'s mode, not mkstemp's 0600
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, doc):
    """Atomically write doc as 2-space-indented JSON plus a final newline."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def csv_text(header, rows) -> str:
    """A headed CSV table as text, one "\\n"-terminated line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_csv(path, error, layout):
    """parse_row(row) for each non-blank row of the headed CSV table at path,
    as a list; see iter_csv for layout and the errors."""
    return [parsed for _, parsed in iter_csv(path, error, layout)]


def iter_csv(path, error, layout):
    """Yield (line number, parse_row(row)) for each non-blank row of the headed
    CSV table at path, reading one row at a time.

    layout(header) returns (expected_header, parse_row). An empty file, a bad
    header or an undecodable byte raises error("<path>: <reason>"); a bad row
    (wrong width, csv.Error, ValueError from parse_row) error("<path>:<line>: <reason>").
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file, expected a header line")
            expected, parse_row = layout(header)
            if header != expected:
                raise error(f"{path}: expected header {','.join(expected)}, "
                            f"got {','.join(header)}")
            for row in filter(None, reader):
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    parsed = parse_row(row)
                except ValueError as exc:
                    raise error(f"{path}:{reader.line_num}: {exc}") from None
                yield reader.line_num, parsed
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from None
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None
