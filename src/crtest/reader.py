"""CSV ingestion with cause-label recoding: a CSV file becomes a ``Sample``.

Real datasets rarely arrive with causes coded as 1/2; the ingest spec maps
raw label strings onto cause 1, cause 2, or "drop this row" (e.g. censored
records).  Matching is exact on the stripped cell text.  Any label outside
the three sets is an error rather than a silent drop, so a typo in the
mapping cannot quietly change the sample.  Reports on a sample are written
by their caller (the CLI), not here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from pathlib import Path

from ._checks import flag, integer, items
from .data import Record, Sample
from .errors import NegativeTime, ParseError, UnmappedLabel


class IngestSpec(Record):
    """How to read one CSV file.

    ``time_column`` / ``cause_column`` are header names (str) or zero-based
    positions (int); names require ``has_header``.  The three label sets are
    collections of labels, never a bare str, and must be pairwise disjoint.
    """

    path: str | Path
    time_column: str | int
    cause_column: str | int
    cause1_labels: frozenset[str]
    cause2_labels: frozenset[str]
    drop_labels: frozenset[str] = frozenset()
    has_header: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.path, (str, os.PathLike)):
            raise ValueError(f"path must be a str or os.PathLike, got {self.path!r}")
        for name in ("time_column", "cause_column"):
            col = getattr(self, name)
            object.__setattr__(self, name, col if isinstance(col, str) else integer(col, name))
        for name in ("cause1_labels", "cause2_labels", "drop_labels"):
            labels = items(getattr(self, name), name)
            object.__setattr__(self, name, frozenset(str(v).strip() for v in labels))
        object.__setattr__(self, "has_header", flag(self.has_header, "has_header"))
        c1, c2, drop = self.cause1_labels, self.cause2_labels, self.drop_labels
        if not c1 or not c2:
            raise ValueError("cause1_labels and cause2_labels must be non-empty")
        overlap = (c1 & c2) | (c1 & drop) | (c2 & drop)
        if overlap:
            raise ValueError(f"label sets must be disjoint; shared: {sorted(overlap)}")
        for col in (self.time_column, self.cause_column):
            if isinstance(col, str) and not self.has_header:
                raise ValueError(
                    f"column {col!r} is a name but the file has no header; use an index"
                )
        if self.time_column == self.cause_column:
            raise ValueError(f"time_column and cause_column must differ, got {self.time_column!r}"
                             " for both")


class IngestResult(Record):
    """A parsed sample plus its row counts and the file's fingerprint.

    ``n_used + n_dropped`` is the number of data rows parsed;
    ``fingerprint`` is the SHA-256 of the raw file bytes.
    """

    sample: Sample
    n_used: int
    n_dropped: int
    fingerprint: str


def _column_index(col: str | int, header: list[str]) -> int:
    if isinstance(col, int):
        return col
    stripped = [h.strip() for h in header]
    count = stripped.count(col)
    if count != 1:
        problem = "appears more than once in" if count else "not found in"
        raise ParseError(1, col, f"column {problem} header {stripped}")
    return stripped.index(col)


def _cell(row: list[str], idx: int, row_num: int) -> str:
    if idx >= len(row):
        raise ParseError(row_num, idx, f"row has only {len(row)} fields")
    return row[idx].strip()


def ingest(spec: IngestSpec) -> IngestResult:
    """Read, fingerprint and recode one CSV file.

    Raises :class:`ParseError` for malformed cells, :class:`NegativeTime`
    for negative times and :class:`UnmappedLabel` for labels not in the
    spec; row numbers in errors are 1-based file lines.
    """
    raw = Path(spec.path).read_bytes()
    fingerprint = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(0, str(spec.path), f"not valid UTF-8: {exc}") from None

    # label -> cause, with 0 for a dropped row
    route = {**dict.fromkeys(spec.drop_labels, 0), **dict.fromkeys(spec.cause1_labels, 1),
             **dict.fromkeys(spec.cause2_labels, 2)}
    t_idx, c_idx = spec.time_column, spec.cause_column
    times: list[float] = []
    causes: list[int] = []
    n_dropped = 0
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            # a quoted field can span lines, so the next record starts after
            # the last line this one consumed
            row_num, start = start, reader.line_num + 1
            if row_num == 1 and spec.has_header:
                t_idx = _column_index(spec.time_column, row)
                c_idx = _column_index(spec.cause_column, row)
                if t_idx == c_idx:
                    raise ParseError(1, spec.cause_column,
                                     f"same column as time column {spec.time_column!r}")
                continue
            if not "".join(row).strip():
                continue
            raw_time = _cell(row, t_idx, row_num)
            try:
                t = float(raw_time)
            except ValueError:
                raise ParseError(row_num, spec.time_column, f"not a number: {raw_time!r}") from None
            if not math.isfinite(t):
                raise ParseError(row_num, spec.time_column, f"non-finite time: {raw_time!r}")
            if t < 0:
                raise NegativeTime(row_num, spec.time_column, f"negative time: {raw_time!r}")
            label = _cell(row, c_idx, row_num)
            cause = route.get(label)
            if cause is None:
                raise UnmappedLabel(label, row=row_num)
            if cause:
                times.append(t)
                causes.append(cause)
            else:
                n_dropped += 1
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(spec.path), f"malformed CSV: {exc}") from None
    if spec.has_header and start == 1:  # not one record was read
        raise ParseError(0, str(spec.path), "file is empty but a header was expected")

    return IngestResult(sample=Sample.from_arrays(times, causes), n_used=len(times),
                        n_dropped=n_dropped, fingerprint=fingerprint)
