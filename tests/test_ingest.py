import hashlib
from pathlib import Path

import numpy as np
import pytest

from crtest import (
    CrtestError,
    IngestSpec,
    NegativeTime,
    ParseError,
    UnmappedLabel,
    ingest,
)
from crtest.cli import cli_main

from oracles import row_loop_ingest

FIXTURES = Path(__file__).parent / "fixtures"


def spec_for(path, **overrides):
    kwargs = dict(
        path=path,
        time_column="time",
        cause_column="status",
        cause1_labels={"1"},
        cause2_labels={"2"},
        drop_labels={"0"},
    )
    kwargs.update(overrides)
    return IngestSpec(**kwargs)


def test_toy_fixture_roundtrip():
    result = ingest(spec_for(FIXTURES / "toy.csv"))
    assert result.n_used == 5
    assert result.n_dropped == 2
    assert result.rows_parsed == 7
    s = result.sample
    assert list(s.times) == [2.0, 1.0, 4.0, 5.0, 6.0]
    assert list(s.causes) == [1, 2, 1, 2, 1]


def test_string_labels_route_and_drop(tmp_path):
    f = tmp_path / "labels.csv"
    f.write_text("time,status\n1.0,SI\n2.0,AIDS\n3.0,event-free\n")
    result = ingest(
        spec_for(
            f,
            cause1_labels={"SI"},
            cause2_labels={"AIDS"},
            drop_labels={"event-free"},
        )
    )
    assert result.n_used == 2
    assert result.n_dropped == 1
    assert list(result.sample.times) == [1.0, 2.0]
    assert list(result.sample.causes) == [1, 2]


def test_ingest_is_deterministic():
    a = ingest(spec_for(FIXTURES / "toy.csv"))
    b = ingest(spec_for(FIXTURES / "toy.csv"))
    assert a.sample == b.sample
    assert a.fingerprint == b.fingerprint


def test_fingerprint_is_sha256_of_bytes():
    path = FIXTURES / "toy.csv"
    result = ingest(spec_for(path))
    assert result.fingerprint == hashlib.sha256(path.read_bytes()).hexdigest()


def test_column_by_index_and_no_header(tmp_path):
    f = tmp_path / "bare.csv"
    f.write_text("1.5,2\n2.5,1\n3.5,2\n")
    result = ingest(
        IngestSpec(
            path=f,
            time_column=0,
            cause_column=1,
            cause1_labels={"1"},
            cause2_labels={"2"},
            has_header=False,
        )
    )
    assert result.n_used == 3
    assert list(result.sample.causes) == [2, 1, 2]


def test_named_column_without_header_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        IngestSpec(
            path=tmp_path / "x.csv",
            time_column="time",
            cause_column=1,
            cause1_labels={"1"},
            cause2_labels={"2"},
            has_header=False,
        )


def test_label_sets_must_be_disjoint():
    with pytest.raises(ValueError):
        spec_for(FIXTURES / "toy.csv", cause1_labels={"1", "2"})
    with pytest.raises(ValueError):
        spec_for(FIXTURES / "toy.csv", drop_labels={"2"})
    with pytest.raises(ValueError):
        spec_for(FIXTURES / "toy.csv", cause2_labels=set())


def test_unmapped_label_is_an_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,status\n1.0,1\n2.0,weird\n")
    with pytest.raises(UnmappedLabel) as exc:
        ingest(spec_for(f))
    assert exc.value.label == "weird"
    assert exc.value.row == 3


def test_negative_time_is_an_error(tmp_path):
    f = tmp_path / "neg.csv"
    f.write_text("time,status\n1.0,1\n-2.0,2\n")
    with pytest.raises(NegativeTime) as exc:
        ingest(spec_for(f))
    assert exc.value.row == 3


def test_non_numeric_time_is_a_parse_error(tmp_path):
    f = tmp_path / "nan.csv"
    f.write_text("time,status\nabc,1\n")
    with pytest.raises(ParseError):
        ingest(spec_for(f))
    f.write_text("time,status\ninf,1\n")
    with pytest.raises(ParseError):
        ingest(spec_for(f))


def test_missing_column_is_a_parse_error(tmp_path):
    f = tmp_path / "cols.csv"
    f.write_text("t,status\n1.0,1\n")
    with pytest.raises(ParseError):
        ingest(spec_for(f))


def test_repeated_column_name_is_a_parse_error(tmp_path):
    # the header names two "time" columns, so --time-col time is ambiguous
    f = tmp_path / "twice.csv"
    f.write_text("time,time,status\n1.0,2.0,1\n3.0,4.0,2\n")
    with pytest.raises(ParseError, match="more than once") as exc:
        ingest(spec_for(f))
    assert exc.value.row == 1 and exc.value.column == "time"
    # a repeated name that no spec refers to is still fine
    f.write_text("time,x,x,status\n1.0,a,b,1\n3.0,c,d,2\n")
    assert ingest(spec_for(f)).n_used == 2


def test_short_row_is_a_parse_error(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("time,status\n1.0,1\n2.0\n")
    with pytest.raises(ParseError) as exc:
        ingest(spec_for(f))
    assert exc.value.row == 3


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_error_row_is_the_file_line_after_a_multiline_field(tmp_path, eol):
    # the quoted note spans file lines 2-3, so the bad time is on line 4
    f = tmp_path / "multi.csv"
    f.write_bytes(eol.join(["time,status,note", '1.0,1,"two', 'lines"', "abc,2,x", ""]).encode())
    with pytest.raises(ParseError, match="row 4") as exc:
        ingest(spec_for(f))
    assert exc.value.row == 4


def test_oversized_field_is_a_parse_error(tmp_path):
    # the csv module refuses fields over its limit (131 072 characters)
    f = tmp_path / "wide.csv"
    f.write_text("time,status\n1.0,1\n2.0," + "2" * 200_000 + "\n3.0,1\n")
    with pytest.raises(ParseError, match="field limit") as exc:
        ingest(spec_for(f))
    assert exc.value.row == 3
    f.write_text("x" * 200_000 + ",status\n1.0,1\n")
    with pytest.raises(ParseError) as exc:
        ingest(spec_for(f))
    assert exc.value.row == 1


def test_blank_lines_are_skipped(tmp_path):
    f = tmp_path / "blank.csv"
    f.write_text("time,status\n1.0,1\n\n2.0,2\n\n")
    result = ingest(spec_for(f))
    assert result.n_used == 2 and result.rows_parsed == 2


def test_whitespace_and_bom_are_tolerated(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_bytes("﻿time,status\n 1.0 , 1 \n2.0,2\n".encode("utf-8"))
    result = ingest(spec_for(f))
    assert result.n_used == 2
    assert list(result.sample.times) == [1.0, 2.0]


def test_multiple_labels_per_cause(tmp_path):
    f = tmp_path / "merge.csv"
    f.write_text(
        "days,mode\n10,lymphoma\n20,sarcoma\n30,other\n40,other\n50,lymphoma\n"
    )
    result = ingest(
        IngestSpec(
            path=f,
            time_column="days",
            cause_column="mode",
            cause1_labels={"lymphoma", "sarcoma"},
            cause2_labels={"other"},
        )
    )
    assert result.sample.count_cause(1) == 3
    assert result.sample.count_cause(2) == 2


def test_one_column_as_time_and_cause_is_refused(tmp_path, capsys):
    f = tmp_path / "same.csv"
    f.write_text("time,status\n1.0,1\n2.0,2\n")
    with pytest.raises(ValueError, match="must differ"):
        spec_for(f, time_column="status")
    with pytest.raises(ValueError, match="must differ"):
        IngestSpec(path=f, time_column=0, cause_column=0, cause1_labels={"1"},
                   cause2_labels={"2"}, has_header=False)
    # a name and an index are different specs, so only the header tells
    for time_column, cause_column in [(1, "status"), ("time", 0)]:
        with pytest.raises(ParseError, match="same column as time column") as exc:
            ingest(spec_for(f, time_column=time_column, cause_column=cause_column))
        assert exc.value.row == 1 and exc.value.column == cause_column
    for cols in (["status", "status"], ["1", "status"]):
        argv = ["test", "--input", str(f), "--time-col", cols[0], "--cause-col", cols[1],
                "--cause1", "1", "--cause2", "2"]
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


# Fragments of the parity corpus: a good cell most of the time, a bad one
# now and then, so that both whole samples and every error path are common.
GOOD_TIMES = ["1.5", " 2 ", "0", "3e2", "-0.0", '"4.25"', "7.5\t", "1_000"]
BAD_TIMES = ["-1", "-2.5", "-1e-300", "abc", "", "inf", "-inf", "nan", "0x10"]
# a cause-1 label longer than any other cell in the corpus: a reader
# that infers one string width from the other cells would cut it short
LONG_LABEL = "SI, then the longest cell"
GOOD_LABELS = ["1", "2", "0", " 1", "2 ", '"1"', "SI", f'"{LONG_LABEL}"']
# "#" is data, never a comment marker
BAD_LABELS = ["x", "", "3", "1 2", "#1"]
GOOD_NOTES = ["a", "", '"two\nlines"', '"q,uoted"', "b\x00c", '"x""y"', "\u00e9", "# x"]
BAD_NOTES = ["c\rd", '"open']


def _pick(rng, good, bad, p_bad=0.04):
    return str(rng.choice(bad if rng.random() < p_bad else good))


def random_csv(rng):
    """Bytes of one random CSV file and the keyword arguments of its spec,
    or None when both columns would be the same one."""
    width = int(rng.integers(2, 5))
    has_header = bool(rng.random() < 0.8)
    names = [str(v) for v in rng.permutation(["time", "status", "note", "x"])[:width]]
    if rng.random() < 0.1:
        names[-1] = names[0]
    if rng.random() < 0.2:
        names[0] = f" {names[0]} "
    stripped = [h.strip() for h in names]

    def column():
        if has_header and rng.random() < 0.6:
            return "missing" if rng.random() < 0.03 else str(rng.choice(stripped))
        return width if rng.random() < 0.03 else int(rng.integers(0, width))

    def position(col):
        return col if isinstance(col, int) else (
            stripped.index(col) if stripped.count(col) == 1 else None)

    time_column, cause_column = column(), column()
    t_pos, c_pos = position(time_column), position(cause_column)
    if time_column == cause_column or has_header and t_pos is not None and t_pos == c_pos:
        return None
    lines = [",".join(names)] if has_header else []
    for _ in range(int(rng.integers(0, 9))):
        kind = rng.random()
        if kind < 0.06:
            lines.append(str(rng.choice(["", " ", ",", ",,", " , "])))
            continue
        cells = []
        for p in range(width + (1 if kind > 0.97 else 0)):
            if p == t_pos:
                cells.append(_pick(rng, GOOD_TIMES, BAD_TIMES, 0.08))
            elif p == c_pos:
                cells.append(_pick(rng, GOOD_LABELS, BAD_LABELS))
            else:
                cells.append(_pick(rng, GOOD_NOTES + GOOD_TIMES + GOOD_LABELS, BAD_NOTES))
        if kind < 0.09:
            cells = cells[:int(rng.integers(1, width))]
        lines.append(",".join(cells))
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
    bom = "\ufeff" if rng.random() < 0.2 else ""
    spec = dict(time_column=time_column, cause_column=cause_column, has_header=has_header,
                cause1_labels={"1", "SI", LONG_LABEL}, cause2_labels={"2"},
                drop_labels={"0"} if rng.random() < 0.7 else set())
    return (bom + text).encode(), spec


# named cases: each is the file's bytes and overrides of spec_for's arguments
EDGE_CASES = {
    "empty": (b"", {}),
    "empty, no header": (b"", dict(time_column=0, cause_column=1, has_header=False)),
    "header only": (b"time,status\n", {}),
    "bom only": ("\ufeff".encode(), {}),
    "blank lines only": (b"\n\n\n", dict(time_column=0, cause_column=1)),
    "blank first line": (b"\ntime,status\n1,1\n", {}),
    "not utf-8": (b"time,status\n1.0,\xff\n", {}),
    "all dropped": (b"time,status\n1,0\n2,0\n", {}),
    "field limit in header": (b"x" * 200_000 + b",status\n1,1\n", {}),
    "field limit in row 3": (b"time,status\n1,1\n2," + b"2" * 200_000 + b"\n", {}),
    "open quote at the end": (b'time,status\n1,1\n2,"2\n', {}),
    "bad time after a multi-line field": (b'time,status,note\n1,1,"a\nb"\nabc,2,x\n', {}),
    "bare CR": (b"time,status\n1,1\r2,2\n", {}),
    "bare CR in a multi-line record": (b'time,status,note\n1,1,"a\nb",c\rd\n', {}),
    "repeated name": (b"time,time,status\n1,2,1\n", {}),
    "missing name": (b"t,status\n1,1\n", {}),
    "index past the row": (b"time,status\n1,1\n", dict(cause_column=5)),
    "crlf": (b"time,status\r\n1,1\r\n2,2\r\n", {}),
    "comma-only rows": (b"time,status\n,\n1,1\n , \n2,2\n", {}),
    "# in cells": (b"note,time,status\n# x,1,1\n#,2,2\n# x,3,#1\n", {}),
    "longest cell is a cause-1 label": (
        f'time,status\n1,2\n2,"{LONG_LABEL}"\n3,1\n'.encode(),
        dict(cause1_labels={"1", LONG_LABEL})),
}


def outcome(read, spec):
    """The sample and counts a reader gives, or the error it raises."""
    try:
        r = read(spec)
    except (CrtestError, ValueError) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    s = r.sample
    return (s.times.tobytes(), s.causes.tobytes(), r.n_used, r.n_dropped, r.rows_parsed,
            r.fingerprint)


def test_ingest_matches_the_row_loop_reader(tmp_path):
    f = tmp_path / "case.csv"
    cases = [(name, data, spec_for(f, **kw)) for name, (data, kw) in EDGE_CASES.items()]
    rng = np.random.default_rng(20261018)
    while len(cases) < len(EDGE_CASES) + 400:
        made = random_csv(rng)
        if made is not None:
            data, kw = made
            cases.append((f"random {len(cases)}", data, spec_for(f, **kw)))
    kinds = []
    for name, data, spec in cases:
        f.write_bytes(data)
        got = outcome(ingest, spec)
        assert got == outcome(row_loop_ingest, spec), (name, data, spec)
        kinds.append(got[0] if isinstance(got[0], type) else "sample")
    # the corpus reaches whole samples and every kind of error
    for kind in ("sample", ParseError, NegativeTime, UnmappedLabel):
        assert kinds.count(kind) >= 10, kind
