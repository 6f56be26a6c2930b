import hashlib
import json
from pathlib import Path

import pytest

from crtest import (
    IngestSpec,
    NegativeTime,
    ParseError,
    RunReport,
    UnmappedLabel,
    ingest,
    jel_test,
)

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


def test_run_report_json_and_text():
    result = ingest(spec_for(FIXTURES / "toy.csv"))
    test_result = jel_test(result.sample)
    report = RunReport(
        method="jel",
        result=test_result,
        n_used=result.n_used,
        n_dropped=result.n_dropped,
        input_sha256=result.fingerprint,
        tool_version="0.1.0",
    )
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 1
    assert payload["method"] == "jel"
    assert payload["n_used"] == 5 and payload["n_dropped"] == 2
    assert payload["input_sha256"] == result.fingerprint
    assert payload["result"]["n"] == 5
    # json round-trips python floats exactly
    assert payload["result"]["statistic"] == test_result.statistic
    assert payload["result"]["p_value"] == test_result.p_value
    text = report.to_text()
    assert "rows used:     5" in text
    assert "p value:" in text
    assert "independence at alpha=0.05" in text
