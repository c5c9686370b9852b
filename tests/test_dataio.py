"""CSV ingestion contract and deterministic serialization."""

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kscreen as ks
from kscreen import dataio
from kscreen.dataio import format_float, json_dumps, write_csv_rows
from kscreen.errors import ArgumentError, DataError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_splits_response_from_predictors(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y,c\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        x, y = ks.load_csv(path, ["y"])
        assert x.n == 3 and x.p == 3 and y.p == 1
        assert x.columns == ("a", "b", "c")
        assert y.columns == ("y",)
        np.testing.assert_array_equal(y.values[:, 0], [3.0, 7.0, 11.0])
        np.testing.assert_array_equal(x.values[:, 2], [4.0, 8.0, 12.0])

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5,abc\n")
        with pytest.raises(DataError, match=r"row 2.*column 3"):
            ks.load_csv(path, ["a"])

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path, f"a,b,c\n1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(DataError, match=rf"'{cell}' at row 3, column 2 \('b'\)"):
            ks.load_csv(path, ["a"])

    @pytest.mark.parametrize("bad_row", ["7,8,abc", "7,8", "7,,9"])
    def test_later_row_error_outranks_earlier_non_finite_cell(self, tmp_path, bad_row):
        path = write_csv(tmp_path, f"a,b,c\n1,nan,3\n4,5,6\n{bad_row}\n")
        with pytest.raises(DataError, match="row 3") as err:
            ks.load_csv(path, ["a"])
        assert "non-finite" not in str(err.value)

    def test_cell_only_str_strip_can_parse_is_accepted(self, tmp_path):
        # str.strip() removes the information separator \x1c, float() and
        # numpy do not: such a row takes the cell-by-cell path.
        path = write_csv(tmp_path, "a,b\n1,\x1c2\n3,4\n")
        x, y = ks.load_csv(path, ["a"])
        np.testing.assert_array_equal(x.values[:, 0], [2.0, 4.0])

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,\n3,4\n")
        with pytest.raises(DataError, match="missing value"):
            ks.load_csv(path, ["a"])

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(44)
        values = rng.standard_normal((6, 4))
        header = "c1,c2,c3,y"
        lines = [header] + [",".join(format_float(v) for v in row) for row in values]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        x, y = ks.load_csv(path, ["y"])
        reloaded = np.column_stack([x.values, y.values])
        np.testing.assert_allclose(reloaded, values, atol=1e-12)

    def test_response_by_position(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        x, y = ks.load_csv(path, [2])
        assert y.columns == ("b",)
        assert x.columns == ("a", "c")

    def test_duplicated_response_name_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,a,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ArgumentError, match=r"'y' appears at positions \[1, 3\]"):
            ks.load_csv(path, ["y"])

    def test_duplicated_name_selected_by_position(self, tmp_path):
        path = write_csv(tmp_path, "y,a,y\n1,2,3\n4,5,6\n")
        x, y = ks.load_csv(path, ["3"])
        assert y.columns == ("y",)
        assert x.columns == ("y", "a")
        np.testing.assert_array_equal(y.values[:, 0], [3.0, 6.0])
        np.testing.assert_array_equal(x.values[:, 0], [1.0, 4.0])

    def test_unknown_response_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ArgumentError):
            ks.load_csv(path, ["nope"])
        with pytest.raises(ArgumentError):
            ks.load_csv(path, [3])

    def test_all_columns_as_response_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ArgumentError):
            ks.load_csv(path, ["a", "b"])

    def test_empty_response_list_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ArgumentError, match="at least one response column"):
            ks.load_csv(path, [])

    def test_duplicate_response_positions_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ArgumentError, match="duplicate response columns"):
            ks.load_csv(path, ["a", 1])

    def test_header_without_data_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            ks.load_csv(path, ["a"])

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            ks.load_csv(path, ["a"])

    def test_missing_file(self):
        with pytest.raises(DataError):
            ks.load_csv("/nonexistent/nowhere.csv", ["y"])

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataError):
            ks.load_csv(path, ["y"])


# Finite cells that numpy's C parser and float() both read; NaN and infinite
# cells; and cells that only the row path reads or that no parser reads.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e-320", "-0", "+.5", "5.", "1E5", " 1.5 ", "\t2", "\u00a03"]),
)
NON_FINITE = st.sampled_from(["nan", "NaN", "-inf", "Infinity", " inf", "1e400", "-1E999"])
SPECIAL = st.one_of(NON_FINITE, st.sampled_from([
    '"3"', '"4,5"', "1_0", "\u0661\u0662", "\uff11", "\x1c2", "", " ", "abc", "0x10", "1 2",
    "#1",
]))


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = [",".join("abcd"[:width])]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["number"] * 12 + ["special", "non-finite", "ragged",
                                                      "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c"])))
            continue
        cells = st.one_of(NUMBERS, SPECIAL) if kind == "special" else NUMBERS
        count = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        row = [draw(cells) for _ in range(count)]
        if kind == "non-finite":
            row[draw(st.integers(0, width - 1))] = draw(NON_FINITE)
        lines.append(",".join(row))
    endings = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = lines[0]
    # No final newline, a final newline, or a trailing blank line.
    for line in lines[1:] + [""] * draw(st.sampled_from([0, 1, 1, 1, 2])):
        text += (draw(st.sampled_from(["\n", "\r\n"])) if endings == "mixed" else endings) + line
    return text


def load_outcome(path, response):
    """load_csv's matrices, or its error's class and message."""
    try:
        x, y = ks.load_csv(path, [response])
    except Exception as e:  # noqa: BLE001 - the class is part of the outcome
        return type(e), str(e)
    return x.values.shape, x.values.tobytes(), x.columns, y.values.tobytes(), y.columns


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=csv_texts(), response=st.sampled_from(["a", "2"]))
def test_fast_body_parse_gives_the_row_paths_values_or_error(text, response):
    # The row path alone is load_csv with the numpy body parse switched off.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = load_outcome(path, response)
        with mock.patch.object(dataio, "_parse_body", lambda lines, width: None):
            want = load_outcome(path, response)
    assert got == want


def test_clean_body_skips_the_row_path(tmp_path, monkeypatch):
    def row_path(*args):
        raise AssertionError("a body numpy can parse went through the row path")

    monkeypatch.setattr(dataio, "_parse_rows", row_path)
    path = write_csv(tmp_path, "y,a\r\n1, 2.5\r\n-3e2,\t4")
    x, y = ks.load_csv(path, ["y"])
    np.testing.assert_array_equal(x.values[:, 0], [2.5, 4.0])
    np.testing.assert_array_equal(y.values[:, 0], [1.0, -300.0])


@pytest.mark.parametrize("response, message", [
    (["nope"], "column 'nope' not found among the header's 2001 names"),
    (["2002"], "position 2002 outside 1..2001"),
    (["y", "1"], "duplicate response columns"),
])
def test_response_columns_are_resolved_before_the_body_is_read(
        tmp_path, monkeypatch, response, message):
    # A wide table's message names the column and the header's width, not
    # each of its 2001 names, and no row of the body is parsed first.
    def no_body(lines, width):
        raise AssertionError("the body was read before the response columns were resolved")

    monkeypatch.setattr(dataio, "_parse_body", no_body)
    header = ",".join(["y"] + [f"x{j}" for j in range(1, 2001)])
    path = write_csv(tmp_path, header + "\n" + ",".join(["1"] * 2001) + "\n")
    with pytest.raises(ArgumentError, match=message) as caught:
        ks.load_csv(path, response)
    assert len(str(caught.value)) < 100


@pytest.mark.parametrize("quoted", [False, True])
def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path, monkeypatch, quoted):
    # A spreadsheet's "CSV UTF-8" export starts with a BOM.  A quoted cell
    # sends the body through the row path, which reads from the start again.
    calls, parse_rows = [], dataio._parse_rows

    def counted(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(dataio, "_parse_rows", counted)
    path = tmp_path / "bom.csv"
    path.write_text('y,a\n1,"2"\n3,4\n' if quoted else "y,a\n1,2\n3,4\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfy,a")
    for response in ("y", "1"):
        x, y = ks.load_csv(str(path), [response])
        assert y.columns == ("y",) and x.columns == ("a",)
        np.testing.assert_array_equal(y.values[:, 0], [1.0, 3.0])
        np.testing.assert_array_equal(x.values[:, 0], [2.0, 4.0])
    assert len(calls) == (2 if quoted else 0)


@pytest.mark.parametrize("body, row", [("1,2\n\n3,4\n", 2), ("1,2\n3,4\n\n", 3),
                                       ("1,2\r\n\r\n", 2)])
def test_blank_line_is_still_rejected(tmp_path, body, row):
    # numpy's parser skips blank lines; the row path names them.
    path = write_csv(tmp_path, "a,b\n" + body)
    with pytest.raises(DataError, match=f"row {row}: expected 2 cells, found 0"):
        ks.load_csv(path, ["a"])


class TestSerialization:
    def test_float_format_round_trips(self):
        rng = np.random.default_rng(9)
        for v in rng.standard_normal(200):
            assert float(format_float(v)) == v

    def test_json_deterministic_bytes(self):
        doc = {"a": 1, "b": [0.1, 0.2], "c": {"d": None, "e": "text"}}
        assert json_dumps(doc) == json_dumps(doc)

    def test_json_parses_back(self):
        import json as json_std

        doc = {"name": "x\"quote", "values": [1.5, 2, None], "flag": True}
        parsed = json_std.loads(json_dumps(doc))
        assert parsed["name"] == 'x"quote'
        assert parsed["values"] == [1.5, 2, None]
        assert parsed["flag"] is True

    def test_json_empty_containers(self):
        assert json_dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'

    def test_json_rejects_unsupported_values(self):
        with pytest.raises(ArgumentError, match="cannot serialize set"):
            json_dumps({"a": {1, 2}})

    @pytest.mark.parametrize("doc", [
        float("nan"), {"a": float("inf")}, {"a": [1.0, {"b": -float("inf")}]},
        [np.float64("nan")], (2.5, np.float32("inf")),
    ])
    def test_json_rejects_nan_and_infinities(self, doc):
        # JSON has no number for them; json.loads rejects bare nan and inf.
        with pytest.raises(ArgumentError, match="not a finite number"):
            json_dumps(doc)

    def test_csv_rows_use_same_float_format(self, tmp_path):
        import io

        buf = io.StringIO()
        write_csv_rows(buf, ("k", "v"), [("pi", 3.141592653589793)])
        text = buf.getvalue()
        assert "3.1415926535897931" in text


def test_load_csv_holds_the_table_at_most_about_twice(tmp_path):
    # The response is taken first and the parsed table dropped before the
    # predictor block's DataMatrix copy: 2.07 times the table's bytes on a
    # 2-core host, against 3.07 when the table, the block and its copy
    # were held at once.
    n, p = 200, 600
    table = np.random.default_rng(0).standard_normal((n, p + 1))
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(p)]) + "\n")
        np.savetxt(fh, table, delimiter=",", fmt="%.17g")
    ks.load_csv(path, ["y"])  # any first-call allocations
    tracemalloc.start()
    try:
        x, y = ks.load_csv(path, ["y"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.values.tobytes() == table[:, 1:].tobytes()
    assert y.values.tobytes() == table[:, :1].tobytes()
    assert peak < 2.2 * table.nbytes
