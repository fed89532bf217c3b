"""Record validation and CSV round-trips."""

import csv
import datetime
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equality import same_dataset, same_graph, same_households, same_series
from solartwin.cli import _load_dataset, _load_survey, _save_dataset, _save_matrix, _save_survey
from solartwin.preprocess import LabeledDataset
from solartwin.pv import EnergyProfiles, load_daily, load_profile_rows, save_daily, save_profiles
from solartwin.records import (
    FEATURE_DOMAINS,
    FEATURE_NAMES,
    N_SQFT_CLASSES,
    AdopterTarget,
    Graph,
    HouseholdTable,
    IngestError,
    IrradianceSeries,
    _parse_column,
    load_households,
    load_irradiance,
    load_network,
    load_targets,
    read_csv,
    save_households,
    save_irradiance,
    save_network,
    save_targets,
    sqft_class_range,
    write_csv,
)

ROOT = Path(__file__).resolve().parents[1]

FEATURES = {
    "NHSLDMEM": 2,
    "BEDROOMS": 3,
    "TYPEHUQ": 2,
    "FUELHEAT": 1,
    "KOWNRENT": 1,
    "YEARMADERANGE": 5,
    "MONEYPY": 8,
    "BA_climate": 4,
}


def make_table(n=1, features=None, **columns):
    """n households, ids 0..n-1 unless given; a column given as a scalar
    holds that value in every row, and features defaults to FEATURES."""
    base = dict(id=range(n), state="VA", county="51001", tract="51001000001", lat=37.5, lon=-78.0)
    base.update(columns)
    if features is None:
        features = np.tile(list(FEATURES.values()), (n, 1))
    return HouseholdTable(
        features=features,
        **{c: v if isinstance(v, (list, range)) else [v] * n for c, v in base.items()},
    )


def test_sqft_class_range():
    assert sqft_class_range(0) == (0.0, 600.0)
    assert sqft_class_range(6) == (3000.0, 4000.0)
    assert sqft_class_range(7) == (4000.0, 8000.0)
    with pytest.raises(ValueError):
        sqft_class_range(8)


def test_record_validation_errors():
    with pytest.raises(IngestError, match=r"row 3, column lat: 123.0 out of \[-90, 90\]"):
        make_table(2, lat=[37.5, 123.0])
    bad = np.array([list(FEATURES.values())])
    bad[0, FEATURE_NAMES.index("MONEYPY")] = 42
    with pytest.raises(IngestError, match="column MONEYPY: code 42 outside domain"):
        make_table(features=bad)
    with pytest.raises(ValueError, match=r"an \(1, 8\) features matrix"):
        make_table(features=bad[:, 1:])
    with pytest.raises(IngestError, match="column sqft_class: 8 out of"):
        make_table(sqft_class=8)
    with pytest.raises(IngestError, match="column sqft_value: -10.0 must be > 0"):
        make_table(sqft_value=-10.0)


def test_duplicate_ids_rejected():
    with pytest.raises(IngestError, match="duplicate household id 3"):
        make_table(2, id=[3, 3])


def test_features_column_order():
    X = make_table(2).features
    assert X.shape == (2, 8)
    assert X.dtype == np.int64
    assert list(X[0]) == [2, 3, 2, 1, 1, 5, 8, 4]


def test_households_roundtrip(tmp_path):
    table = make_table(
        2, sqft_class=[3, None], sqft_value=[None, 1234.5], solar=[True, False],
        lmi=[False, True], rural=[True, False],
    )
    path = tmp_path / "households.csv"
    save_households(table, path)
    again = load_households(path)
    assert same_households(again, table)
    assert again.solar.tolist() == [True, False]
    assert again.sqft_value.tolist() == [None, 1234.5]


def test_rows_and_equality():
    table = make_table(3, sqft_value=[None, 900.0, 1234.5], solar=[True, None, False])
    rows = list(table)
    assert [len(row) for row in rows] == [1, 1, 1]
    assert [bool(row.solar) for row in rows] == [True, False, False]
    assert same_households(rows[2], make_table(id=2, sqft_value=1234.5, solar=False))
    # missing is not False
    assert not same_households(rows[1], make_table(id=1, sqft_value=900.0, solar=False))
    assert not same_households(rows[1], make_table(id=1, sqft_value=900.5))
    assert not same_households(table, make_table(2, sqft_value=[None, 900.0], solar=[True, None]))
    assert same_households(table, table.replace(lat=table.lat.copy()))


# text cells in the CSV dialect, and the characters the dialect leaves out
_OFF_DIALECT = ',"\r\n\0'
_DIALECT_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=_OFF_DIALECT)
)

_OPTIONAL_VALUES = {
    "sqft_class": st.integers(0, N_SQFT_CLASSES - 1),
    "sqft_value": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "solar": st.booleans(),
    "lmi": st.booleans(),
    "rural": st.booleans(),
}


@st.composite
def household_tables(draw):
    """Tables with unique non-negative ids, text in the CSV dialect, in-range
    lat/lon and in-domain codes; each optional column is absent, fully
    filled or partly empty."""
    n = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = {
        "id": draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True)),
        "state": column(_DIALECT_TEXT),
        "county": column(_DIALECT_TEXT),
        "tract": column(_DIALECT_TEXT),
        "lat": column(st.floats(-90.0, 90.0)),
        "lon": column(st.floats(-180.0, 180.0)),
        "features": np.array(
            [column(st.sampled_from(FEATURE_DOMAINS[f])) for f in FEATURE_NAMES], dtype=np.int64
        ).T,
    }
    for name, values in _OPTIONAL_VALUES.items():
        fill = draw(st.sampled_from(("absent", "full", "partial")))
        if fill != "absent":
            columns[name] = column(values if fill == "full" else st.none() | values)
    return HouseholdTable(**columns)


@settings(max_examples=50, deadline=None)
@given(household_tables())
def test_households_roundtrip_property(table):
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "a.csv"), Path(scratch, "b.csv")
        save_households(table, first)
        again = load_households(first)
        assert same_households(again, table)
        save_households(again, second)
        assert second.read_bytes() == first.read_bytes()


@st.composite
def energy_profiles(draw):
    """Profiles of 0-4 households over 1-3 distinct dates, in any order,
    with finite hourly means and stds."""
    n = draw(st.integers(0, 4))
    dates = draw(st.lists(st.dates(), min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    cells = st.lists(st.floats(0.0, 1e12), min_size=n * len(dates) * 24,
                     max_size=n * len(dates) * 24)
    mean, std = (np.reshape(draw(cells), (n, len(dates), 24)) for _ in range(2))
    return EnergyProfiles(np.array(ids, dtype=np.int64), dates, mean, std, mean.sum(-1).mean(1))


@settings(max_examples=50, deadline=None)
@given(energy_profiles())
def test_daily_roundtrip_property(profiles):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "daily_x.csv")
        save_daily(profiles, path)
        columns = load_daily(path)
    n, days = len(profiles.household), len(profiles.dates)
    assert columns["household_id"].tolist() == np.repeat(profiles.household, days).tolist()
    assert columns["date"].tolist() == profiles.dates * n
    assert columns["daily_mean_kwh"].tolist() == profiles.daily_mean.ravel().tolist()
    assert columns["daily_std_kwh"].tolist() == profiles.daily_std.ravel().tolist()


@settings(max_examples=50, deadline=None)
@given(energy_profiles())
def test_profiles_roundtrip_property(profiles):
    with tempfile.TemporaryDirectory() as scratch:
        paths = save_profiles(profiles, scratch)
        loaded = [load_profile_rows(path) for path in paths]
    n = len(profiles.household)
    order = sorted(range(len(profiles.dates)), key=profiles.dates.__getitem__) if n else []
    assert [Path(path).name for path in paths] == [
        f"profiles_{profiles.dates[j].isoformat()}.csv" for j in order
    ]
    for j, columns in zip(order, loaded):
        assert columns["household_id"].tolist() == np.repeat(profiles.household, 24).tolist()
        assert columns["date"].tolist() == [profiles.dates[j].isoformat()] * n * 24
        assert columns["hour"].tolist() == list(range(24)) * n
        assert columns["mean_kwh"].tolist() == profiles.hourly_mean[:, j].ravel().tolist()
        assert columns["std_kwh"].tolist() == profiles.hourly_std[:, j].ravel().tolist()


def _reference_write_csv(path, header, rows):
    """write_csv as csv.writer rows, before the columnar join."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reference_read_csv(path, columns, optional=None):
    """read_csv as csv.reader rows, before the whole-text split."""
    name = Path(path).name
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    for column in header:
        if header.count(column) > 1:
            raise IngestError(f"{name}: repeated column {column}")
    for column in columns:
        if column not in header:
            raise IngestError(f"{name}: missing column {column}")
    for number, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise IngestError(
                f"{name}: row {number}: expected {len(header)} fields, got {len(row)}"
            )
    cells = dict(zip(header, zip(*body))) if body else dict.fromkeys(header, ())
    numbers = range(2, len(body) + 2)
    out = {
        column: _parse_column(name, column, cells[column], numbers, parse)
        for column, parse in columns.items()
    }
    for column, parse in (optional or {}).items():
        values = [None] * len(body)
        present = [i for i, cell in enumerate(cells.get(column, ())) if cell != ""]
        parsed = _parse_column(
            name, column, [cells[column][i] for i in present], [i + 2 for i in present], parse
        )
        for i, value in zip(present, parsed):
            values[i] = value
        out[column] = values
    return out


def _read_csv_lists(path, columns, optional=None):
    """read_csv with its required columns as lists."""
    out = read_csv(path, columns, optional)
    return out | {column: out[column].tolist() for column in columns}


def _outcome(load, *args):
    """What ``load(*args)`` returns, or the type and text of what it raises."""
    try:
        return load(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _reference_dialect_fault(text):
    """The IngestError text read_csv gives for ``text`` off the dialect,
    found one line at a time, or None for text in the dialect."""
    lines = text.split("\n")
    ended = len(lines) - 1  # the lines a LF ends
    if text.endswith("\n"):
        lines.pop()
    # a CR right before a LF is part of the line end; any other is a fault
    lines = [line[:-1] if i < ended and line.endswith("\r") else line
             for i, line in enumerate(lines)]
    faults = {'"': 'a quote (")', "\0": "a NUL", "\r": "a CR that ends no line"}
    width = lines[0].count(",") + 1
    for row, line in enumerate(lines, start=1):
        found = sorted((line.index(char), what) for char, what in faults.items() if char in line)
        if found or not line:
            fault = found[0][1] if found else "a blank line"
            return f"table.csv: row {row}: {fault} is not allowed"
        if line.count(",") + 1 != width:
            return f"table.csv: row {row}: expected {width} fields, got {line.count(',') + 1}"
    return None


# cells the parsers accept or reject, and characters outside the dialect
_PLAIN_CELLS = st.sampled_from(
    ["0", "7", "-3", "1_0", " 2", "4 ", "0.5", "1e3", "nan", "inf", "-infinity", "", "x",
     "2018-01-01", "99999999999999999999", "\x85", "\u2028", "\x0b"]
)
_ODD_CELLS = st.text(st.sampled_from('a1., "\r\n\0\t'), max_size=4)
_CELLS = st.one_of(_PLAIN_CELLS, _PLAIN_CELLS, _ODD_CELLS)
_ENDINGS = st.sampled_from(["\n", "\r\n"])


@st.composite
def csv_texts(draw):
    """Text of a table whose header mixes required, optional, unknown and
    duplicate names.  Half have rows of plain cells at the header's width
    (LF, CRLF or mixed endings), in the dialect unless a one-column row is
    empty; the rest may also have blank lines, ragged rows, odd cells
    (quotes, NUL, stray CR, commas) and no final newline."""
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5))
    width = len(header)
    plain = draw(st.booleans())
    widths = st.just(width) if plain else st.one_of(st.just(width), st.integers(0, width + 1))
    cells = _PLAIN_CELLS if plain else _CELLS
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w)),
                         max_size=6))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if not plain and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = "".join(line + draw(_ENDINGS) for line in lines)
    return text if plain or draw(st.booleans()) else text.rstrip("\r\n")


# required and optional parsers per column; "e" is never asked for
_READ_PARSERS = [
    ({"a": int, "b": float}, {"c": int, "d": float}),
    ({"a": str, "c": datetime.date.fromisoformat}, {"b": str}),
    ({}, {"a": int}),
]


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from(_READ_PARSERS))
@example("a,b\r\n1,2.5\r\n3,nan\r\n", _READ_PARSERS[0])
@example("a,b\n1_0, 2\n\n", _READ_PARSERS[0])
@example("a,b\n1,2\r3,4\n", _READ_PARSERS[0])
@example("a\n1\r2\n", _READ_PARSERS[2])
@example("a,b\n1,2\n3\n", _READ_PARSERS[0])
@example("a,b\n1,\"2\"\n", _READ_PARSERS[0])
@example("a,b,a\n1,2,x\n", _READ_PARSERS[0])
@example("a,b\n1,2", _READ_PARSERS[0])
@example("a,b\n1,2222\n", _READ_PARSERS[0])
@example("a,b\n1\x002,2\n", _READ_PARSERS[0])
@example("", _READ_PARSERS[2])
def test_read_csv_matches_csv_reader(text, parsers):
    """On text in the dialect the whole-text split gives csv.reader's
    columns, or the same error; text off it fails naming its first row off
    the dialect."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "table.csv")
        path.write_bytes(text.encode())
        fault = _reference_dialect_fault(text)
        want = (IngestError, fault) if fault else _outcome(_reference_read_csv, path, *parsers)
        assert _outcome(_read_csv_lists, path, *parsers) == want


def test_read_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path):
    header = ["id", "state", "county", "tract", "lat", "lon", *FEATURES]
    rows = [header, _HOUSEHOLD, ["1", "VirgXnia", *_HOUSEHOLD[2:]]]
    path = tmp_path / "households.csv"
    path.write_bytes("".join(",".join(row) + "\n" for row in rows).encode().replace(b"X", b"\xed"))
    with pytest.raises(IngestError, match="^households.csv: row 3: byte 0xed is not UTF-8$"):
        load_households(path)


def test_tables_are_utf8_under_any_locale(tmp_path):
    # a table reads and writes as UTF-8 whatever the locale's encoding
    code = (
        "import sys; from solartwin.records import read_csv, write_csv; "
        "write_csv(sys.argv[1], ['state'], [['Virg\\u00ednia']]); "
        "print(ascii(read_csv(sys.argv[1], {'state': str})['state'].tolist()))"
    )
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    path = tmp_path / "targets.csv"
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['Virg\\xednia']\n"
    assert path.read_bytes() == "state\r\nVirgínia\r\n".encode()


def test_read_csv_loads_a_cell_longer_than_the_csv_module_limit(tmp_path):
    # csv.reader refuses a field longer than field_size_limit(), 131 072 by default
    path = tmp_path / "targets.csv"
    save_targets([AdopterTarget("x" * 200_000, 5)], path)
    assert load_targets(path) == [AdopterTarget("x" * 200_000, 5)]


# cells each parser accepts
_CELLS_OF = {
    int: st.integers(-(2**63), 2**63 - 1).map(str),
    float: st.floats(allow_nan=False, allow_infinity=False).map(repr),
    str: _DIALECT_TEXT,
    datetime.date.fromisoformat: st.dates().map(datetime.date.isoformat),
}


@st.composite
def typed_tables(draw):
    """(parsers, header, columns) of 1-4 columns of cells their parsers
    accept, 0-5 rows; a one-column table has no empty cell, which the
    dialect leaves out."""
    parsers = draw(st.lists(st.sampled_from(list(_CELLS_OF)), min_size=1, max_size=4))
    rows = draw(st.integers(0, 5))
    header = [f"c{j}" for j in range(len(parsers))]
    cells = {p: _CELLS_OF[p] if len(parsers) > 1 else _CELLS_OF[p].filter(bool) for p in parsers}
    columns = [draw(st.lists(cells[p], min_size=rows, max_size=rows)) for p in parsers]
    return dict(zip(header, parsers)), header, columns


@settings(max_examples=200, deadline=None)
@given(typed_tables())
def test_read_csv_columns_are_typed_arrays(table):
    """Each required column is an int64, float64 or object array of the
    reference's cells."""
    parsers, header, columns = table
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "table.csv")
        write_csv(path, header, columns)
        got, want = read_csv(path, parsers), _reference_read_csv(path, parsers)
    for column, parse in parsers.items():
        expected = np.array(want[column], {int: np.int64, float: np.float64}.get(parse, object))
        assert got[column].dtype == expected.dtype
        assert got[column].shape == expected.shape == (len(columns[0]),)
        assert np.array_equal(got[column], expected)


@st.composite
def csv_tables(draw):
    """(header, columns) of 1-4 columns and 0-5 rows; cells are in the
    dialect or hold commas, quotes, CR, LF, NUL or nothing."""
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    cells = st.one_of(_PLAIN_CELLS, _ODD_CELLS, st.text(max_size=3))
    header = draw(st.lists(cells, min_size=width, max_size=width))
    columns = [draw(st.lists(cells, min_size=rows, max_size=rows)) for _ in range(width)]
    return header, columns


@settings(max_examples=400, deadline=None)
@given(csv_tables())
@example((["sqft"], [["1.5", "", "2.0"]]))
@example(([""], [["1"]]))
@example((["a", "b"], [["x,y", "1"], ["2", 'q"']]))
@example((["a", "b"], [["1\r", "2"], ["\n", "3"]]))
@example((["a"], [[]]))
def test_write_csv_matches_csv_writer(table):
    """A table in the dialect is written as csv.writer writes it; any other
    raises ValueError and writes nothing."""
    header, columns = table
    with tempfile.TemporaryDirectory() as scratch:
        got, want = Path(scratch, "got.csv"), Path(scratch, "want.csv")
        if not _in_dialect(header, columns):
            with pytest.raises(ValueError, match="is not in the CSV dialect"):
                write_csv(got, header, columns)
            assert not got.exists()
            return
        write_csv(got, header, columns)
        _reference_write_csv(want, header, zip(*columns))
        assert got.read_bytes() == want.read_bytes()


def _in_dialect(header, columns) -> bool:
    """Whether read_csv could read back every cell of a table: none holds a
    character the dialect leaves out, and a one-column table has no empty
    cell (its line would be blank)."""
    cells = [*header, *itertools.chain(*columns)]
    return (
        len(header) > 0
        and not any(char in cell for cell in cells for char in _OFF_DIALECT)
        and not (len(header) == 1 and "" in cells)
    )


@st.composite
def text_tables(draw):
    """(header, columns) of 1-4 uniquely named columns and 0-5 rows of any
    text, often holding characters the dialect leaves out."""
    cells = st.one_of(st.text(), _ODD_CELLS)
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    header = draw(st.lists(cells, min_size=width, max_size=width, unique=True))
    columns = [draw(st.lists(cells, min_size=rows, max_size=rows)) for _ in range(width)]
    return header, columns


@settings(max_examples=400, deadline=None)
@given(text_tables())
@example((["a", "b"], [["1\0"], ["2"]]))
@example((["a"], [["x", ""]]))
@example((["a", "b"], [["\x85\u2028\x0b", ""], ["", " "]]))
def test_csv_dialect_roundtrip_property(table):
    """write_csv raises ValueError exactly on a table off the dialect, and
    read_csv with str parsers reads back every cell of any other."""
    header, columns = table
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "table.csv")
        try:
            write_csv(path, header, columns)
        except ValueError:
            assert not _in_dialect(header, columns)
            return
        assert _in_dialect(header, columns)
        got = read_csv(path, dict.fromkeys(header, str))
    assert [got[name].tolist() for name in header] == columns


@pytest.mark.parametrize("char", list(_OFF_DIALECT))
@pytest.mark.parametrize("saver", ["state", "county", "tract", "targets", "matrix"])
def test_savers_refuse_text_off_the_dialect(tmp_path, saver, char):
    # the round-trip properties draw text in the dialect only; text holding
    # any other character fails to save, and no file is written
    text = f"V{char}A"
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="is not in the CSV dialect"):
        if saver == "targets":
            save_targets([AdopterTarget(text, 1)], path)
        elif saver == "matrix":
            _save_matrix(np.eye(1), [text], path)
        else:
            save_households(make_table(2, **{saver: ["VA", text]}), path)
    assert not path.exists()


def test_write_csv_needs_one_column_per_header_name(tmp_path):
    with pytest.raises(ValueError, match="need 2 equal-length columns"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [["1"], ["2", "3"]])
    with pytest.raises(ValueError, match="need 2 equal-length columns"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [["1"]])


def test_households_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,state\n0,VA\n")
    with pytest.raises(IngestError, match="missing column county"):
        load_households(path)
    path.write_text("state,count\nVA,5\nMD\n")
    with pytest.raises(IngestError, match="row 3: expected 2 fields, got 1"):
        load_targets(path)


_HOUSEHOLD = ["0", "VA", "51001", "t1", "37.5", "-78.0"] + [str(v) for v in FEATURES.values()]
# loader, file name, header, two valid data rows (rows 2 and 3)
TABLES = {
    "households": (
        load_households, "households.csv",
        ["id", "state", "county", "tract", "lat", "lon", *FEATURES, "sqft_class", "sqft_value"],
        [_HOUSEHOLD + ["3", "1500.0"], ["1"] + _HOUSEHOLD[1:] + ["", ""]],
    ),
    "irradiance": (
        lambda path: load_irradiance(path, "t1"), "irradiance_t1.csv", ["date", "hour", "ghi_wm2"],
        [["2018-01-01", str(h), "10.5"] for h in range(24)],
    ),
    "targets": (load_targets, "targets.csv", ["state", "count"], [["VA", "5"], ["MD", "7"]]),
    "survey": (_load_survey, "survey.csv", ["sqft"], [["1200.0"], ["2400.5"]]),
    "dataset": (
        _load_dataset, "train_solar.csv", [*FEATURE_NAMES, "label"],
        [[str(v) for v in FEATURES.values()] + [label] for label in ("0", "1")],
    ),
    "daily": (
        load_daily, "daily_x.csv",
        ["household_id", "date", "daily_mean_kwh", "daily_std_kwh"],
        [["0", "2018-01-01", "3.5", "0.25"], ["1", "2018-01-01", "4.0", "0.5"]],
    ),
    "profiles": (
        load_profile_rows, "profiles_2018-01-01.csv",
        ["household_id", "date", "hour", "mean_kwh", "std_kwh"],
        [["0", "2018-01-01", "0", "0.0", "0.0"], ["0", "2018-01-01", "1", "0.5", "0.1"]],
    ),
}


@pytest.mark.parametrize(
    "table, row, column, cell",
    [
        ("households", 3, "lat", "north"),
        ("households", 2, "sqft_value", "nan"),
        ("households", 2, "sqft_value", "inf"),
        ("households", 3, "MONEYPY", "eight"),
        ("households", 3, "lat", "123.0"),
        ("households", 2, "MONEYPY", "42"),
        ("households", 2, "sqft_class", "8"),
        ("households", 2, "sqft_value", "-10"),
        ("households", 3, "id", "0"),
        ("households", 2, "id", "99999999999999999999"),
        ("households", 2, "id", "-7"),
        ("irradiance", 5, "ghi_wm2", "inf"),
        ("irradiance", 3, "hour", "1.0"),
        ("irradiance", 14, "ghi_wm2", "-1.0"),
        ("irradiance", 6, "hour", "7"),
        ("irradiance", 4, "date", "2018-01-02"),
        ("irradiance", 24, "hour", None),
        ("targets", 3, "count", "seven"),
        ("targets", 2, "count", "-1"),
        ("survey", 3, "sqft", "nan"),
        ("survey", 3, "sqft", "-1.0"),
        ("survey", 2, "sqft", "-1e308"),
        ("dataset", 3, "label", "x"),
        ("dataset", 3, "NHSLDMEM", "-1"),
        ("dataset", 2, "label", "99"),
        ("daily", 2, "daily_mean_kwh", "-inf"),
        ("daily", 3, "date", "2018-13-01"),
        ("profiles", 3, "date", "2018-01-02"),
        ("profiles", 2, "mean_kwh", "NaN"),
        ("daily", 3, "daily_mean_kwh", "-5"),
        ("daily", 2, "daily_std_kwh", "-1e-9"),
        ("profiles", 3, "hour", "99"),
        ("profiles", 2, "hour", "-1"),
        ("profiles", 3, "mean_kwh", "-3"),
        ("profiles", 2, "std_kwh", "-0.5"),
    ],
)
def test_loaders_name_bad_cell(tmp_path, table, row, column, cell):
    """A bad cell, or with cell None a table that ends at that row, fails
    naming the file, row and column."""
    loader, name, header, rows = TABLES[table]
    path = tmp_path / name
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    loader(path)  # the untouched table loads
    rows = [list(r) for r in rows]
    if cell is None:
        del rows[row - 1 :]
    else:
        rows[row - 2][header.index(column)] = cell
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{name}: row {row}, column {column}: ")):
        loader(path)


@pytest.mark.parametrize("date_row, hour_row", [(2, 3), (3, 2), (2, 2)])
def test_profile_rows_name_date_before_hour(tmp_path, date_row, hour_row):
    # the date column comes before hour, so its bad cell is the one named,
    # wherever the bad hour is
    loader, name, header, rows = TABLES["profiles"]
    rows = [list(r) for r in rows]
    rows[date_row - 2][header.index("date")] = "2018-01-02"
    rows[hour_row - 2][header.index("hour")] = "1.5"
    path = tmp_path / name
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    with pytest.raises(
        IngestError,
        match=rf"^{re.escape(name)}: row {date_row}, column date: bad value '2018-01-02'$",
    ):
        loader(path)


@pytest.mark.parametrize(
    "table, rule_cell, parse_cell, message",
    [
        ("dataset", ("NHSLDMEM", "-1"), ("BEDROOMS", "x"), "code -1 outside domain"),
        ("dataset", ("NHSLDMEM", "-1"), ("label", "x"), "code -1 outside domain"),
        ("daily", ("daily_mean_kwh", "-5"), ("daily_std_kwh", "x"), "-5.0 must be >= 0"),
        ("profiles", ("hour", "99"), ("mean_kwh", "x"), "99 out of [0, 23]"),
        ("profiles", ("mean_kwh", "-3"), ("std_kwh", "nan"), "-3.0 must be >= 0"),
    ],
)
def test_rule_of_an_earlier_column_wins(tmp_path, table, rule_cell, parse_cell, message):
    # a column is parsed and checked before the next is parsed, so a cell
    # that breaks a rule in row 3 is named before a later column's
    # unparsable cell in row 2
    loader, name, header, rows = TABLES[table]
    rows = [list(r) for r in rows]
    rows[1][header.index(rule_cell[0])] = rule_cell[1]
    rows[0][header.index(parse_cell[0])] = parse_cell[1]
    path = tmp_path / name
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    with pytest.raises(IngestError) as error:
        loader(path)
    assert str(error.value) == f"{name}: row 3, column {rule_cell[0]}: {message}"


def test_irradiance_roundtrip(tmp_path):
    hours = np.arange(48, dtype=float)
    series = IrradianceSeries("t1", datetime.date(2018, 1, 1), hours)
    assert series.days == 2
    assert list(series.ghi_for_date(datetime.date(2018, 1, 2))) == list(hours[24:])
    with pytest.raises(ValueError, match="^no irradiance for tract t1 on 2018-01-03$"):
        series.ghi_for_date(datetime.date(2018, 1, 3))
    path = tmp_path / "irr.csv"
    save_irradiance(series, path)
    assert same_series(load_irradiance(path, "t1"), series)


@settings(max_examples=50, deadline=None)
@given(
    st.text(),
    st.dates(datetime.date(1, 1, 1), datetime.date(9000, 12, 31)),
    st.integers(1, 4).flatmap(
        lambda days: st.lists(
            st.floats(0.0, allow_infinity=False), min_size=24 * days, max_size=24 * days
        )
    ),
)
def test_irradiance_roundtrip_property(tract, start, hours):
    series = IrradianceSeries(tract, start, hours)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "irradiance.csv")
        save_irradiance(series, path)
        loaded = load_irradiance(path, tract)
    assert same_series(loaded, series)
    assert list(map(repr, loaded.hours.tolist())) == list(map(repr, hours))


@st.composite
def _named_matrices(draw):
    names = draw(
        st.lists(_DIALECT_TEXT.filter(lambda name: name != "feature"), min_size=1, max_size=6,
                 unique=True)
    )
    cells = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cells, min_size=len(names) ** 2, max_size=len(names) ** 2))
    return names, np.array(values).reshape(len(names), len(names))


@settings(max_examples=50, deadline=None)
@given(_named_matrices())
def test_matrix_roundtrip_property(named):
    names, matrix = named
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "corr_after.csv")
        _save_matrix(matrix, names, path)
        columns = read_csv(path, {"feature": str, **dict.fromkeys(names, float)})
    assert columns["feature"].tolist() == names
    loaded = np.array([columns[name] for name in names]).T.reshape(matrix.shape)
    assert loaded.tobytes() == matrix.tobytes()


def test_irradiance_validation(tmp_path):
    with pytest.raises(IngestError, match="not divisible by 24"):
        IrradianceSeries("x", datetime.date(2018, 1, 1), np.zeros(25))
    with pytest.raises(IngestError, match="negative"):
        IrradianceSeries("x", datetime.date(2018, 1, 1), np.full(24, -1.0))

    rows = ["date,hour,ghi_wm2"]
    rows += [f"2018-01-01,{h},0.0" for h in range(24)]
    rows[5] = "2018-01-01,9,0.0"  # hour 4 replaced by 9
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestError, match=r"expected day 1 \(2018-01-01\) hour 4"):
        load_irradiance(path, "x")

    short = tmp_path / "short.csv"
    short.write_text("date,hour,ghi_wm2\n" + "\n".join(f"2018-01-01,{h},1.0" for h in range(5)) + "\n")
    with pytest.raises(IngestError, match="ends mid-day"):
        load_irradiance(short, "x")


def _reference_load_irradiance(path, tract):
    """load_irradiance checking contiguity one row at a time."""
    columns = read_csv(
        path, {"date": datetime.date.fromisoformat, "hour": int, "ghi_wm2": float}
    )
    dates, hours, ghi = (columns[c].tolist() for c in ("date", "hour", "ghi_wm2"))
    name = Path(path).name
    if not ghi:
        raise IngestError(f"{name}: no rows")
    negative = next((i for i, value in enumerate(ghi) if value < 0), None)
    if negative is not None:
        raise IngestError(
            f"{name}: row {negative + 2}, column ghi_wm2: negative GHI {ghi[negative]!r}"
        )
    start = dates[0]
    for i, (date, hour) in enumerate(zip(dates, hours)):
        expect_date = start + datetime.timedelta(days=i // 24)
        expect_hour = i % 24
        if date != expect_date or hour != expect_hour:
            day_index = (expect_date - start).days + 1
            column = "date" if date != expect_date else "hour"
            raise IngestError(
                f"{name}: row {i + 2}, column {column}: "
                f"gap in hours: expected day {day_index} ({expect_date}) "
                f"hour {expect_hour}, found {date} hour {hour}"
            )
    if len(ghi) % 24 != 0:
        raise IngestError(
            f"{name}: row {len(ghi) + 1}, column hour: "
            f"series ends mid-day at {dates[-1]} hour {hours[-1]}"
        )
    return IrradianceSeries(tract, start, np.array(ghi))


@st.composite
def irradiance_rows(draw):
    """(date, hour, ghi) rows of 0-3 whole days, some near date.max, then
    rows deleted, repeated, re-dated, re-houred or made negative."""
    start = draw(st.sampled_from(
        [datetime.date(2018, 1, 1), datetime.date(2016, 2, 28), datetime.date(9999, 12, 30)]
    ))
    days = draw(st.integers(0, 3))
    rows = [
        [(start + datetime.timedelta(days=d)).isoformat(), str(h), "1.5"]
        for d in range(min(days, (datetime.date.max - start).days + 1)) for h in range(24)
    ]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "date", "hour", "negative", "extend"]))
        if edit == "delete":
            del rows[i]
        elif edit == "repeat":
            rows.insert(i, list(rows[i]))
        elif edit == "date":
            rows[i][0] = draw(st.sampled_from(["2018-01-02", "2017-12-31", "9999-12-31"]))
        elif edit == "hour":
            rows[i][1] = str(draw(st.integers(-1, 25)))
        elif edit == "negative":
            rows[i][2] = "-0.5"
        else:
            rows += [list(row) for row in rows[: draw(st.integers(1, 30))]]
    return rows


@settings(max_examples=200, deadline=None)
@given(irradiance_rows())
def test_load_irradiance_matches_row_scan(rows):
    """The whole-column contiguity check reports the row scan's first gap."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "irradiance_t1.csv")
        write_csv(path, ["date", "hour", "ghi_wm2"], [[row[j] for row in rows] for j in range(3)])
        got, want = (_outcome(load, path, "t1")
                     for load in (load_irradiance, _reference_load_irradiance))
    if isinstance(got, IrradianceSeries) and isinstance(want, IrradianceSeries):
        assert same_series(got, want)
    else:
        assert got == want


def test_targets_roundtrip(tmp_path):
    targets = [AdopterTarget("VA", 50), AdopterTarget("MD", 7)]
    path = tmp_path / "targets.csv"
    save_targets(targets, path)
    assert load_targets(path) == targets
    with pytest.raises(IngestError, match="negative adopter count"):
        AdopterTarget("VA", -1)


@pytest.mark.parametrize("plain", [True, False])
def test_read_csv_rejects_repeated_column(tmp_path, plain):
    # a repeated name is an error, not the last column; in a file off the
    # dialect, the row off it is named first
    text = "state,count,count\nVA,5,7\n" if plain else 'state,count,count\nVA,5,"7"\n'
    message = "repeated column count" if plain else 'row 2: a quote (") is not allowed'
    path = tmp_path / "targets.csv"
    path.write_text(text)
    with pytest.raises(IngestError, match=f"^targets.csv: {re.escape(message)}$"):
        load_targets(path)
    with pytest.raises(IngestError, match=f"^targets.csv: {re.escape(message)}$"):
        read_csv(path, {"state": str})


def test_graph_dedup_and_validation():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edge_count == 2
    assert g.edge_u.tolist() == [0, 2] and g.edge_v.tolist() == [1, 3]
    assert g.edge_u.dtype == g.edge_v.dtype == np.int64
    # distinct edges whose lo * node_count + hi agree modulo 2**64
    g = Graph(2**62, [(0, 5), (4, 5), (5, 0)])
    assert g.edge_u.tolist() == [0, 4] and g.edge_v.tolist() == [5, 5]
    g = Graph(2**63 - 1, [(2, 9), (0, 7), (9, 2)])
    assert g.edge_u.tolist() == [2, 0] and g.edge_v.tolist() == [9, 7]
    # ordered with a repeat, and unique but out of order: both take the sort
    g = Graph(4, [(0, 1), (0, 1), (2, 3)])
    assert g.edge_u.tolist() == [0, 2] and g.edge_v.tolist() == [1, 3]
    g = Graph(4, [(0, 2), (0, 1)])
    assert g.edge_u.tolist() == [0, 0] and g.edge_v.tolist() == [2, 1]
    with pytest.raises(IngestError, match="self-loop at node 2"):
        Graph(4, [(2, 2)])
    with pytest.raises(IngestError, match="outside node range"):
        Graph(2, [(0, 5)])


def test_network_roundtrip(tmp_path):
    g = Graph(5, [(0, 1), (3, 4)])
    path = tmp_path / "network.edges"
    save_network(g, path)
    assert same_graph(load_network(path, 5), g)


def test_network_parsing(tmp_path):
    # save_network's format is the only one: a comment, a blank line, a
    # comma, a tab, a CR, a sign, a third endpoint or a missing final LF is
    # off it, and the error names the file and the first such line
    path = tmp_path / "net.edges"
    path.write_text("0 1\n2 3\n")
    assert load_network(path, 4).edge_count == 2
    for text, line, got in [
        ("# comment\n0 1\n", 1, "# comment\n"), ("0 1\n2,3\n", 2, "2,3\n"), ("0 1\n\n", 2, "\n"),
        ("0\t1\n", 1, "0\t1\n"), ("0 1\r\n", 1, "0 1\r\n"), ("0 1\n-1 2\n", 2, "-1 2\n"),
        ("0 1 2\n", 1, "0 1 2\n"), ("0 1\n2 3", 2, "2 3"),
    ]:
        path.write_bytes(text.encode())
        with pytest.raises(IngestError) as error:
            load_network(path, 4)
        assert str(error.value) == (
            f"net.edges: line {line}: expected two node ids, one space and LF, got {got!r}"
        )
    for text, message in [("0 1\n0 0\n", "line 2: self-loop at node 0"),
                          ("0 1\n1 7\n", "line 2: edge (1, 7) outside node range"),
                          ("3 3\n", "line 1: self-loop at node 3")]:
        path.write_text(text)
        with pytest.raises(IngestError, match=f"^net.edges: {re.escape(message)}$"):
            load_network(path, 3)


def test_load_network_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "network.edges"
    path.write_bytes(b"0 1\n0 \xff\n")
    with pytest.raises(IngestError) as error:
        load_network(path, 3)
    assert str(error.value) == (
        r"network.edges: line 2: expected two node ids, one space and LF, got '0 \\xff\n'"
    )


@st.composite
def graphs(draw):
    """Graphs on 0-12 nodes with up to 30 edges, given in any orientation."""
    n = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, draw(st.lists(pairs, max_size=30)) if n > 1 else [])


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_network_roundtrip_property(graph):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "network.edges")
        save_network(graph, path)
        again = load_network(path, graph.node_count)
    assert again.edge_u.tolist() == graph.edge_u.tolist()
    assert again.edge_v.tolist() == graph.edge_v.tolist()
    assert again.node_count == graph.node_count


def _reference_load_network(path, node_count):
    """load_network as a scan of one line at a time, before the whole-file
    parse of save_network's format."""
    name = Path(path).name
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise IngestError(f"line {lineno}: expected two endpoints, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise IngestError(f"line {lineno}: non-integer endpoint in {line!r}") from None
            if u == v:
                raise IngestError(f"{name}: line {lineno}: self-loop at node {u}")
            if min(u, v) < 0 or max(u, v) >= node_count:
                raise IngestError(f"{name}: line {lineno}: edge ({u}, {v}) outside node range")
            edges.append((u, v))
    return Graph(node_count, edges)


_ODD_ENDPOINTS = st.one_of(
    st.integers(0, 14).map(lambda v: f"00{v}"),
    st.integers(-3, 14).map(lambda v: f"{v:+d}"),
    st.sampled_from(["1_0", "x", "1.5", "", "\u0663", str(2**63 - 1), str(2**63), str(-(2**63) - 1),
                     "999999999999999999", "1000000000000000000", "0" * 19 + "7"]),
)
# mostly plain small endpoints, so that a whole mixed file often loads
_ENDPOINTS = st.one_of(st.integers(0, 14).map(str), st.integers(0, 14).map(str), _ODD_ENDPOINTS)
_SEPARATORS = st.sampled_from([" ", " ", ",", "\t", ", ", "  "])


@st.composite
def edge_files(draw):
    """Edge-list text: either lines as save_network writes them, or lines
    mixing blanks, comments, commas, tabs, signs, underscores, leading
    zeros, self-loops, out-of-range, negative and int64-overflowing
    endpoints, and one or three tokens."""
    if draw(st.booleans()):
        pair = st.tuples(st.integers(0, 14), st.integers(0, 14))
        lines = [f"{u} {v}" for u, v in draw(st.lists(pair, max_size=20))]
        return "".join(line + "\n" for line in lines)
    pair_line = st.builds(lambda u, sep, v: f"{u}{sep}{v}", _ENDPOINTS, _SEPARATORS, _ENDPOINTS)
    odd_line = st.lists(_ENDPOINTS, min_size=1, max_size=3).flatmap(
        lambda tokens: _SEPARATORS.map(lambda sep: sep.join(tokens))
    )
    line = st.one_of(
        pair_line, pair_line, pair_line.map(lambda text: f"  {text} "), odd_line,
        st.sampled_from(["", "   ", "# comment", "#0 0", " # indented"]),
    )
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(draw(st.lists(line, max_size=8)))
    return text + ending if draw(st.booleans()) else text


def _reference_format_fault(text):
    """load_network's error for ``text`` off save_network's format, found
    one line at a time, or None for text in the format."""
    lines = text.split("\n")
    last = lines.pop()  # what follows the final LF, a line only if not empty
    bad = [(n, line + "\n") for n, line in enumerate(lines, start=1)
           if not re.fullmatch("[0-9]{1,18} [0-9]{1,18}", line)]
    if last:
        bad.append((len(lines) + 1, last))
    if not bad:
        return None
    number, got = bad[0]
    return f"network.edges: line {number}: expected two node ids, one space and LF, got {got!r}"


@settings(max_examples=400, deadline=None)
@given(edge_files(), st.integers(0, 16))
@example("0 1\n2 3\n", 4)
@example("0 1\n1 1\n", 2)
@example("0 1\n3 4\n", 4)
@example("", 0)
@example("999999999999999999 1\n", 10**18)
@example("9223372036854775808 1\n", 16)
@example("0 1\n0000000000000000002 1\n", 3)
def test_load_network_matches_line_scan(text, node_count):
    """A file in save_network's format loads as the line scan loads it, or
    fails as the scan does on the same line; any other file fails naming
    its first line off the format."""
    def load(load_graph):
        graph = load_graph(path, node_count)
        return graph.node_count, graph.edge_u.tolist(), graph.edge_v.tolist()

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "network.edges")
        path.write_bytes(text.encode())
        fault = _reference_format_fault(text)
        want = (IngestError, fault) if fault else _outcome(load, _reference_load_network)
        assert _outcome(load, load_network) == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(AdopterTarget, _DIALECT_TEXT, st.integers(0, 2**63 - 1)), max_size=6))
def test_targets_roundtrip_property(targets):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "targets.csv")
        save_targets(targets, path)
        assert load_targets(path) == targets


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), max_size=20))
def test_survey_roundtrip_property(values):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "survey.csv")
        _save_survey(values, path)
        assert list(map(repr, _load_survey(path).tolist())) == list(map(repr, values))


@st.composite
def labeled_datasets(draw):
    """2-8 rows of in-domain feature codes, labelled with both 0 and 1 (the
    loader rejects a label column without both classes)."""
    n = draw(st.integers(2, 8))
    X = np.array(
        [draw(st.lists(st.sampled_from(FEATURE_DOMAINS[f]), min_size=n, max_size=n))
         for f in FEATURE_NAMES], dtype=np.int64,
    ).T.reshape(n, len(FEATURE_NAMES))
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    y = draw(labels.filter(lambda y: len(set(y)) == 2))
    return LabeledDataset(X, y, tuple(tuple(FEATURE_DOMAINS[f]) for f in FEATURE_NAMES))


@settings(max_examples=50, deadline=None)
@given(labeled_datasets())
def test_dataset_roundtrip_property(data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "train_solar.csv")
        _save_dataset(data, path)
        again = _load_dataset(path)
    assert same_dataset(again, data)
    assert again.domains == data.domains
