"""Record validation and CSV round-trips."""

import csv
import datetime
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert sqft_class_range(7, top_cap=9000.0) == (4000.0, 9000.0)
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
    assert again == table
    assert again.solar.tolist() == [True, False]
    assert again.sqft_value.tolist() == [None, 1234.5]


def test_rows_and_equality():
    table = make_table(3, sqft_value=[None, 900.0, 1234.5], solar=[True, None, False])
    rows = list(table)
    assert [len(row) for row in rows] == [1, 1, 1]
    assert [bool(row.solar) for row in rows] == [True, False, False]
    assert rows[2] == make_table(id=2, sqft_value=1234.5, solar=False)
    assert rows[1] != make_table(id=1, sqft_value=900.0, solar=False)  # missing is not False
    assert rows[1] != make_table(id=1, sqft_value=900.5)
    assert table != make_table(2, sqft_value=[None, 900.0], solar=[True, None])
    assert table == table.replace(lat=table.lat.copy())


_OPTIONAL_VALUES = {
    "sqft_class": st.integers(0, N_SQFT_CLASSES - 1),
    "sqft_value": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "solar": st.booleans(),
    "lmi": st.booleans(),
    "rural": st.booleans(),
}


@st.composite
def household_tables(draw):
    """Tables with unique ids, in-range lat/lon and in-domain codes; each
    optional column is absent, fully filled or partly empty."""
    n = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = {
        "id": draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n,
                            unique=True)),
        "state": column(st.text()),
        "county": column(st.text()),
        "tract": column(st.text()),
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
        assert again == table
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
    assert columns["household_id"] == np.repeat(profiles.household, days).tolist()
    assert columns["date"] == profiles.dates * n
    assert columns["daily_mean_kwh"] == profiles.daily_mean.ravel().tolist()
    assert columns["daily_std_kwh"] == profiles.daily_std.ravel().tolist()


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
        assert columns["household_id"] == np.repeat(profiles.household, 24).tolist()
        assert columns["date"] == [profiles.dates[j].isoformat()] * n * 24
        assert columns["hour"] == list(range(24)) * n
        assert columns["mean_kwh"] == profiles.hourly_mean[:, j].ravel().tolist()
        assert columns["std_kwh"] == profiles.hourly_std[:, j].ravel().tolist()


def _reference_write_csv(path, header, rows):
    """write_csv as csv.writer rows, before the columnar join."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reference_read_csv(path, columns, optional=None):
    """read_csv as csv.reader rows, before the whole-text split."""
    name = Path(path).name
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header, body = (rows[0], rows[1:]) if rows else ([], [])
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


# cells the parsers accept or reject, and characters outside the plain dialect
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
    duplicate names.  Half are in the plain dialect (LF, CRLF or mixed
    endings); the rest may also have blank lines, ragged rows, odd cells
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
@given(csv_texts(), st.sampled_from(_READ_PARSERS), st.sampled_from([131072, 3]))
@example("a,b\r\n1,2.5\r\n3,nan\r\n", _READ_PARSERS[0], 131072)
@example("a,b\n1_0, 2\n\n", _READ_PARSERS[0], 131072)
@example("a,b\n1,2\r3,4\n", _READ_PARSERS[0], 131072)
@example("a\n1\r2\n", _READ_PARSERS[2], 131072)
@example("a,b\n1,2\n3\n", _READ_PARSERS[0], 131072)
@example("a,b\n1,\"2\"\n", _READ_PARSERS[0], 131072)
@example("a,b,a\n1,2,x\n", _READ_PARSERS[0], 131072)
@example("a,b\n1,2", _READ_PARSERS[0], 131072)
@example("a,b\n1,2222\n", _READ_PARSERS[0], 3)
@example("a,b\n1\x002,2\n", _READ_PARSERS[0], 131072)
@example("", _READ_PARSERS[2], 131072)
def test_read_csv_matches_csv_reader(text, parsers, field_limit):
    """The whole-text split gives csv.reader's columns, or the same error."""
    limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch, "table.csv")
            path.write_bytes(text.encode())
            outcomes = []
            for read in (read_csv, _reference_read_csv):
                try:
                    outcomes.append(read(path, *parsers))
                except Exception as exc:  # noqa: BLE001 - the error itself is compared
                    outcomes.append((type(exc), str(exc)))
    finally:
        csv.field_size_limit(limit)
    assert outcomes[0] == outcomes[1]


@st.composite
def csv_tables(draw):
    """(header, columns) of 1-4 columns and 0-5 rows; cells are plain or
    hold commas, quotes, CR, LF or nothing."""
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
    header, columns = table
    with tempfile.TemporaryDirectory() as scratch:
        got, want = Path(scratch, "got.csv"), Path(scratch, "want.csv")
        write_csv(got, header, columns)
        _reference_write_csv(want, header, zip(*columns))
        assert got.read_bytes() == want.read_bytes()


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
        load_irradiance, "irradiance_t1.csv", ["date", "hour", "ghi_wm2"],
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
        ("irradiance", 5, "ghi_wm2", "inf"),
        ("irradiance", 3, "hour", "1.0"),
        ("targets", 3, "count", "seven"),
        ("survey", 3, "sqft", "nan"),
        ("dataset", 3, "label", "x"),
        ("daily", 2, "daily_mean_kwh", "-inf"),
        ("daily", 3, "date", "2018-13-01"),
        ("profiles", 3, "date", "2018-01-02"),
        ("profiles", 2, "mean_kwh", "NaN"),
    ],
)
def test_loaders_name_bad_cell(tmp_path, table, row, column, cell):
    loader, name, header, rows = TABLES[table]
    path = tmp_path / name
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    loader(path)  # the untouched table loads
    rows = [list(r) for r in rows]
    rows[row - 2][header.index(column)] = cell
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{name}: row {row}, column {column}: ")):
        loader(path)


def test_irradiance_roundtrip(tmp_path):
    hours = np.arange(48, dtype=float)
    series = IrradianceSeries("t1", datetime.date(2018, 1, 1), hours)
    assert series.days == 2
    assert series.covers(datetime.date(2018, 1, 2))
    assert not series.covers(datetime.date(2018, 1, 3))
    assert list(series.ghi_for_date(datetime.date(2018, 1, 2))) == list(hours[24:])
    path = tmp_path / "irr.csv"
    save_irradiance(series, path)
    assert load_irradiance(path, "t1") == series


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
    assert loaded == series
    assert list(map(repr, loaded.hours.tolist())) == list(map(repr, hours))


@st.composite
def _named_matrices(draw):
    names = draw(
        st.lists(st.text().filter(lambda name: name != "feature"), min_size=1, max_size=6, unique=True)
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
    assert columns["feature"] == names
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
        load_irradiance(path)

    short = tmp_path / "short.csv"
    short.write_text("date,hour,ghi_wm2\n" + "\n".join(f"2018-01-01,{h},1.0" for h in range(5)) + "\n")
    with pytest.raises(IngestError, match="ends mid-day"):
        load_irradiance(short)


def _reference_load_irradiance(path, tract=None):
    """load_irradiance checking contiguity one row at a time."""
    columns = read_csv(
        path, {"date": datetime.date.fromisoformat, "hour": int, "ghi_wm2": float}
    )
    dates, hours, ghi = columns["date"], columns["hour"], columns["ghi_wm2"]
    if not ghi:
        raise IngestError("irradiance file has no rows")
    negative = next((i for i, value in enumerate(ghi) if value < 0), None)
    if negative is not None:
        raise IngestError(f"negative GHI at {dates[negative]} hour {hours[negative]}")
    start = dates[0]
    for i, (date, hour) in enumerate(zip(dates, hours)):
        expect_date = start + datetime.timedelta(days=i // 24)
        expect_hour = i % 24
        if date != expect_date or hour != expect_hour:
            day_index = (expect_date - start).days + 1
            raise IngestError(
                f"gap in hours: expected day {day_index} ({expect_date}) "
                f"hour {expect_hour}, found {date} hour {hour}"
            )
    if len(ghi) % 24 != 0:
        raise IngestError(f"series ends mid-day at {dates[-1]} hour {hours[-1]}")
    return IrradianceSeries("" if tract is None else tract, start, np.array(ghi))


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
        outcomes = []
        for load in (load_irradiance, _reference_load_irradiance):
            try:
                outcomes.append(load(path, "t1"))
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_targets_roundtrip(tmp_path):
    targets = [AdopterTarget("VA", 50), AdopterTarget("MD", 7)]
    path = tmp_path / "targets.csv"
    save_targets(targets, path)
    assert load_targets(path) == targets
    with pytest.raises(IngestError, match="negative adopter count"):
        AdopterTarget("VA", -1)


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
    assert load_network(path, 5) == g


def test_network_parsing(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("# comment\n0 1\n2,3\n\n")
    g = load_network(path)
    assert g.node_count == 4 and g.edge_count == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    with pytest.raises(IngestError, match="line 1: self-loop at node 0"):
        load_network(bad)
    trio = tmp_path / "trio.edges"
    trio.write_text("0 1 2\n")
    with pytest.raises(IngestError, match="expected two endpoints"):
        load_network(trio)
    for edge in ("1 7", "-1 2"):
        outside = tmp_path / "outside.edges"
        outside.write_text(f"# three nodes\n0 1\n{edge}\n")
        with pytest.raises(IngestError, match=rf"line 3: edge \({edge.replace(' ', ', ')}\) outside"):
            load_network(outside, 3)


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
        sized, unsized = load_network(path, graph.node_count), load_network(path)
    for again in (sized, unsized):
        assert again.edge_u.tolist() == graph.edge_u.tolist()
        assert again.edge_v.tolist() == graph.edge_v.tolist()
    assert sized.node_count == graph.node_count
    assert unsized.node_count == int(graph.edge_v.max(initial=-1)) + 1


def _reference_load_network(path, node_count=None):
    """load_network as a scan of one line at a time, before the whole-file
    parse of save_network's format."""
    edges = []
    max_node = -1
    with open(path) as fh:
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
                raise IngestError(f"line {lineno}: self-loop at node {u}")
            if min(u, v) < 0 or node_count is not None and max(u, v) >= node_count:
                raise IngestError(f"line {lineno}: edge ({u}, {v}) outside node range")
            edges.append((u, v))
            max_node = max(max_node, u, v)
    if node_count is None:
        node_count = max_node + 1
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


@settings(max_examples=400, deadline=None)
@given(edge_files(), st.none() | st.integers(0, 16))
@example("0 1\n2 3\n", None)
@example("0 1\n1 1\n", None)
@example("0 1\n3 4\n", 4)
@example("", None)
@example("999999999999999999 1\n", None)
@example("9223372036854775808 1\n", None)
@example("0 1\n0000000000000000002 1\n", 3)
def test_load_network_matches_line_scan(text, node_count):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "network.edges")
        path.write_bytes(text.encode())
        outcomes = []
        for load in (load_network, _reference_load_network):
            try:
                graph = load(path, node_count)
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((graph.node_count, graph.edge_u.tolist(), graph.edge_v.tolist()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(AdopterTarget, st.text(), st.integers(0, 2**63 - 1)), max_size=6))
def test_targets_roundtrip_property(targets):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "targets.csv")
        save_targets(targets, path)
        assert load_targets(path) == targets


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_survey_roundtrip_property(values):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "survey.csv")
        _save_survey(values, path)
        assert list(map(repr, _load_survey(path))) == list(map(repr, values))


@st.composite
def labeled_datasets(draw):
    """0-8 rows of in-domain feature codes with labels 0..7."""
    n = draw(st.integers(0, 8))
    X = np.array(
        [draw(st.lists(st.sampled_from(FEATURE_DOMAINS[f]), min_size=n, max_size=n))
         for f in FEATURE_NAMES], dtype=np.int64,
    ).T.reshape(n, len(FEATURE_NAMES))
    y = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return LabeledDataset(X, y, tuple(tuple(FEATURE_DOMAINS[f]) for f in FEATURE_NAMES))


@settings(max_examples=50, deadline=None)
@given(labeled_datasets())
def test_dataset_roundtrip_property(data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "train_solar.csv")
        _save_dataset(data, path)
        again = _load_dataset(path)
    assert again == data
    assert again.domains == data.domains
