"""Record validation and CSV round-trips."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solartwin.cli import _load_dataset, _load_survey
from solartwin.pv import load_daily, load_profile_rows
from solartwin.records import (
    FEATURE_DOMAINS,
    FEATURE_NAMES,
    N_SQFT_CLASSES,
    AdopterTarget,
    Graph,
    HouseholdRecord,
    HouseholdTable,
    IngestError,
    IrradianceSeries,
    load_households,
    load_irradiance,
    load_network,
    load_targets,
    save_households,
    save_irradiance,
    save_network,
    save_targets,
    sqft_class_range,
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


def make_record(i=0, **kw):
    base = dict(
        id=i,
        state="VA",
        county="51001",
        tract="51001000001",
        lat=37.5,
        lon=-78.0,
        features=dict(FEATURES),
    )
    base.update(kw)
    return HouseholdRecord(**base)


def test_sqft_class_range():
    assert sqft_class_range(0) == (0.0, 600.0)
    assert sqft_class_range(6) == (3000.0, 4000.0)
    assert sqft_class_range(7) == (4000.0, 8000.0)
    assert sqft_class_range(7, top_cap=9000.0) == (4000.0, 9000.0)
    with pytest.raises(ValueError):
        sqft_class_range(8)


def test_record_validation_errors():
    with pytest.raises(IngestError, match=r"row 3, column lat: 123.0 out of \[-90, 90\]"):
        HouseholdTable([make_record(0), make_record(1, lat=123.0)])
    bad = make_record()
    bad.features["MONEYPY"] = 42
    with pytest.raises(IngestError, match="column MONEYPY: code 42 outside domain"):
        HouseholdTable([bad])
    missing = make_record()
    del missing.features["FUELHEAT"]
    with pytest.raises(IngestError, match="missing feature FUELHEAT"):
        HouseholdTable([missing])
    with pytest.raises(IngestError, match="column sqft_class: 8 out of"):
        HouseholdTable([make_record(sqft_class=8)])
    with pytest.raises(IngestError, match="column sqft_value: -10.0 must be > 0"):
        HouseholdTable([make_record(sqft_value=-10.0)])


def test_duplicate_ids_rejected():
    with pytest.raises(IngestError, match="duplicate household id 3"):
        HouseholdTable([make_record(3), make_record(3)])


def test_feature_matrix_order():
    table = HouseholdTable([make_record(0), make_record(1)])
    X = table.feature_matrix()
    assert X.shape == (2, 8)
    assert X.dtype == np.int64
    assert list(X[0]) == [2, 3, 2, 1, 1, 5, 8, 4]


def test_households_roundtrip(tmp_path):
    records = [
        make_record(0, sqft_class=3, solar=True, lmi=False, rural=True),
        make_record(1, sqft_value=1234.5, solar=False, lmi=True, rural=False),
    ]
    table = HouseholdTable(records)
    path = tmp_path / "households.csv"
    save_households(table, path)
    again = load_households(path)
    assert again == table
    assert again[0].solar is True and again[0].sqft_value is None
    assert again[1].sqft_value == 1234.5


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
    import datetime

    hours = np.arange(48, dtype=float)
    series = IrradianceSeries("t1", datetime.date(2018, 1, 1), hours)
    assert series.days == 2
    assert series.covers(datetime.date(2018, 1, 2))
    assert not series.covers(datetime.date(2018, 1, 3))
    assert list(series.ghi_for_date(datetime.date(2018, 1, 2))) == list(hours[24:])
    path = tmp_path / "irr.csv"
    save_irradiance(series, path)
    assert load_irradiance(path, "t1") == series


def test_irradiance_validation(tmp_path):
    import datetime

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
