"""Record validation and CSV round-trips."""

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
