"""Domain records and CSV interchange.

This module owns the CSV dialect of every table the pipeline reads or
writes: :func:`write_csv` and :func:`read_csv` are the only code that
touches the csv module, and every loader and saver in the package is built
on them.  The four input formats are:

* ``households.csv`` -- one row per household, categorical feature codes
  plus optional label/flag columns
* ``irradiance_<tract>.csv`` -- hourly global horizontal irradiance for
  one census tract, dense 24 rows per day
* ``targets.csv`` -- ground-truth adopter count per state
* ``network.edges`` -- undirected edge list, one ``u v`` pair per line

Loaders validate on ingestion and raise :class:`IngestError` naming the
offending file, row and column; loading identical bytes always yields
identical tables.
"""

import csv
import datetime
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

# Categorical feature codes follow the public RECS 2020 codebook; domains
# are configurable per table via `feature_domains`.
FEATURE_DOMAINS = {
    "NHSLDMEM": tuple(range(1, 8)),
    "BEDROOMS": tuple(range(0, 6)),
    "TYPEHUQ": tuple(range(1, 6)),
    "FUELHEAT": (1, 2, 3, 5, 7, 99),
    "KOWNRENT": (1, 2, 3),
    "YEARMADERANGE": tuple(range(1, 10)),
    "MONEYPY": tuple(range(1, 17)),
    "BA_climate": tuple(range(1, 9)),
}
FEATURE_NAMES = tuple(FEATURE_DOMAINS)

# Eight dwelling square-footage classes; edges in ft^2, open-ended on top.
SQFT_CLASS_EDGES = (0.0, 600.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0)
N_SQFT_CLASSES = 8

_BASE_COLUMNS = ("id", "state", "county", "tract", "lat", "lon") + FEATURE_NAMES
_OPTIONAL_COLUMNS = ("sqft_class", "sqft_value", "solar", "lmi", "rural")


class IngestError(ValueError):
    """A CSV row or column failed validation on load."""


def sqft_class_of(sqft: float, edges=SQFT_CLASS_EDGES) -> int:
    """Class index of a square-footage value under the given edges."""
    if sqft <= 0:
        raise ValueError(f"square footage must be positive, got {sqft}")
    for k in range(len(edges) - 1, -1, -1):
        if sqft >= edges[k]:
            return k
    return 0


def sqft_class_range(k: int, edges=SQFT_CLASS_EDGES, top_cap: float = 8000.0):
    """(low, high) ft^2 bounds of class ``k``; top class capped at ``top_cap``."""
    if not 0 <= k < len(edges):
        raise ValueError(f"class index {k} out of range")
    low = edges[k]
    high = edges[k + 1] if k + 1 < len(edges) else top_cap
    return low, high


@dataclass
class HouseholdRecord:
    """One synthetic household with categorical features and optional labels."""

    id: int
    state: str
    county: str
    tract: str
    lat: float
    lon: float
    features: dict = field(default_factory=dict)
    sqft_class: int | None = None
    sqft_value: float | None = None
    solar: bool | None = None
    lmi: bool | None = None
    rural: bool | None = None

    def validate(self, feature_domains=FEATURE_DOMAINS):
        if not -90.0 <= self.lat <= 90.0:
            raise IngestError(f"household {self.id}: lat {self.lat} out of [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise IngestError(f"household {self.id}: lon {self.lon} out of [-180, 180]")
        for name in feature_domains:
            if name not in self.features:
                raise IngestError(f"household {self.id}: missing feature {name}")
            code = self.features[name]
            if code not in feature_domains[name]:
                raise IngestError(
                    f"household {self.id}: {name} code {code} outside domain"
                )
        if self.sqft_class is not None and not 0 <= self.sqft_class < N_SQFT_CLASSES:
            raise IngestError(
                f"household {self.id}: sqft_class {self.sqft_class} out of [0, 7]"
            )
        if self.sqft_value is not None and self.sqft_value <= 0:
            raise IngestError(f"household {self.id}: sqft_value must be > 0")


class HouseholdTable:
    """Ordered, id-unique collection of households.

    Immutable by convention: loaders and stages never mutate a table they
    were given, they build a new one.
    """

    def __init__(self, records, feature_domains=FEATURE_DOMAINS):
        self.records = list(records)
        self.feature_domains = dict(feature_domains)
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise IngestError(f"duplicate household id {rec.id}")
            seen.add(rec.id)
            rec.validate(self.feature_domains)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def __eq__(self, other):
        return isinstance(other, HouseholdTable) and self.records == other.records

    def feature_matrix(self) -> np.ndarray:
        """(n, 8) int matrix of feature codes in FEATURE_NAMES order."""
        return np.array(
            [[rec.features[f] for f in FEATURE_NAMES] for rec in self.records],
            dtype=np.int64,
        )

    def with_records(self, records) -> "HouseholdTable":
        return HouseholdTable(records, self.feature_domains)

    def adopters(self):
        return [rec for rec in self.records if rec.solar]


def write_csv(path, header, rows):
    """Write one table: a header row, then ``rows`` (an iterable of
    sequences whose cells the caller has already formatted)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns: dict, optional: dict | None = None) -> dict:
    """Read a table as whole parsed columns, keyed by column name.

    ``columns`` maps each required column to its cell parser (``str``,
    ``int``, ``float`` or any callable that raises ValueError on a bad
    cell); ``optional`` maps columns that may be absent, or hold empty
    cells, to theirs, and those read as None.  Float cells must be finite.
    A missing column, a row of the wrong width or a bad cell raises
    IngestError naming the file, row and column.
    """
    name = os.path.basename(path)
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


def _parse_column(name, column, cells, numbers, parse) -> list:
    """Parse a column in one pass; only if that fails, scan for the bad cell.

    ``numbers`` gives each cell's row number for the error message.
    """
    try:
        values = list(map(parse, cells))
        if parse is not float or all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for number, cell in zip(numbers, cells):
        try:
            value = parse(cell)
        except ValueError:
            raise IngestError(
                f"{name}: row {number}, column {column}: bad value {cell!r}"
            ) from None
        if parse is float and not math.isfinite(value):
            raise IngestError(
                f"{name}: row {number}, column {column}: non-finite value {cell!r}"
            )
    raise AssertionError("a column that failed to parse has no bad cell")


def _parse_bool(value):
    if value in ("1", "true", "True"):
        return True
    if value in ("0", "false", "False"):
        return False
    raise IngestError(f"cannot parse boolean value {value!r}")


def load_households(path, feature_domains=FEATURE_DOMAINS) -> HouseholdTable:
    """Load households.csv, validating schema, domains, and id uniqueness."""
    parsers = {"id": int, "state": str, "county": str, "tract": str, "lat": float, "lon": float}
    parsers.update(dict.fromkeys(FEATURE_NAMES, int))
    optional = {"sqft_class": int, "sqft_value": float}
    optional.update(dict.fromkeys(("solar", "lmi", "rural"), _parse_bool))
    columns = read_csv(path, parsers, optional)
    records = [
        HouseholdRecord(
            id=row["id"],
            state=row["state"],
            county=row["county"],
            tract=row["tract"],
            lat=row["lat"],
            lon=row["lon"],
            features={f: row[f] for f in FEATURE_NAMES},
            **{c: row[c] for c in _OPTIONAL_COLUMNS},
        )
        for row in (dict(zip(columns, cells)) for cells in zip(*columns.values()))
    ]
    return HouseholdTable(records, feature_domains)


def _format_optional(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def save_households(table: HouseholdTable, path):
    """Write households.csv; optional columns are emitted when any row has them."""
    optional = [
        c for c in _OPTIONAL_COLUMNS if any(getattr(r, c) is not None for r in table)
    ]
    write_csv(
        path,
        list(_BASE_COLUMNS) + optional,
        (
            [rec.id, rec.state, rec.county, rec.tract, rec.lat, rec.lon]
            + [rec.features[f] for f in FEATURE_NAMES]
            + [_format_optional(getattr(rec, c)) for c in optional]
            for rec in table
        ),
    )


@dataclass
class IrradianceSeries:
    """Dense hourly GHI (W/m^2) for one census tract starting at start_date."""

    tract: str
    start_date: datetime.date
    hours: np.ndarray

    def __post_init__(self):
        self.hours = np.asarray(self.hours, dtype=float)
        if self.hours.size % 24 != 0:
            raise IngestError(
                f"tract {self.tract}: {self.hours.size} hours not divisible by 24"
            )
        if not np.all(np.isfinite(self.hours)):
            raise IngestError(f"tract {self.tract}: non-finite GHI value")
        if np.any(self.hours < 0):
            raise IngestError(f"tract {self.tract}: negative GHI value")

    @property
    def days(self) -> int:
        return self.hours.size // 24

    def covers(self, date: datetime.date) -> bool:
        offset = (date - self.start_date).days
        return 0 <= offset < self.days

    def ghi_for_date(self, date: datetime.date) -> np.ndarray:
        """24 GHI values for a calendar date inside the series."""
        offset = (date - self.start_date).days
        if not 0 <= offset < self.days:
            raise KeyError(f"tract {self.tract} has no irradiance for {date}")
        return self.hours[offset * 24 : (offset + 1) * 24]

    def __eq__(self, other):
        return (
            isinstance(other, IrradianceSeries)
            and self.tract == other.tract
            and self.start_date == other.start_date
            and np.array_equal(self.hours, other.hours)
        )


def load_irradiance(path, tract: str | None = None) -> IrradianceSeries:
    """Load irradiance_<tract>.csv, enforcing hour contiguity and non-negativity."""
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
    if tract is None:
        tract = ""
    return IrradianceSeries(tract, start, np.array(ghi))


def save_irradiance(series: IrradianceSeries, path):
    write_csv(
        path,
        ["date", "hour", "ghi_wm2"],
        (
            [(series.start_date + datetime.timedelta(days=i // 24)).isoformat(), i % 24,
             repr(float(ghi))]
            for i, ghi in enumerate(series.hours)
        ),
    )


@dataclass(frozen=True)
class AdopterTarget:
    """Ground-truth adopter count for one state."""

    state: str
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise IngestError(f"state {self.state}: negative adopter count")


def load_targets(path) -> list[AdopterTarget]:
    """Load targets.csv (state,count)."""
    columns = read_csv(path, {"state": str, "count": int})
    return [AdopterTarget(*row) for row in zip(columns["state"], columns["count"])]


def save_targets(targets, path):
    write_csv(path, ["state", "count"], ([t.state, t.count] for t in targets))


class Graph:
    """Undirected simple graph on nodes 0..node_count-1."""

    def __init__(self, node_count: int, edges):
        self.node_count = int(node_count)
        seen = set()
        self.edges = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise IngestError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise IngestError(f"edge ({u}, {v}) outside node range")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            self.edges.append(key)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and sorted(self.edges) == sorted(other.edges)
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def load_network(path, node_count: int | None = None) -> Graph:
    """Load an edge list (whitespace or comma separated integer pairs)."""
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
            edges.append((u, v))
            max_node = max(max_node, u, v)
    if node_count is None:
        node_count = max_node + 1
    return Graph(node_count, edges)


def save_network(graph: Graph, path):
    with open(path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def copy_record(rec: HouseholdRecord, **changes) -> HouseholdRecord:
    """Copy a record with field overrides (features dict copied, not shared)."""
    out = replace(rec, **changes)
    if "features" not in changes:
        out.features = dict(rec.features)
    return out
