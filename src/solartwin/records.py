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

A :class:`HouseholdTable` holds households as numpy columns: int64 ``id``,
object arrays of ``state``/``county``/``tract`` text, float64 ``lat`` and
``lon``, an (n, 8) int64 ``features`` matrix in ``FEATURE_NAMES`` order,
and one masked array per optional column (``sqft_class``, ``sqft_value``,
``solar``, ``lmi``, ``rural``) whose masked cells are missing values.  One
household is a one-row table, and iterating a table yields its rows as
one-row tables.  :class:`Graph` holds its edges as two int64 endpoint
arrays.

Loaders validate on ingestion and raise :class:`IngestError` naming the
offending file, row and column; loading identical bytes always yields
identical tables.
"""

import csv
import datetime
import math
import os
from dataclasses import dataclass

import numpy as np

# Categorical feature codes follow the public RECS 2020 codebook.
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
# HouseholdTable columns and their dtypes; the last five are optional
_DTYPES = {
    "id": np.int64, "state": object, "county": object, "tract": object,
    "lat": np.float64, "lon": np.float64, "features": np.int64,
    "sqft_class": np.int64, "sqft_value": np.float64, "solar": bool, "lmi": bool, "rural": bool,
}
_OPTIONAL_COLUMNS = tuple(_DTYPES)[7:]
_INT64 = (-(2**63), 2**63 - 1)


class IngestError(ValueError):
    """A CSV row or column failed validation on load."""


def sqft_class_range(k: int, edges=SQFT_CLASS_EDGES, top_cap: float = 8000.0):
    """(low, high) ft^2 bounds of class ``k``; top class capped at ``top_cap``."""
    if not 0 <= k < len(edges):
        raise ValueError(f"class index {k} out of range")
    low = edges[k]
    high = edges[k + 1] if k + 1 < len(edges) else top_cap
    return low, high


def _optional_column(values, dtype) -> np.ma.MaskedArray:
    """A masked array of ``dtype`` whose masked cells are the None ones."""
    if isinstance(values, np.ndarray):
        return np.ma.asarray(values).astype(dtype)
    missing = [value is None for value in values]
    return np.ma.array([0 if gap else v for gap, v in zip(missing, values)], dtype, mask=missing)


class HouseholdTable:
    """Ordered, id-unique collection of households in the column layout
    the module docstring gives.

    ``HouseholdTable(id=..., features=..., solar=..., ...)`` builds one
    from whole columns, one value per row; an optional column left out is
    missing in every row, and a list may hold None cells.  Immutable by
    convention: a change goes into a new table through :meth:`replace`.
    """

    def __init__(self, **columns):
        n = len(columns["id"])
        for name, dtype in _DTYPES.items():
            if name in _OPTIONAL_COLUMNS:
                values = _optional_column(columns.get(name, [None] * n), dtype)
            else:
                values = np.asarray(columns[name], dtype=dtype)
            setattr(self, name, values)
        shapes = {c: getattr(self, c).shape for c in _DTYPES}
        if shapes.pop("features") != (n, len(FEATURE_NAMES)) or set(shapes.values()) != {(n,)}:
            raise ValueError(f"need {n} values per column and an ({n}, 8) features matrix")
        self._validate()

    def _validate(self):
        """Check ranges, domains and unique ids on whole columns.

        An error names the first bad row of the first bad column, rows
        numbered as in households.csv (the header is row 1).
        """
        sqft_class, sqft_value = self.sqft_class, self.sqft_value
        repeat = np.ones(len(self), dtype=bool)
        repeat[np.unique(self.id, return_index=True)[1]] = False
        checks = [
            ("id", self.id, repeat, "duplicate household id {}"),
            ("lat", self.lat, ~(np.abs(self.lat) <= 90.0), "{} out of [-90, 90]"),
            ("lon", self.lon, ~(np.abs(self.lon) <= 180.0), "{} out of [-180, 180]"),
        ] + [
            (name, codes, ~np.isin(codes, FEATURE_DOMAINS[name]), "code {} outside domain")
            for name, codes in zip(FEATURE_NAMES, self.features.T)
        ] + [
            ("sqft_class", sqft_class, ((sqft_class < 0) | (sqft_class >= N_SQFT_CLASSES)),
             f"{{}} out of [0, {N_SQFT_CLASSES - 1}]"),
            ("sqft_value", sqft_value, ~(sqft_value > 0), "{} must be > 0"),
        ]
        for column, values, bad, problem in checks:
            bad = np.ma.filled(bad, False)
            if bad.any():
                row = int(np.argmax(bad))
                raise IngestError(f"row {row + 2}, column {column}: " + problem.format(values[row]))

    def __len__(self):
        return self.id.size

    def _row(self, i) -> "HouseholdTable":
        """Row ``i`` as a one-row table of slices, left unvalidated because
        these columns already passed."""
        row = object.__new__(HouseholdTable)
        for c in _DTYPES:
            setattr(row, c, getattr(self, c)[i : i + 1])
        return row

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        return isinstance(other, HouseholdTable) and all(
            _same_column(getattr(self, c), getattr(other, c)) for c in _DTYPES
        )

    def labels(self, name: str) -> np.ndarray:
        """Optional column ``name`` as a plain array; every row must hold a value."""
        missing = np.ma.getmaskarray(getattr(self, name))
        if missing.any():
            raise ValueError(f"household {self.id[missing.argmax()]} has no {name} label")
        return getattr(self, name).data

    def replace(self, **columns) -> "HouseholdTable":
        """A new table with the named columns swapped for ``columns``."""
        return HouseholdTable(**{c: getattr(self, c) for c in _DTYPES} | columns)


def _same_column(a, b) -> bool:
    """Equal shapes, equal masks, and equal values in the unmasked cells."""
    missing = np.ma.getmaskarray(a)
    return (
        a.shape == b.shape
        and np.array_equal(missing, np.ma.getmaskarray(b))
        and np.array_equal(np.ma.getdata(a)[~missing], np.ma.getdata(b)[~missing])
    )


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
        if not _out_of_bounds(parse, values):
            return values
    except ValueError:
        pass
    for number, cell in zip(numbers, cells):
        try:
            problem = _out_of_bounds(parse, [parse(cell)])
        except ValueError:
            problem = "bad value"
        if problem:
            raise IngestError(f"{name}: row {number}, column {column}: {problem} {cell!r}")
    raise AssertionError("a column that failed to parse has no bad cell")


def _out_of_bounds(parse, values) -> str:
    """What is wrong with parsed cells, if anything: floats must be finite
    and ints must fit in int64."""
    if parse is float and not all(map(math.isfinite, values)):
        return "non-finite value"
    if parse is int and values and not _INT64[0] <= min(values) <= max(values) <= _INT64[1]:
        return "int64 overflow in value"
    return ""


def _parse_bool(value):
    if value in ("1", "true", "True"):
        return True
    if value in ("0", "false", "False"):
        return False
    raise IngestError(f"cannot parse boolean value {value!r}")


def load_households(path) -> HouseholdTable:
    """Load households.csv, validating schema, domains, and id uniqueness."""
    parsers = {"id": int, "state": str, "county": str, "tract": str, "lat": float, "lon": float}
    parsers.update(dict.fromkeys(FEATURE_NAMES, int))
    optional = {"sqft_class": int, "sqft_value": float}
    optional.update(dict.fromkeys(("solar", "lmi", "rural"), _parse_bool))
    columns = read_csv(path, parsers, optional)
    features = np.array([columns.pop(f) for f in FEATURE_NAMES], dtype=np.int64).T
    try:
        return HouseholdTable(features=features, **columns)
    except IngestError as exc:
        raise IngestError(f"{os.path.basename(path)}: {exc}") from None


def _format_optional(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def save_households(table: HouseholdTable, path):
    """Write households.csv; optional columns are emitted when any row has them."""
    optional = [
        c for c in _OPTIONAL_COLUMNS if not np.ma.getmaskarray(getattr(table, c)).all()
    ]
    base = [table.id, table.state, table.county, table.tract, table.lat, table.lon]
    # tolist() gives Python scalars: an np.bool_ would print as True, not 1
    cells = [column.tolist() for column in base + list(table.features.T)]
    cells += [map(_format_optional, getattr(table, c).tolist()) for c in optional]
    write_csv(path, list(_BASE_COLUMNS) + optional, zip(*cells))


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
    """Undirected simple graph on nodes 0..node_count-1.

    ``edges`` is a sequence of (u, v) pairs or an (m, 2) array.  Each edge
    is stored once, as ``edge_u[k] < edge_v[k]`` in two int64 arrays, in
    the order of its first occurrence.
    """

    def __init__(self, node_count: int, edges):
        self.node_count = int(node_count)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        loops = u == v
        if loops.any():
            raise IngestError(f"self-loop at node {u[loops.argmax()]}")
        outside = ((pairs < 0) | (pairs >= self.node_count)).any(axis=1)
        if outside.any():
            raise IngestError(f"edge {tuple(pairs[outside.argmax()].tolist())} outside node range")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        first = np.sort(np.unique(lo * self.node_count + hi, return_index=True)[1])
        self.edge_u, self.edge_v = lo[first], hi[first]

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) array of the stored (u, v) pairs."""
        return np.column_stack((self.edge_u, self.edge_v))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and set(zip(self.edge_u.tolist(), self.edge_v.tolist()))
            == set(zip(other.edge_u.tolist(), other.edge_v.tolist()))
        )

    @property
    def edge_count(self) -> int:
        return self.edge_u.size


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
            if min(u, v) < 0 or node_count is not None and max(u, v) >= node_count:
                raise IngestError(f"line {lineno}: edge ({u}, {v}) outside node range")
            edges.append((u, v))
            max_node = max(max_node, u, v)
    if node_count is None:
        node_count = max_node + 1
    return Graph(node_count, edges)


def save_network(graph: Graph, path):
    with open(path, "w") as fh:
        fh.writelines(
            f"{u} {v}\n" for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist())
        )
