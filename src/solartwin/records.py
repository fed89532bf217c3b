r"""Domain records and CSV interchange.

This module owns the CSV dialect of every table the pipeline reads or
writes, and every loader and saver in the package is built on
:func:`write_csv` and :func:`read_csv`.  The pipeline's own tables are in
the plain dialect: unquoted cells with no ``,``, ``"``, CR, LF or NUL,
``\r\n`` (or ``\n``) line ends including a final one, the header's width
on every line, and no blank line.  ``write_csv`` joins a plain table's
columns into one string; ``read_csv`` splits a plain file's text whole
with ``str.split`` into per-column cell lists.  A table or file outside
the plain dialect (quoted cells, a bare ``\r``, blank lines, ragged rows,
...) goes through ``csv.writer`` or ``csv.reader``, which are the only
uses of the csv module and give the same bytes and cells on plain input.
Either way, cells are parsed by the same column parsers, so a bad cell
raises the same error.  The four input formats are:

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

Loaders validate on ingestion: each passes its cell rules to ``read_csv``,
which raises :class:`IngestError` naming the offending file, row and
column; loading identical bytes always yields identical tables.
"""

import csv
import datetime
import itertools
import math
import os
import re
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

# Eight dwelling square-footage classes; edges in ft^2, the open-ended top
# class capped at 8 000.
SQFT_CLASS_EDGES = (0.0, 600.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 8000.0)
N_SQFT_CLASSES = len(SQFT_CLASS_EDGES) - 1

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


def sqft_class_range(k: int):
    """(low, high) ft^2 bounds of class ``k``."""
    if not 0 <= k < N_SQFT_CLASSES:
        raise ValueError(f"class index {k} out of range")
    return SQFT_CLASS_EDGES[k], SQFT_CLASS_EDGES[k + 1]


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
        codes = dict(zip(FEATURE_NAMES, self.features.T))
        checks = [
            ("id", self.id, self.id < 0, "{} must be >= 0"),
            ("id", self.id, repeat, "duplicate household id {}"),
            ("lat", self.lat, ~(np.abs(self.lat) <= 90.0), "{} out of [-90, 90]"),
            ("lon", self.lon, ~(np.abs(self.lon) <= 180.0), "{} out of [-180, 180]"),
        ] + [(c, codes[c], bad(codes[c]), problem) for c, bad, problem in FEATURE_CODE_RULES] + [
            ("sqft_class", sqft_class, ((sqft_class < 0) | (sqft_class >= N_SQFT_CLASSES)),
             f"{{}} out of [0, {N_SQFT_CLASSES - 1}]"),
            ("sqft_value", sqft_value, ~(sqft_value > 0), "{} must be > 0"),
        ]
        check_cells("", checks)

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


def check_cells(source: str, checks):
    """Raise IngestError ``<source>row R, column C: <problem>`` for the
    first bad row of the first bad column, rows numbered as in a CSV file
    (the header is row 1).

    ``checks`` holds (column, values, bad, problem) tuples: ``bad`` masks
    the bad values of array ``values``, and ``problem`` is formatted with
    the bad value as a Python scalar (``{!r}`` of a float prints ``1.0``).
    """
    for column, values, bad, problem in checks:
        bad = np.ma.filled(bad, False)
        if bad.any():
            row = int(np.argmax(bad))
            raise IngestError(f"{source}row {row + 2}, column {column}: "
                              + problem.format(values[row : row + 1].tolist()[0]))


# read_csv's rules that each feature column holds codes of its feature's domain
FEATURE_CODE_RULES = [
    (name, lambda codes, domain=domain: ~np.isin(codes, domain), "code {} outside domain")
    for name, domain in FEATURE_DOMAINS.items()
]


def _same_column(a, b) -> bool:
    """Equal shapes, equal masks, and equal values in the unmasked cells."""
    missing = np.ma.getmaskarray(a)
    return (
        a.shape == b.shape
        and np.array_equal(missing, np.ma.getmaskarray(b))
        and np.array_equal(np.ma.getdata(a)[~missing], np.ma.getdata(b)[~missing])
    )


def write_csv(path, header, columns):
    r"""Write one table: a header row, then one row per index of
    ``columns``, equal-length sequences of cells the caller has already
    formatted as str.

    A table in the plain dialect is joined and written in one call.  A cell
    holding ``,``, ``"``, ``\r`` or ``\n``, or an empty cell of a one-column
    table, sends the whole table through csv.writer, which quotes it.
    """
    header = list(header)
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"need {len(header)} equal-length columns")
    lines = 1 + len(columns[0]) if columns else 1
    text = "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""])
    # the joins put `lines` of each line-end character and `lines * (width - 1)`
    # commas in the text; any more come from a cell that csv.writer would quote
    plain = (
        text.count("\n") == text.count("\r") == lines
        and text.count(",") == lines * (len(header) - 1)
        and '"' not in text
        and not (len(header) == 1 and "" in [*header, *columns[0]])
    )
    with open(path, "w", newline="") as fh:
        if plain:
            fh.write(text)
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))


def read_csv(path, columns: dict, optional: dict | None = None, rules=()) -> dict:
    """Read a table as whole parsed columns, keyed by column name.

    ``columns`` maps each required column to its cell parser (``str``,
    ``int``, ``float`` or any callable that raises ValueError on a bad
    cell); each reads as an int64, float64 (for ``int``, ``float``) or
    object array.  ``optional`` maps columns that may be absent, or hold
    empty cells, to theirs, and those read as lists with None.  Float cells
    must be finite.  ``rules`` holds check_cells's (column, bad, problem)
    tuples, ``bad`` a function of a parsed required column that masks its
    bad cells or raises ValueError about the whole column; each column is
    checked before the next is parsed.  A missing or repeated column, a row
    of the wrong width, a bad cell or a broken rule raises IngestError
    naming the file, row and column.
    """
    name = os.path.basename(path)
    with open(path, newline="") as fh:
        text = fh.read()
    table = _split_plain(text)
    del text
    if table is None:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        header, body = (rows[0], rows[1:]) if rows else ([], [])
    else:
        header, cells = table
    if len(set(header)) < len(header):
        repeated = next(column for column in header if header.count(column) > 1)
        raise IngestError(f"{name}: repeated column {repeated}")
    for column in columns:
        if column not in header:
            raise IngestError(f"{name}: missing column {column}")
    if table is None:
        for number, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise IngestError(
                    f"{name}: row {number}: expected {len(header)} fields, got {len(row)}"
                )
        cells = list(zip(*body)) if body else [()] * len(header)
    count = len(cells[0]) if cells else 0
    cells = dict(zip(header, cells))
    numbers = range(2, count + 2)
    out = {}
    for column, parse in columns.items():
        parsed = _parse_column(name, column, cells[column], numbers, parse)
        values = np.array(parsed, {int: np.int64, float: np.float64}.get(parse, object))
        try:
            checks = [(c, values, bad(values), problem) for c, bad, problem in rules if c == column]
        except ValueError as exc:
            raise IngestError(f"{name}: column {column}: {exc}") from None
        check_cells(f"{name}: ", checks)
        out[column] = values
    for column, parse in (optional or {}).items():
        values = [None] * count
        present = [i for i, cell in enumerate(cells.get(column, ())) if cell != ""]
        parsed = _parse_column(
            name, column, [cells[column][i] for i in present], [i + 2 for i in present], parse
        )
        for i, value in zip(present, parsed):
            values[i] = value
        out[column] = values
    return out


def _split_plain(text: str):
    r"""(header, one list of cells per header column) of ``text``, or None
    when it is not in the plain dialect write_csv emits: no ``"``, no NUL,
    no blank line, every ``\r`` part of a ``\r\n``, a final newline, the
    header's width on every line and no line longer than
    ``csv.field_size_limit()``.  On plain text csv.reader yields these cells.
    """
    crlf = text.count("\r\n")
    if not text.endswith("\n") or '"' in text or "\0" in text or text.count("\r") != crlf:
        return None
    if crlf == text.count("\n"):
        lines = text.split("\r\n")
    else:
        lines = text.replace("\r\n", "\n").split("\n")
    lines.pop()
    commas = lines[0].count(",")
    if (
        "" in lines
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, itertools.repeat(","))) != {commas}
    ):
        return None
    width = commas + 1
    body = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    return lines[0].split(","), [body[j::width] for j in range(width)]


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
    features = np.column_stack([columns.pop(f) for f in FEATURE_NAMES])
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
    cells = [list(map(str, column.tolist())) for column in base + list(table.features.T)]
    cells += [list(map(_format_optional, getattr(table, c).tolist())) for c in optional]
    write_csv(path, list(_BASE_COLUMNS) + optional, cells)


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

    def ghi_for_date(self, date: datetime.date) -> np.ndarray:
        """24 GHI values for a calendar date inside the series."""
        offset = (date - self.start_date).days
        if not 0 <= offset < self.days:
            raise ValueError(f"no irradiance for tract {self.tract} on {date}")
        return self.hours[offset * 24 : (offset + 1) * 24]

    def __eq__(self, other):
        return (
            isinstance(other, IrradianceSeries)
            and self.tract == other.tract
            and self.start_date == other.start_date
            and np.array_equal(self.hours, other.hours)
        )


def load_irradiance(path, tract: str) -> IrradianceSeries:
    """Load irradiance_<tract>.csv, enforcing hour contiguity and non-negativity."""
    columns = read_csv(
        path,
        {"date": datetime.date.fromisoformat, "hour": int, "ghi_wm2": float},
        rules=[("ghi_wm2", lambda ghi: ghi < 0, "negative GHI {!r}")],
    )
    dates, hours, ghi = columns["date"], columns["hour"], columns["ghi_wm2"]
    name = os.path.basename(path)
    if not ghi.size:
        raise IngestError(f"{name}: no rows")
    # row i holds hour i % 24 of day i // 24, counted from the first row's date
    start = dates[0]
    row = np.arange(ghi.size)
    day = np.fromiter(map(datetime.date.toordinal, dates), np.int64, ghi.size) - start.toordinal()
    gap = (day != row // 24) | (hours != row % 24)
    if gap.any():
        i = int(gap.argmax())
        raise IngestError(
            f"{name}: row {i + 2}, column {'hour' if day[i] == i // 24 else 'date'}: "
            f"gap in hours: expected day {i // 24 + 1} "
            f"({start + datetime.timedelta(days=i // 24)}) "
            f"hour {i % 24}, found {dates[i]} hour {hours[i]}"
        )
    if len(ghi) % 24 != 0:
        raise IngestError(
            f"{name}: row {len(ghi) + 1}, column hour: "
            f"series ends mid-day at {dates[-1]} hour {hours[-1]}"
        )
    return IrradianceSeries(tract, start, ghi)


def save_irradiance(series: IrradianceSeries, path):
    days = [
        (series.start_date + datetime.timedelta(days=d)).isoformat() for d in range(series.days)
    ]
    write_csv(
        path,
        ["date", "hour", "ghi_wm2"],
        [
            [day for day in days for _ in range(24)],
            list(map(str, range(24))) * series.days,
            list(map(repr, series.hours.tolist())),
        ],
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
    columns = read_csv(
        path,
        {"state": str, "count": int},
        rules=[("count", lambda counts: counts < 0, "negative adopter count {}")],
    )
    return list(map(AdopterTarget, columns["state"].tolist(), columns["count"].tolist()))


def save_targets(targets, path):
    write_csv(
        path, ["state", "count"], [[str(t.state) for t in targets], [str(t.count) for t in targets]]
    )


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
        # edges already unique, with u < v, in (u, v) order are stored as
        # given; gen_network and save_network emit them so
        later = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        if (u < v).all() and later.all():
            self.edge_u, self.edge_v = u.copy(), v.copy()
            return
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # a stable sort by (lo, hi) puts each edge's first occurrence first
        order = np.lexsort((hi, lo))
        lo_sorted, hi_sorted = lo[order], hi[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (lo_sorted[1:] != lo_sorted[:-1]) | (hi_sorted[1:] != hi_sorted[:-1])
        first = np.sort(order[new])
        self.edge_u, self.edge_v = lo[first], hi[first]

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


# the lines save_network writes: two unsigned decimal endpoints and one
# space; at most 18 digits, so every value fits in int64
_SAVED_EDGES = re.compile(rb"(?:[0-9]{1,18} [0-9]{1,18}\n)*")


def load_network(path, node_count: int) -> Graph:
    """Load an edge list (whitespace or comma separated integer pairs) on
    nodes 0..node_count-1.

    A file in save_network's format is parsed whole; any other file, or one
    whose edges fail a check, goes through the line scan, which accepts
    blanks, ``#`` comments and commas and names the line of an error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _SAVED_EDGES.fullmatch(data):
        pairs = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 2)
        if not (pairs[:, 0] == pairs[:, 1]).any() and not (pairs >= node_count).any():
            return Graph(node_count, pairs)
    return _scan_network(path, node_count)


def _scan_network(path, node_count: int) -> Graph:
    """load_network one line at a time."""
    edges = []
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
            if min(u, v) < 0 or max(u, v) >= node_count:
                raise IngestError(f"line {lineno}: edge ({u}, {v}) outside node range")
            edges.append((u, v))
    return Graph(node_count, edges)


def save_network(graph: Graph, path):
    with open(path, "w") as fh:
        fh.writelines(
            f"{u} {v}\n" for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist())
        )
