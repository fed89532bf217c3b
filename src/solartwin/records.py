r"""Domain records and CSV interchange.

This module owns the one CSV dialect of every table the pipeline reads or
writes, and every loader and saver in the package is built on
:func:`write_csv` and :func:`read_csv`.  The dialect: UTF-8 text of
unquoted cells with no ``,``, ``"``, CR, LF or NUL, ``\r\n`` or ``\n``
line ends (``write_csv`` writes ``\r\n`` and a final one), the header's
width on every line, and no blank line.  ``write_csv`` joins a table's
columns into one string and raises ValueError on a cell it could not
read back; ``read_csv`` splits a file's text whole with ``str.split``
into per-column cell lists, and raises IngestError naming the first row
off the dialect.  The four input formats are:

* ``households.csv`` -- one row per household, categorical feature codes
  plus optional label/flag columns
* ``irradiance_<tract>.csv`` -- hourly global horizontal irradiance for
  one census tract, dense 24 rows per day
* ``targets.csv`` -- ground-truth adopter count per state
* ``network.edges`` -- undirected edge list, one ``u v`` pair per line:
  two decimal node ids, one space and ``\n``, as ``save_network`` writes

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

import datetime
import io
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


def write_csv(path, header, columns):
    r"""Write one table as UTF-8 in the dialect of the module docstring: a
    header row, then one row per index of ``columns``, equal-length
    sequences of cells the caller has already formatted as str.

    The table is joined and written in one call.  A cell read_csv could not
    read back (one holding ``,``, ``"``, CR, LF or NUL, or an empty cell of
    a one-column table) raises ValueError, and nothing is written.
    """
    header = list(header)
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"need {len(header)} equal-length columns")
    lines = 1 + len(columns[0]) if columns else 1
    text = "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""])
    # the joins put `lines` of each line-end character and `lines * (width - 1)`
    # commas in the text; any more come from a cell
    if not (
        text.count("\n") == text.count("\r") == lines
        and text.count(",") == lines * (len(header) - 1)
        and '"' not in text
        and "\0" not in text
        and not (len(header) == 1 and "" in [*header, *columns[0]])
    ):
        bad = next((c for c in itertools.chain(header, *columns) if re.search('[,"\r\n\0]', c)), "")
        raise ValueError(f"{os.path.basename(path)}: cell {bad!r} is not in the CSV dialect")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_csv(path, columns: dict, optional: dict | None = None, rules=()) -> dict:
    """Read a table in the dialect of the module docstring as whole parsed
    columns, keyed by column name.

    ``columns`` maps each required column to its cell parser (``str``,
    ``int``, ``float`` or any callable that raises ValueError on a bad
    cell); each reads as an int64, float64 (for ``int``, ``float``) or
    object array.  ``optional`` maps columns that may be absent, or hold
    empty cells, to theirs, and those read as lists with None.  Float cells
    must be finite.  ``rules`` holds check_cells's (column, bad, problem)
    tuples, ``bad`` a function of a parsed required column that masks its
    bad cells or raises ValueError about the whole column; each column is
    checked before the next is parsed.  A byte that is not UTF-8, a row off
    the dialect, a missing or repeated column, a bad cell or a broken rule
    raises IngestError naming the file, and the row and column if any.
    """
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{name}: row {row}: byte {data[exc.start]:#04x} is not UTF-8") from None
    del data
    header, cells = _split(name, text)
    del text
    if len(set(header)) < len(header):
        repeated = next(column for column in header if header.count(column) > 1)
        raise IngestError(f"{name}: repeated column {repeated}")
    for column in columns:
        if column not in header:
            raise IngestError(f"{name}: missing column {column}")
    count = len(cells[0])
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


# a row's first fault besides its width, and what an error calls it
_FAULT = re.compile('["\0\r]|^$')
_FAULTS = {'"': 'a quote (")', "\0": "a NUL", "\r": "a CR that ends no line", "": "a blank line"}


def _split(name, text: str):
    r"""(header, one list of cells per header column) of a file's ``text``.

    The dialect is checked on the whole text, and only if that fails is it
    scanned for the first row off the dialect, which raises IngestError.
    A missing final line end is accepted.
    """
    crlf = text.count("\r\n")
    if crlf == text.count("\n"):
        lines = text.split("\r\n")
    else:
        lines = text.replace("\r\n", "\n").split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()  # what follows the final line end
    commas = lines[0].count(",")
    widths = set(map(str.count, lines, itertools.repeat(",")))  # in commas
    if '"' in text or "\0" in text or text.count("\r") != crlf or "" in lines or widths != {commas}:
        for number, line in enumerate(lines, start=1):
            fault = _FAULT.search(line)
            if fault:
                raise IngestError(f"{name}: row {number}: {_FAULTS[fault[0]]} is not allowed")
            if line.count(",") != commas:
                got = line.count(",") + 1
                raise IngestError(f"{name}: row {number}: expected {commas + 1} fields, got {got}")
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


@dataclass(eq=False)
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

    @property
    def edge_count(self) -> int:
        return self.edge_u.size


# one line as save_network writes it: two unsigned decimal endpoints, one
# space and LF; at most 18 digits, so every value fits in int64
_EDGE_LINE = re.compile(rb"[0-9]{1,18} [0-9]{1,18}\n")
_SAVED_EDGES = re.compile(rb"(?:%s)*" % _EDGE_LINE.pattern)


def load_network(path, node_count: int) -> Graph:
    """Load an edge list in save_network's format on nodes 0..node_count-1:
    one line per edge of two decimal node ids, one space and LF.

    The file is parsed whole.  A line off the format, a self-loop or an
    endpoint outside the node range raises IngestError naming the file
    and the line.
    """
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if not _SAVED_EDGES.fullmatch(data):
        for number, line in enumerate(io.BytesIO(data), start=1):
            if not _EDGE_LINE.fullmatch(line):
                got = line.decode(errors="backslashreplace")
                raise IngestError(f"{name}: line {number}: expected two node ids, one space "
                                  f"and LF, got {got!r}")
    pairs = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 2)
    bad = (pairs[:, 0] == pairs[:, 1]) | (pairs >= node_count).any(axis=1)
    if bad.any():
        u, v = pairs[bad.argmax()].tolist()
        problem = f"self-loop at node {u}" if u == v else f"edge ({u}, {v}) outside node range"
        raise IngestError(f"{name}: line {bad.argmax() + 1}: {problem}")
    return Graph(node_count, pairs)


def save_network(graph: Graph, path):
    with open(path, "w") as fh:
        fh.writelines(
            f"{u} {v}\n" for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist())
        )
