"""Equality of the package's value types, for tests only: nothing in the
package compares them, so they keep the default identity ``==``."""

import numpy as np

from solartwin.records import _DTYPES


def _same_column(a, b) -> bool:
    """Equal shapes, equal masks, and equal values in the unmasked cells."""
    missing = np.ma.getmaskarray(a)
    return (
        a.shape == b.shape
        and np.array_equal(missing, np.ma.getmaskarray(b))
        and np.array_equal(np.ma.getdata(a)[~missing], np.ma.getdata(b)[~missing])
    )


def same_households(a, b) -> bool:
    """Two HouseholdTables hold the same masks and unmasked values in every column."""
    return all(_same_column(getattr(a, c), getattr(b, c)) for c in _DTYPES)


def same_series(a, b) -> bool:
    """Two IrradianceSeries have the same tract, start date and hours."""
    return a.tract == b.tract and a.start_date == b.start_date and np.array_equal(a.hours, b.hours)


def same_graph(a, b) -> bool:
    """Two Graphs have the same node count and the same set of edges."""
    edges = [set(zip(g.edge_u.tolist(), g.edge_v.tolist())) for g in (a, b)]
    return a.node_count == b.node_count and edges[0] == edges[1]


def same_dataset(a, b) -> bool:
    """Two LabeledDatasets have the same X and y."""
    return np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
