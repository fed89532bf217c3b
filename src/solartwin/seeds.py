"""Deterministic RNG stream derivation.

Every stochastic stage derives its generator from the global run seed plus
a stable label (stage name, household id, ...).  Streams are therefore
independent of execution order, worker count, and platform.  Per-household
stages draw each household's whole sequence as one row of raw doubles
(:func:`stream_rows`) and run their sampling math on the rows together.
That is exact because of how a Generator consumes its stream: every call
takes one double per value, ``uniform(a, b)`` is ``a + (b - a) * u``, and
``choice(p=p)`` searches ``cumsum(p) / cumsum(p)[-1]`` with
``searchsorted(side="right")`` (:func:`choose`).  choose checks nothing:
its probabilities are valid when they are built (the PV tables are module
constants, and SubclassWeights checks its weights).
"""

import zlib

import numpy as np


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Generator on an independent stream identified by (seed, *keys): its
    SeedSequence entropy is the seed, then each key as an integer (a
    string as its CRC-32)."""
    entropy = [int(seed)] + [
        zlib.crc32(key.encode("utf-8")) if isinstance(key, str) else int(key) for key in keys
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def stream_rows(seed: int, label: str, ids, size: int) -> np.ndarray:
    """(len(ids), size) block whose row i holds the first ``size`` doubles of
    ``rng_for(seed, label, ids[i]).random()``."""
    rows = np.empty((len(ids), size))
    for row, key in zip(rows, np.asarray(ids).tolist()):
        rng_for(seed, label, key).random(out=row)
    return rows


def choose(p, u) -> np.ndarray:
    """The index ``Generator.choice(len(p), p=p)`` picks with each double of
    u: p's last axis holds the probabilities, and its leading axes, if any,
    match u's.  Each row of p must be one that choice accepts: finite,
    non-negative and summing to 1; that is not checked here."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return np.count_nonzero(cdf <= u[..., None], axis=-1)
