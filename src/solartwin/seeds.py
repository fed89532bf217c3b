"""Deterministic RNG stream derivation.

Every stochastic stage derives its generator from the global run seed plus
a stable label (stage name, household id, ...).  Streams are therefore
independent of execution order, worker count, and platform.  Per-household
stages draw each household's whole sequence as one row of raw doubles
(:func:`stream_rows`) and run their sampling math on the rows together.
That is exact because of how a Generator consumes its stream: every call
takes one double per value, ``uniform(a, b)`` is ``a + (b - a) * u``, and
``choice(p=p)`` searches ``cumsum(p) / cumsum(p)[-1]`` with
``searchsorted(side="right")`` (:func:`choose`).
"""

import math
import zlib

import numpy as np

# Generator.choice's complaints about p, in the order it checks them
CHOICE_ERRORS = (
    "Probabilities contain NaN",
    "Probabilities are not non-negative",
    "Probabilities do not sum to 1. See Notes section of docstring for more information.",
)
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _as_entropy(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key)


def seed_sequence(seed: int, *keys) -> np.random.SeedSequence:
    """SeedSequence derived from the run seed and a path of sub-keys."""
    return np.random.SeedSequence([int(seed)] + [_as_entropy(k) for k in keys])


def rng_for(seed: int, *keys) -> np.random.Generator:
    """Generator on an independent stream identified by (seed, *keys)."""
    return np.random.default_rng(seed_sequence(seed, *keys))


def stream_rows(seed: int, label: str, ids, size: int) -> np.ndarray:
    """(len(ids), size) block whose row i holds the first ``size`` doubles of
    ``rng_for(seed, label, ids[i]).random()``."""
    rows = np.empty((len(ids), size))
    for row, key in zip(rows, np.asarray(ids).tolist()):
        rng_for(seed, label, key).random(out=row)
    return rows


def choice_codes(p) -> np.ndarray:
    """Per row of p (..., k): -1 where ``Generator.choice(p=row)`` accepts
    the row, else the index of its complaint in CHOICE_ERRORS."""
    total = p.sum(axis=-1)
    return np.select(
        [np.isnan(total), (p < 0).any(axis=-1), np.abs(total - 1.0) > _P_ATOL], [0, 1, 2], -1
    )


def choice_error(p):
    """The ValueError ``Generator.choice(p=p)`` raises for one vector p, or None."""
    code = int(choice_codes(p))
    return ValueError(CHOICE_ERRORS[code]) if code >= 0 else None


def choose(p, u) -> np.ndarray:
    """The index ``Generator.choice(len(p), p=p)`` picks with each double of
    u: p's last axis holds the probabilities, and its leading axes, if any,
    match u's.  The rows of p must pass :func:`choice_codes`."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return np.count_nonzero(cdf <= u[..., None], axis=-1)
