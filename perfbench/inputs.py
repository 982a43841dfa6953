"""Seeded input generators for the benchmark workloads.

Every input is a Gaussian random walk started at the origin, optionally
pulled back towards it.  A generator is keyed by (run seed, workload,
repetition), so the same seed always yields the same inputs, and each
repetition inside one run gets fresh data.
"""

from __future__ import annotations

import numpy as np

STEP = 0.3  # walk step; on the unit grid this visits about 100 1-d states per 20k steps
MALFORMED = ("n/a", "nan")  # non-numeric and NaN rows; both must become error records


def rng_for(seed: int, workload: str, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), rep])


def walk(rng: np.random.Generator, n: int, dim: int,
         revert: float = 0.0) -> list[tuple[float, ...]]:
    """``n`` observations of a ``dim``-dimensional random walk with step ``STEP``.

    With ``revert`` > 0 each position keeps only ``1 - revert`` of the last
    one before the step is added (a mean-reverting walk), which bounds how
    far the walk strays and so how many states it visits.
    """
    steps = rng.normal(0.0, STEP, size=(n, dim))
    if not revert:
        return [tuple(row) for row in np.cumsum(steps, axis=0).tolist()]
    out, position = [], np.zeros(dim)
    for step in steps:
        position = (1.0 - revert) * position + step
        out.append(tuple(position.tolist()))
    return out


def csv_rows(values: list[tuple[float, ...]], rng: np.random.Generator,
             malformed: int) -> list[str]:
    """CSV data rows for ``values`` with ``malformed`` bad rows mixed in.

    The bad rows sit at distinct random positions and alternate between the
    kinds in ``MALFORMED``; every other row is an exact repr of one value.
    """
    rows = [",".join(repr(x) for x in obs) for obs in values]
    total = len(rows) + malformed
    bad_at = set(rng.choice(total, size=malformed, replace=False).tolist())
    out, it, k = [], iter(rows), 0
    for pos in range(total):
        if pos in bad_at:
            out.append(MALFORMED[k % len(MALFORMED)])
            k += 1
        else:
            out.append(next(it))
    return out


def write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")
