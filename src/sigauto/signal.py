"""Append-only buffer of d-dimensional observations.

Instants are implicit: the observation appended k-th lives at instant k.
Observations are immutable once stored and random access is O(1), which the
incremental model updates rely on.  ``Signal.append`` checks each row: the
stages that read a signal take its rows, tuples of finite floats of one
width, as they are.  Per-coordinate moments are folded lazily: a reader
pays only for the observations appended since the previous read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterable

from .errors import EmptyInputError, RejectedInputError


def as_observation(value, dim: int | None = None) -> tuple[float, ...]:
    """Coerce a scalar or sequence into a validated observation tuple.

    A tuple whose coordinates are all of type ``float`` is checked and
    returned as it is, not copied, so a validated row keeps its identity;
    anything else (a list, ints, numpy scalars) is converted into a new
    tuple.  A bare ``float`` is wrapped in a one-coordinate tuple without
    the general conversion, so a list of floats fills a signal cheaply, and
    is then checked like any row.  A ``bool`` value or coordinate, and a
    ``str``, ``bytes`` or mapping value, is not numeric; a non-finite row
    of another width is refused as non-finite.
    """
    coords = value if type(value) is tuple else None
    for x in coords or ():
        if type(x) is not float:
            coords = None
            break
    if type(value) is float:
        coords = (value,)
    elif coords is None:
        try:
            if isinstance(value, (int, float)) and type(value) is not bool:
                coords = (float(value),)
            elif type(value) is list or not isinstance(value, (str, bytes, bytearray, Mapping)):
                values = tuple(value)  # refuses a bool value, which is not iterable
                if bool in map(type, values):
                    raise TypeError(f"{value!r} holds a boolean")
                coords = tuple(map(float, values))
            else:
                raise TypeError(f"{value!r} is not a sequence of numbers")
        except (TypeError, ValueError) as exc:
            raise RejectedInputError(f"observation is not numeric: {value!r}") from exc
    if not coords:
        raise RejectedInputError("observation has no coordinates")
    for x in coords:
        if not math.isfinite(x):
            raise RejectedInputError(f"observation contains a non-finite value: {coords}")
    if dim is not None and len(coords) != dim:
        raise RejectedInputError(
            f"observation has {len(coords)} coordinates, expected {dim}"
        )
    return coords


class Signal:
    """Growing sequence of observations with constant-time random access."""

    __slots__ = ("_obs", "_dim", "_folded", "_shift", "_mean", "_m2")

    def __init__(self, observations: Iterable | None = None):
        self._obs: list[tuple[float, ...]] = []
        self._dim: int | None = None
        # Moments of the first ``_folded`` observations, shifted by the first
        # one so the merge keeps its digits when the data sit far from zero.
        self._folded = 0
        self._shift = self._mean = self._m2 = None
        if observations is not None:
            for obs in observations:
                self.append(obs)

    def append(self, obs) -> int:
        """Append one observation, returning its instant.

        A tuple of floats is stored as the caller's object (``as_observation``
        returns it unchanged); any other input is stored as a converted copy.
        """
        coords = as_observation(obs, self._dim)
        if self._dim is None:
            self._dim = len(coords)
        self._obs.append(coords)
        return len(self._obs) - 1

    def __len__(self) -> int:
        return len(self._obs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._obs[index])
        return self._obs[index]

    def __iter__(self):
        return iter(self._obs)

    def moments(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Count, per-coordinate mean and sum of squared deviations (M2).

        Only the observations appended since the previous call are read: they
        form one chunk whose mean and M2 are merged into the stored totals
        with the pairwise update of Chan, Golub & LeVeque.
        """
        import numpy as np

        n = len(self._obs)
        if n == 0:
            raise EmptyInputError("signal is empty, no moments")
        n_a = self._folded
        if n_a < n:
            if n_a == 0:
                self._shift = np.asarray(self._obs[0], dtype=float)
                self._mean = self._m2 = np.zeros(self._dim)
            chunk = np.asarray(self._obs[n_a:], dtype=float) - self._shift
            k = n - n_a
            mean_b = chunk.mean(axis=0)
            m2_b = np.square(chunk - mean_b).sum(axis=0)
            delta = mean_b - self._mean
            self._mean = self._mean + delta * (k / n)
            self._m2 = self._m2 + m2_b + np.square(delta) * (n_a * k / n)
            self._folded = n
        return n, self._shift + self._mean, self._m2

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise EmptyInputError("signal is empty, dimension unknown")
        return self._dim

    @property
    def last_instant(self) -> int:
        return len(self._obs) - 1

    def __repr__(self) -> str:
        return f"Signal(n={len(self._obs) - 1}, dim={self._dim})"
