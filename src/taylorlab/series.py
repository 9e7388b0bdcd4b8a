"""Calendar-aware quarterly series: containers, lagging, logs, sample alignment.

All observation containers are immutable; every operation returns a new
object. A series is a contiguous run of quarterly values anchored at a
start quarter, so observation ``k`` always belongs to ``start + k``.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DomainError, SampleError
from .records import Frozen, Record, is_integer

_QUARTER_RE = re.compile(r"^(\d{4})[-: ]?Q([1-4])$", re.IGNORECASE)


class Quarter(Record):
    """A calendar quarter, totally ordered by (year, q). ``>`` and ``>=``
    come from the reflected ``__lt__`` and ``__le__``."""

    _fields = ("year", "q")

    def __init__(self, year: int, q: int):
        if not is_integer(year):
            raise DomainError(f"year must be an integer, got {year!r}")
        if not is_integer(q) or q not in (1, 2, 3, 4):
            raise DomainError(f"quarter number must be 1..4, got {q!r}")
        self.__dict__.update(year=year, q=q)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.year, self.q) < (other.year, other.q)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.year, self.q) <= (other.year, other.q)
        return NotImplemented

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        """Parse forms like '1991Q1', '1991-Q1' or '1991:Q1'."""
        m = _QUARTER_RE.match(text.strip())
        if not m:
            raise DomainError(f"cannot parse quarter {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def from_index(cls, i: int) -> "Quarter":
        """The quarter at position ``i`` of the absolute axis; inverse of ``index``."""
        return cls(i // 4, i % 4 + 1)

    @property
    def index(self) -> int:
        """Position on the absolute quarter axis (year 0 Q1 = 0)."""
        return self.year * 4 + (self.q - 1)

    def offset(self, k: int) -> "Quarter":
        return Quarter.from_index(self.index + k)

    def __sub__(self, other: "Quarter") -> int:
        return self.index - other.index

    def __str__(self) -> str:
        return f"{self.year}Q{self.q}"


class Series(Frozen):
    """Contiguous quarterly observations with no internal gaps.

    ``values`` is a read-only float64 array. Writable input is copied, so
    a caller can never change a series after the fact; read-only input
    (a lag or a rename of another series) is shared. Series compare by
    identity.
    """

    _fields = ("name", "start", "values")

    def __init__(self, name: str, start: Quarter, values):
        values = np.asarray(values, dtype=float)
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        if values.ndim != 1:
            raise DomainError(f"series {name!r} values must be one-dimensional")
        if values.size == 0:
            raise SampleError(f"series {name!r} must hold at least one value")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError(
                f"series {name!r} has non-finite value at {start.offset(int(bad[0]))}"
            )
        self.__dict__.update(name=name, start=start, values=values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> Quarter:
        return self.start.offset(len(self.values) - 1)

    def covers(self, start: Quarter, end: Quarter) -> bool:
        return self.start <= start and end <= self.end

    def at(self, quarter: Quarter) -> float:
        if not self.covers(quarter, quarter):
            raise SampleError(
                f"series {self.name!r} spans {self.start}..{self.end}, "
                f"no observation at {quarter}"
            )
        return float(self.values[quarter - self.start])

    def window(self, start: Quarter, end: Quarter) -> np.ndarray:
        """Observations over [start, end] as a read-only view of ``values``."""
        if not self.covers(start, end):
            raise SampleError(
                f"series {self.name!r} spans {self.start}..{self.end}, "
                f"cannot cover {start}..{end}"
            )
        lo = start - self.start
        return self.values[lo : lo + (end - start) + 1]

    def renamed(self, name: str) -> "Series":
        return Series(name, self.start, self.values)


def common_span(series) -> tuple[Quarter, Quarter]:
    """Latest start and earliest end over a list of series; empty if end < start."""
    return max(s.start for s in series), min(s.end for s in series)


def lag(s: Series, k: int) -> Series:
    """Shift a series back by k quarters on the common calendar.

    The result at quarter t equals s at t-k; the first k observations of
    the original calendar have no lagged counterpart and are dropped.
    """
    if not is_integer(k) or k < 0:
        raise DomainError(f"lag must be a non-negative integer, got {k!r}")
    if k == 0:
        return s
    if k >= len(s):
        raise SampleError(
            f"lag {k} of series {s.name!r} (length {len(s)}) leaves an empty sample"
        )
    return Series(f"{s.name}(-{k})", s.start.offset(k), s.values[: len(s) - k])


def natural_log(s: Series) -> Series:
    """Elementwise natural log; every value must be strictly positive."""
    bad = np.flatnonzero(s.values <= 0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"log of series {s.name!r} undefined at {s.start.offset(i)}: value {s.values[i]}"
        )
    return Series(f"log_{s.name}", s.start, np.log(s.values))


CORE_SERIES = ("real_gdp", "cpi", "interest_rate", "stock_index")


class Dataset(Frozen):
    """Named collection of series for one country, whose calendars share
    at least one quarter. Datasets compare by identity."""

    _fields = ("country", "series")

    def __init__(self, country: str, series: dict[str, Series] | None = None):
        if not series:
            raise SampleError("dataset needs at least one series")
        start, end = common_span(series.values())
        if end < start:
            raise SampleError(f"series of dataset {country!r} share no common quarter")
        self.__dict__.update(country=country, series=series)

    def require(self, *names: str) -> None:
        missing = [n for n in names if n not in self.series]
        if missing:
            raise SampleError(
                f"dataset {self.country!r} is missing series: {', '.join(missing)}"
            )

    def with_series(self, *added: Series) -> "Dataset":
        merged = dict(self.series)
        for s in added:
            merged[s.name] = s
        return Dataset(self.country, merged)

    def __getitem__(self, name: str) -> Series:
        try:
            return self.series[name]
        except KeyError:
            raise SampleError(
                f"dataset {self.country!r} has no series {name!r}"
            ) from None


def align_sample(
    d: Dataset, names: list[str], start: Quarter, end: Quarter
) -> np.ndarray:
    """Rectangular observation matrix over [start, end].

    Rows are quarters, columns follow ``names``. Raises a sample error
    naming the maximal feasible range if any series falls short.
    """
    if end < start:
        raise SampleError(f"empty sample range {start}..{end}")
    for name in names:
        d[name]  # existence check with a series-level message
    feas_start, feas_end = common_span([d[n] for n in names])
    short = [n for n in names if not d[n].covers(start, end)]
    if short:
        raise SampleError(
            f"series {', '.join(repr(n) for n in short)} cannot cover "
            f"{start}..{end}; maximal feasible range is {feas_start}..{feas_end}"
        )
    return np.column_stack([d[n].window(start, end) for n in names])
