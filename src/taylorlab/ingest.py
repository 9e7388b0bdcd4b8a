"""Data acquisition: embedded datasets, quarterly CSV parsing, FRED fetch.

The embedded US/UK datasets are the quarterly panels the analysis is built
on (1990Q1-2020Q1, 121 observations each), shipped as CSV package data.
The fetcher speaks FRED's JSON observations API and caches raw responses
locally; the reproduction path never uses it. CSV rows and FRED
observations share one decoder and so one set of date and contiguity rules.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
import urllib.parse
from importlib import resources
from pathlib import Path

from .errors import ConfigError, FetchError, IngestError
from .records import Frozen, Record
from .series import _QUARTER_RE, CORE_SERIES, Dataset, Quarter, Series

_ISO_RE = re.compile(r"^(\d{4})-(0[1-9]|1[0-2])-\d{2}$")


def _quarter_index(token: str) -> int | None:
    """``Quarter.index`` of a date token, or None if it is not a date."""
    token = token.strip()
    m = _ISO_RE.match(token)
    if m:
        return int(m.group(1)) * 4 + (int(m.group(2)) - 1) // 3
    m = _QUARTER_RE.match(token)
    return int(m.group(1)) * 4 + int(m.group(2)) - 1 if m else None


def _quarter(index: int) -> Quarter:
    return Quarter(index // 4, index % 4 + 1)


def _decode(rows, names: list[str], source: str) -> dict[str, Series]:
    """Series ``names`` from (row number, date token, cells) rows.

    The rows must be consecutive quarters, each with one cell per name.
    Errors name the row as "<source>, row <n>".
    """
    columns = [[] for _ in names]
    prev = None
    for n, token, cells in rows:
        if len(cells) != len(names):
            raise IngestError(
                f"{source}, row {n}: expected {len(names) + 1} cells, got {len(cells) + 1}"
            )
        index = _quarter_index(token)
        if index is None:
            raise IngestError(f"{source}, row {n}: cannot parse date token {token!r}")
        if prev is not None and index != prev + 1:
            problem = "duplicate quarter" if index == prev else "not consecutive (gap or order) at"
            raise IngestError(f"{source}, row {n}: {problem} {_quarter(index)}")
        prev = index
        for col, cell in enumerate(cells):
            try:
                columns[col].append(float(cell))
            except (TypeError, ValueError):
                raise IngestError(
                    f"{source}, row {n}, column {names[col]!r}: unparsable cell {cell!r}"
                ) from None
    if prev is None:
        raise IngestError(f"{source} holds no observations")
    start = _quarter(prev + 1 - len(columns[0]))  # the rows are consecutive quarters
    return {name: Series(name, start, col) for name, col in zip(names, columns)}


def parse_quarterly_csv(text: str | bytes, country: str = "") -> Dataset:
    """Parse a quarterly CSV with a date column and one column per series.

    Column names must be distinct and non-blank. Blank lines are skipped;
    the other rows must be consecutive quarters, with no gap or duplicate.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"CSV is not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        body = list(reader)
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise IngestError(f"CSV, line {reader.line_num}: {exc}") from None
    if header is None:
        raise IngestError("empty CSV: header row missing")
    if len(header) < 2:
        raise IngestError("CSV needs a date column and at least one value column")
    names = [h.strip() for h in header[1:]]
    for k, name in enumerate(names):
        if not name or name in names[:k]:
            raise IngestError(f"CSV header: column {k + 2} name {name!r} is blank or repeated")
    rows = ((n, row[0], row[1:]) for n, row in enumerate(body, start=2)
            if any(cell.strip() for cell in row))
    return Dataset(country or "unnamed", _decode(rows, names, "CSV"))


def embedded_dataset(country: str) -> Dataset:
    """The full 121-quarter panel for 'us' or 'uk' (1990Q1-2020Q1)."""
    country = country.lower()
    if country not in ("us", "uk"):
        raise ConfigError(f"no embedded dataset for country {country!r}")
    text = (resources.files("taylorlab") / "data" / f"{country}.csv").read_text()
    return parse_quarterly_csv(text, country)


class RemoteConfig(Record):
    _fields = ("base_url", "api_key_env")

    def __init__(
        self, base_url: str = "https://api.stlouisfed.org/fred/series/observations",
        api_key_env: str = "FRED_API_KEY",
    ):
        self.__dict__.update(base_url=base_url, api_key_env=api_key_env)


class SourceDescriptor(Frozen):
    """A FRED source for ``fetch_series``: the four core series ids and a cache.

    It holds the ``series_ids`` dict, so it compares by identity.
    """

    _fields = ("kind", "country", "series_ids", "cache_dir", "remote")

    # kind: "remote", the only source kind; kept first for positional callers
    def __init__(
        self, kind: str, country: str, series_ids: dict[str, str] | None = None,
        cache_dir: str | Path = "", remote: RemoteConfig = RemoteConfig(),
    ):
        if kind != "remote":
            raise ConfigError(f"unknown source kind {kind!r}")
        missing = [r for r in CORE_SERIES if r not in (series_ids or {})]
        if missing:
            raise ConfigError(f"remote source needs ids for: {', '.join(missing)}")
        if not cache_dir:
            raise ConfigError("remote source needs a cache_dir")
        self.__dict__.update(
            kind=kind, country=country, series_ids=series_ids, cache_dir=cache_dir, remote=remote
        )


def _default_http_get(url: str) -> bytes:
    # imported here: urllib.request pulls in http.client and email, which
    # every other command would pay for at start-up
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read()


def _cache_key(base_url: str, series_id: str) -> str:
    import hashlib  # imported here: only a remote fetch needs it

    return hashlib.sha256(f"{base_url}|{series_id}".encode()).hexdigest()[:24]


def _atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``; on failure no temporary file is left."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            os.unlink(tmp)
        raise FetchError(f"cannot write cache file {path}: {exc}") from exc


def _decode_observations(name: str, raw: bytes) -> Series:
    """One series from a FRED payload, whose dates come in ascending order."""
    try:
        obs = json.loads(raw)["observations"]
        rows = [(n, str(o["date"]), (o["value"],)) for n, o in enumerate(obs, start=1)]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise IngestError(f"series {name!r}: cannot decode observations payload: {exc}") from exc
    return _decode(rows, [name], f"series {name!r}")[name]


def fetch_series(desc: SourceDescriptor, http_get=None) -> Dataset:
    """Fetch the four core series of a FRED source.

    Each series id is requested once from ``base_url`` and the raw response
    is written to the cache directory. Only when the request fails with an
    ``OSError`` (``URLError`` included) is the cached copy read instead. A
    cache that cannot be created, written or read raises ``FetchError``
    naming the path. ``http_get`` may be injected for testing.
    """
    api_key = os.environ.get(desc.remote.api_key_env, "")
    if not api_key:
        raise ConfigError(f"remote source needs an API key in ${desc.remote.api_key_env}")
    http_get = http_get or _default_http_get
    cache_dir = Path(desc.cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FetchError(f"cannot create cache directory {cache_dir}: {exc}") from exc
    series = {}
    for role in CORE_SERIES:
        sid = desc.series_ids[role]
        query = urllib.parse.urlencode({
            "series_id": sid, "api_key": api_key, "file_type": "json",
            # quarterly averages, whatever the native frequency of the series
            "frequency": "q", "aggregation_method": "avg",
        })
        cache_path = cache_dir / f"{_cache_key(desc.remote.base_url, sid)}.json"
        try:
            raw = http_get(f"{desc.remote.base_url}?{query}")
        except OSError as exc:  # URLError and ConnectionError included
            try:
                raw = cache_path.read_bytes()
            except FileNotFoundError:
                raise FetchError(f"fetch of {sid!r} failed with no cached copy: {exc}") from exc
            except OSError as err:
                raise FetchError(f"cannot read cached copy {cache_path}: {err}") from err
        else:
            _atomic_write(cache_path, raw)
        series[role] = _decode_observations(role, raw)
    return Dataset(desc.country, series)
