"""Data acquisition: embedded datasets, quarterly CSV parsing, remote fetch.

The embedded US/UK datasets are the quarterly panels the analysis is built
on (1990Q1-2020Q1, 121 observations each), shipped as CSV package data.
The remote fetcher speaks a FRED-style JSON observations API and caches
raw responses locally; it is never used by the reproduction path.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
import urllib.parse
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError, FetchError, IngestError
from .series import CORE_SERIES, Dataset, Quarter, Series

_MDY_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2})$")
_ISO_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def parse_quarter_token(token: str) -> Quarter:
    """Accept YYYY-QN, YYYY-MM-DD (first month of a quarter) or M/D/YY."""
    token = token.strip()
    m = _ISO_RE.match(token)
    if m:
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise IngestError(f"cannot parse date token {token!r}")
        return Quarter(year, (month - 1) // 3 + 1)
    m = _MDY_RE.match(token)
    if m:
        month, yy = int(m.group(1)), int(m.group(3))
        if not 1 <= month <= 12:
            raise IngestError(f"cannot parse date token {token!r}")
        year = 1900 + yy if yy >= 50 else 2000 + yy
        return Quarter(year, (month - 1) // 3 + 1)
    try:
        return Quarter.parse(token)
    except Exception:
        raise IngestError(f"cannot parse date token {token!r}") from None


def parse_quarterly_csv(text: str | bytes, country: str = "") -> Dataset:
    """Parse a quarterly CSV with a date column and one column per series.

    Rows must form consecutive quarters with no holes or duplicates.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"CSV is not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty CSV: header row missing") from None
    if len(header) < 2:
        raise IngestError("CSV needs a date column and at least one value column")
    names = [h.strip() for h in header[1:]]
    quarters: list[Quarter] = []
    columns: list[list[float]] = [[] for _ in names]
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise IngestError(f"row {rownum}: expected {len(header)} cells, got {len(row)}")
        q = parse_quarter_token(row[0])
        if quarters:
            expected = quarters[-1].offset(1)
            if q == quarters[-1]:
                raise IngestError(f"row {rownum}: duplicate quarter {q}")
            if q != expected:
                raise IngestError(f"row {rownum}: gap in quarters, expected {expected} got {q}")
        quarters.append(q)
        for col, cell in enumerate(row[1:]):
            try:
                columns[col].append(float(cell))
            except ValueError:
                raise IngestError(
                    f"row {rownum}, column {names[col]!r}: unparsable cell {cell!r}"
                ) from None
    if not quarters:
        raise IngestError("CSV holds no observation rows")
    series = {
        name: Series(name, quarters[0], col) for name, col in zip(names, columns)
    }
    return Dataset(country or "unnamed", series)


def export_quarterly_csv(d: Dataset, names: list[str] | None = None) -> str:
    """Inverse of parse_quarterly_csv over the dataset's common span."""
    names = names or sorted(d.series)
    start, end = d.span
    lines = ["date," + ",".join(names)]
    for k in range(end - start + 1):
        q = start.offset(k)
        lines.append(f"{q.year}-Q{q.q}," + ",".join(repr(d[n].at(q)) for n in names))
    return "\n".join(lines) + "\n"


def embedded_dataset(country: str) -> Dataset:
    """The full 121-quarter panel for 'us' or 'uk' (1990Q1-2020Q1)."""
    country = country.lower()
    if country not in ("us", "uk"):
        raise ConfigError(f"no embedded dataset for country {country!r}")
    text = (resources.files("taylorlab") / "data" / f"{country}.csv").read_text()
    d = parse_quarterly_csv(text, country)
    d.require_core()
    return d


@dataclass(frozen=True)
class RemoteConfig:
    base_url: str = "https://api.stlouisfed.org/fred/series/observations"
    api_key_param: str = "api_key"
    api_key_env: str = "FRED_API_KEY"


@dataclass(frozen=True)
class SourceDescriptor:
    kind: str  # embedded | csv_path | remote
    country: str
    series_ids: dict[str, str] = field(default_factory=dict)
    cache_dir: str | Path = ""
    csv_path: str | Path = ""
    remote: RemoteConfig = RemoteConfig()

    def __post_init__(self):
        if self.kind not in ("embedded", "csv_path", "remote"):
            raise ConfigError(f"unknown source kind {self.kind!r}")
        if self.kind == "remote":
            missing = [r for r in CORE_SERIES if r not in self.series_ids]
            if missing:
                raise ConfigError(f"remote source needs ids for: {', '.join(missing)}")
            if not self.cache_dir:
                raise ConfigError("remote source needs a cache_dir")


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
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _decode_observations(name: str, raw: bytes) -> Series:
    try:
        payload = json.loads(raw)
        obs = payload["observations"]
        pairs = [(parse_quarter_token(o["date"]), float(o["value"])) for o in obs]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise IngestError(f"series {name!r}: cannot decode observations payload: {exc}") from exc
    if not pairs:
        raise IngestError(f"series {name!r}: empty observations array")
    pairs.sort(key=lambda p: p[0])
    for (qa, _), (qb, _) in zip(pairs, pairs[1:]):
        if qb != qa.offset(1):
            raise IngestError(f"series {name!r}: observations are not consecutive quarters")
    return Series(name, pairs[0][0], [v for _, v in pairs])


def fetch_series(desc: SourceDescriptor, http_get=None) -> Dataset:
    """Build a dataset per its source descriptor.

    Remote fetches hit ``base_url`` once per series id, write the raw
    response to the cache directory, and fall back to the cached copy on
    any network failure. ``http_get`` may be injected for testing.
    """
    if desc.kind == "embedded":
        return embedded_dataset(desc.country)
    if desc.kind == "csv_path":
        return parse_quarterly_csv(Path(desc.csv_path).read_bytes(), desc.country)

    api_key = os.environ.get(desc.remote.api_key_env, "")
    if not api_key:
        raise ConfigError(
            f"remote source needs an API key in ${desc.remote.api_key_env}"
        )
    http_get = http_get or _default_http_get
    cache_dir = Path(desc.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    series = {}
    for role in CORE_SERIES:
        sid = desc.series_ids[role]
        query = urllib.parse.urlencode(
            {"series_id": sid, desc.remote.api_key_param: api_key, "file_type": "json"}
        )
        url = f"{desc.remote.base_url}?{query}"
        cache_path = cache_dir / f"{_cache_key(desc.remote.base_url, sid)}.json"
        try:
            raw = http_get(url)
            _atomic_write(cache_path, raw)
        except OSError as exc:  # URLError and ConnectionError included
            if not cache_path.exists():
                raise FetchError(f"fetch of {sid!r} failed with no cached copy: {exc}") from exc
            raw = cache_path.read_bytes()
        series[role] = _decode_observations(role, raw)
    d = Dataset(desc.country, series)
    d.require_core()
    return d
