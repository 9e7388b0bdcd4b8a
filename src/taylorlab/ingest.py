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
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING

from .errors import ConfigError, FetchError, IngestError
from .records import Frozen, Record
from .series import _QUARTER, CORE_SERIES, Dataset, Quarter, Series

if TYPE_CHECKING:
    from pathlib import Path

# A date token, blanks around it allowed: an ISO date with a day of 01-31,
# whose month gives the quarter, or a quarter in the form Quarter.parse reads.
# Its groups: the ISO year and month, then the quarter's year and number.
_DATE_RE = re.compile(
    rf"\s*(?:([0-9]{{4}})-(0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])|{_QUARTER})\s*"
)
# the quarter within its year (0-3) of a month group or a quarter group
_QUARTER_OF = {f"{m:02d}": (m - 1) // 3 for m in range(1, 13)}
_QUARTER_OF.update({str(q): q - 1 for q in range(1, 5)})
# A FRED cache file's first line: the byte lengths of the responses after it,
# one per core series in CORE_SERIES order, each short enough for int()
_HEAD_RE = re.compile(rb" ".join([rb"(\d{1,20})"] * len(CORE_SERIES)) + rb"\n")


def _is_number(cell) -> bool:
    """Whether a cell converts with ``float`` and, if text, is ASCII with no
    ``_`` once stripped of the blanks around it; a JSON boolean does not count."""
    try:
        float(cell)
    except (TypeError, ValueError, OverflowError):
        return False
    if cell.__class__ is str:
        cell = cell.strip()
        return cell.isascii() and "_" not in cell
    return cell.__class__ is not bool


def _plain(flat: list) -> bool:
    """Whether every cell's text, blanks included, is ASCII with no ``_``:
    a screen for ``_is_number``'s text rule, one pass over all cells."""
    try:
        text = "".join(flat)
    except TypeError:  # JSON numbers, whose text is ASCII, among the cells
        text = "".join(map(str, flat))
    return text.isascii() and "_" not in text


def _calendar(first: re.Match, n: int) -> tuple[int, list[str]]:
    """The quarter index of date token match ``first``, and the n consecutive
    quarters from it spelled as its token is: the same blanks and, for a
    quarter, separator and ``Q`` or ``q``, or for an ISO date the same month
    of each quarter and day. The list is empty when a year falls outside
    1000-9999, whose 4-digit spellings have no leading zero."""
    token, (y, month, qy, q) = first.string, first.groups()
    if y:
        a = first.start(1)
        tails = [f"-{m:02d}{token[a + 7:]}" for m in range((int(month) - 1) % 3 + 1, 13, 3)]
    else:
        a, b = first.start(3), first.start(4)
        tails = [f"{token[a + 4:b]}{j}{token[b + 1:]}" for j in "1234"]
    i0 = int(y or qy) * 4 + _QUARTER_OF[month or q]
    y0, y1 = i0 // 4, (i0 + n - 1) // 4
    if not 1000 <= y0 <= y1 <= 9999:
        return i0, []
    heads = [f"{token[:a]}{year}" for year in range(y0, y1 + 1)]
    return i0, [h + t for h in heads for t in tails][i0 % 4 : i0 % 4 + n]


def _dates(tokens: list) -> tuple[list[int], int, str | None]:
    """The date stage of ``_decode``: the quarter index of each row before the
    first date or order fault, that row (``len(tokens)`` if none) and the
    fault's text (``None`` if none), which names no source or row number.
    Tokens equal to the ``_calendar`` of the first are consecutive quarters
    with no fault, found in one comparison; any others are matched one by
    one."""
    first = _DATE_RE.fullmatch(tokens[0]) if tokens else None
    if first:
        i0, calendar = _calendar(first, len(tokens))
        if tokens == calendar:
            return list(range(i0, i0 + len(tokens))), len(tokens), None
    end, fault = len(tokens), None
    matches = list(map(_DATE_RE.fullmatch, tokens))
    if None in matches:
        end = matches.index(None)
        fault = f"cannot parse date token {tokens[end]!r}"
        del matches[end:]
    index = [int(y or qy) * 4 + _QUARTER_OF[month or q]
             for y, month, qy, q in map(re.Match.groups, matches)]
    if index and index != list(range(index[0], index[0] + end)):
        end = next(i for i in range(1, end) if index[i] != index[i - 1] + 1)
        problem = ("duplicate quarter" if index[end] == index[end - 1]
                   else "not consecutive (gap or order) at")
        fault = f"{problem} {Quarter.from_index(index[end])}"
        del index[end:]
    return index, end, fault


def _decode(
    numbers, tokens: list, cells: list, names: list[str], source: str, dates=None
) -> dict[str, Series]:
    """Series ``names`` from rows given as row numbers, date tokens and cell lists.

    The rows must be consecutive quarters, each with one cell per name.
    Errors name the row as "<source>, row <n>". The error raised is the
    first fault in row order and, within a row, the first of: cell count,
    date, order, value. The date stage is ``(dates or _dates)(tokens)``:
    ``fetch_series`` passes the result of equal tokens it has decoded already.
    """
    k = len(names)
    index, end, fault = (dates or _dates)(tokens)  # rows before the first fault; its text

    counts = list(map(len, cells[:end + 1]))  # up to the date or order fault's row
    if counts.count(k) != len(counts):  # within a row, the cell count comes first
        end = next(i for i, c in enumerate(counts) if c != k)
        fault = f"expected {k + 1} cells, got {counts[end] + 1}"

    flat = list(chain.from_iterable(cells[:end]))  # row by row
    try:
        values = list(map(float, flat))
        numeric = bool not in map(type, flat)
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if not (numeric and _plain(flat)):
        # the screen also fails a good cell with non-ASCII blanks around it
        bad = [j for j, cell in enumerate(flat) if not _is_number(cell)]
        if bad:
            row, col = divmod(bad[0], k)
            raise IngestError(
                f"{source}, row {numbers[row]}, column {names[col]!r}: "
                f"unparsable cell {flat[bad[0]]!r}"
            )
    if fault:
        raise IngestError(f"{source}, row {numbers[end]}: {fault}")
    if not end:
        raise IngestError(f"{source} holds no observations")
    start = Quarter.from_index(index[0])
    return {name: Series(name, start, values[col::k]) for col, name in enumerate(names)}


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
    numbers = [n for n, row in enumerate(body, start=2) if "".join(row).strip()]
    rows = [body[n - 2] for n in numbers]
    tokens = [row[0] for row in rows]
    cells = [row[1:] for row in rows]
    return Dataset(country or "unnamed", _decode(numbers, tokens, cells, names, "CSV"))


def embedded_dataset(country: str) -> Dataset:
    """The full 121-quarter panel for 'us' or 'uk' (1990Q1-2020Q1)."""
    country = country.lower()
    if country not in ("us", "uk"):
        raise ConfigError(f"no embedded dataset for country {country!r}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{country}.csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_quarterly_csv(text, country)


class RemoteConfig(Record):
    _fields = ("base_url", "api_key_env")

    def __new__(
        cls, base_url: str = "https://api.stlouisfed.org/fred/series/observations",
        api_key_env: str = "FRED_API_KEY",
    ):
        return tuple.__new__(cls, (base_url, api_key_env))


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


def _cache_key(base_url: str, series_ids: list[str]) -> str:
    import hashlib  # imported here: only a remote fetch needs it

    # a JSON list keeps the parts apart: no two sources share a key
    return hashlib.sha256(json.dumps([base_url, *series_ids]).encode()).hexdigest()[:24]


def _unpack(path: Path, data: bytes) -> list[bytes]:
    """The four responses in cache file ``path``, whose bytes are ``data``."""
    head = _HEAD_RE.match(data)
    ends = list(accumulate(map(int, head.groups()), initial=head.end())) if head else []
    if not ends or ends[-1] != len(data):
        raise FetchError(f"malformed cache file {path}: not four byte lengths and their responses")
    return [data[a:b] for a, b in pairwise(ends)]


def _read(path: Path, size: int = -1) -> bytes:
    """At most ``size`` bytes of ``path`` (all of it by default), opened
    non-blocking: a FIFO at the path reads as empty instead of waiting for a
    writer."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    with open(fd, "rb") as fh:
        return fh.read(size) or b""  # None: a FIFO whose writer has written nothing yet


def _store(path: Path, data: bytes) -> None:
    """Make ``path`` hold ``data``: an identical file is left alone, any other
    replaced atomically; a failed write leaves no temporary file."""
    try:
        if _read(path, len(data) + 1) == data:
            return
    except OSError:
        pass  # a file that cannot be read is replaced
    import tempfile  # imported here, as are pathlib and urllib.parse: only a fetch needs them

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


def _decode_observations(name: str, raw: bytes, dates=None) -> Series:
    """One series from a FRED payload, dates ascending; ``dates`` as for ``_decode``."""
    try:
        obs = json.loads(raw)["observations"]
        try:
            tokens = [str(o["date"]) for o in obs]
            values = [o["value"] for o in obs]
        except (KeyError, TypeError):
            for o in obs:  # raise for the first observation that lacks a date or a value
                o["date"], o["value"]
            raise
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise IngestError(f"series {name!r}: cannot decode observations payload: {exc}") from exc
    numbers = range(1, len(values) + 1)
    return _decode(numbers, tokens, list(zip(values)), [name], f"series {name!r}", dates)[name]


def fetch_series(desc: SourceDescriptor, http_get=None) -> Dataset:
    """Fetch the four core series of a FRED source, all of one vintage.

    Each series id is requested from ``base_url`` in ``CORE_SERIES`` order,
    and each response type-checked (``FetchError`` naming the series id
    unless ``bytes`` or ``bytearray``) and decoded. The first request that
    fails with an ``OSError`` (``URLError`` included) ends the requests, and
    all four series are decoded from the source's one cache file instead.
    Once the ``Dataset`` is built, that file is made to hold the four
    responses, after a line of their byte lengths: one atomic replace, or
    no write if it holds them already. A cache that cannot be created,
    written or read, or a malformed cache file, raises ``FetchError``
    naming the path. ``http_get`` may be injected. A series whose date
    tokens equal the previous series' takes its ``_dates`` result, so four
    series on one calendar decode their dates once.
    """
    import urllib.parse
    from pathlib import Path

    api_key = os.environ.get(desc.remote.api_key_env, "")
    if not api_key:
        raise ConfigError(f"remote source needs an API key in ${desc.remote.api_key_env}")
    http_get = http_get or _default_http_get
    cache_dir = Path(desc.cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FetchError(f"cannot create cache directory {cache_dir}: {exc}") from exc
    ids = [desc.series_ids[role] for role in CORE_SERIES]
    cache_path = cache_dir / _cache_key(desc.remote.base_url, ids)
    series, responses = {}, []
    last = [None, None]  # the previous series' date tokens and their _dates result

    def dates(tokens):
        if tokens != last[0]:
            last[:] = tokens, _dates(tokens)
        return last[1]

    for role, sid in zip(CORE_SERIES, ids):
        query = urllib.parse.urlencode({
            "series_id": sid, "api_key": api_key, "file_type": "json",
            # quarterly averages, whatever the native frequency of the series
            "frequency": "q", "aggregation_method": "avg",
        })
        try:
            raw = http_get(f"{desc.remote.base_url}?{query}")
        except OSError as exc:  # URLError and ConnectionError included
            try:
                data = _read(cache_path)
            except FileNotFoundError:
                raise FetchError(f"fetch of {sid!r} failed with no cached copy: {exc}") from exc
            except OSError as err:
                raise FetchError(f"cannot read cached copy {cache_path}: {err}") from err
            responses = _unpack(cache_path, data)
            series = {role: _decode_observations(role, raw, dates)
                      for role, raw in zip(CORE_SERIES, responses)}
            break
        if not isinstance(raw, (bytes, bytearray)):
            raise FetchError(f"fetch of {sid!r} returned {type(raw).__name__}, not bytes")
        series[role] = _decode_observations(role, raw, dates)
        responses.append(raw)
    dataset = Dataset(desc.country, series)
    data = b" ".join(b"%d" % len(raw) for raw in responses) + b"\n" + b"".join(responses)
    _store(cache_path, data)
    return dataset
