import csv
import errno
import io
import json
import os
import re
import urllib.error
import urllib.parse
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import ingest
from taylorlab.errors import ConfigError, FetchError, IngestError, TaylorLabError
from taylorlab.ingest import (
    RemoteConfig,
    SourceDescriptor,
    embedded_dataset,
    fetch_series,
    parse_quarterly_csv,
)
from taylorlab.series import CORE_SERIES, Quarter, Series, common_span


class TestParseQuarterToken:
    # the date forms a CSV row may carry, through the shared decoder
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1991-Q1", Quarter(1991, 1)),
            ("1991Q3", Quarter(1991, 3)),
            ("1990-01-01", Quarter(1990, 1)),
            ("2019-10-01", Quarter(2019, 4)),
        ],
    )
    def test_accepted_formats(self, token, expected):
        assert parse_quarterly_csv(f"date,x\n{token},1.0\n")["x"].start == expected

    @pytest.mark.parametrize("token", ["", "Q1-1991", "13/1/90", "1991-13-01", "1/1/90"])
    def test_rejected_tokens(self, token):
        with pytest.raises(IngestError, match="cannot parse date token"):
            parse_quarterly_csv(f"date,x\n{token},1.0\n")

    @pytest.mark.parametrize("day", ["01", "09", "10", "19", "20", "29", "30", "31"])
    def test_iso_days_01_to_31_accepted(self, day):
        assert parse_quarterly_csv(f"date,x\n1990-05-{day},1.0\n")["x"].start == Quarter(1990, 2)

    @pytest.mark.parametrize("day", ["00", "32", "39", "40", "99"])
    def test_impossible_iso_day_rejected(self, day):
        with pytest.raises(IngestError, match=f"row 2: cannot parse date token '1990-01-{day}'"):
            parse_quarterly_csv(f"date,x\n1990-01-{day},1\n1990-04-01,2\n")

    def test_impossible_days_in_every_row(self):
        with pytest.raises(IngestError, match="row 2: cannot parse date token '1990-01-99'"):
            parse_quarterly_csv("date,x\n1990-01-99,1\n1990-04-00,2\n")


class TestEmbeddedDatasets:
    def test_us_first_row_values(self):
        d = embedded_dataset("us")
        q = Quarter(1990, 1)
        assert d["real_gdp"].at(q) == 9358.289
        assert d["cpi"].at(q) == 128.033
        assert common_span(d.series.values()) == (Quarter(1990, 1), Quarter(2020, 1))
        assert len(d["cpi"].values) == 121

    def test_uk_first_row_values(self):
        d = embedded_dataset("uk")
        q = Quarter(1990, 1)
        assert d["interest_rate"].at(q) == 14.88
        assert d["stock_index"].at(q) == 2422.7
        assert d["stock_index"].at(Quarter(2020, 1)) == 7542.44
        assert len(d["real_gdp"].values) == 121

    def test_unknown_country(self):
        with pytest.raises(ConfigError):
            embedded_dataset("de")


class TestCsvRoundTrip:
    def test_blank_lines_skipped(self):
        text = "date,x\n1990-Q1,1.0\n\n1990-Q2,2.0\n"
        d = parse_quarterly_csv(text)
        assert d["x"].values.tolist() == [1.0, 2.0]


class TestCsvErrors:
    def test_empty_text(self):
        with pytest.raises(IngestError, match="header"):
            parse_quarterly_csv("")

    def test_no_value_columns(self):
        with pytest.raises(IngestError):
            parse_quarterly_csv("date\n1990-Q1\n")

    def test_gap_in_quarters(self):
        text = "date,x\n1990-Q1,1.0\n1990-Q3,2.0\n"
        with pytest.raises(IngestError, match="gap"):
            parse_quarterly_csv(text)

    def test_duplicate_quarter(self):
        text = "date,x\n1990-Q1,1.0\n1990-Q1,2.0\n"
        with pytest.raises(IngestError, match="duplicate"):
            parse_quarterly_csv(text)

    def test_unparsable_cell_names_row_and_column(self):
        text = "date,x\n1990-Q1,1.0\n1990-Q2,oops\n"
        with pytest.raises(IngestError, match="row 3.*'x'"):
            parse_quarterly_csv(text)

    def test_non_utf8_bytes(self):
        with pytest.raises(IngestError, match="UTF-8"):
            parse_quarterly_csv(b"date,x\n1990-Q1,1.0\xff\n")

    def test_ragged_row(self):
        text = "date,x,y\n1990-Q1,1.0\n"
        with pytest.raises(IngestError, match="expected 3"):
            parse_quarterly_csv(text)

    def test_duplicate_column_name(self):
        text = "date,x,y,x\n1990-Q1,1.0,2.0,3.0\n"
        with pytest.raises(IngestError, match="column 4 name 'x'"):
            parse_quarterly_csv(text)

    def test_blank_column_name(self):
        text = "date,x, \n1990-Q1,1.0,2.0\n"
        with pytest.raises(IngestError, match="column 3 name '' is blank"):
            parse_quarterly_csv(text)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("date," + "x" * 200_000 + "\n1990-Q1,1.0\n", 1),
            ("date,x\n1990-Q1,1.0\n1990-Q2," + "1" * 200_000 + "\n", 3),
        ],
        ids=["header", "data-row"],
    )
    def test_field_beyond_csv_limit_names_the_line(self, text, line):
        with pytest.raises(IngestError, match=f"CSV, line {line}: field larger than field limit"):
            parse_quarterly_csv(text)


def _remote_descriptor(tmp_path):
    return SourceDescriptor(
        kind="remote",
        country="us",
        series_ids={
            "real_gdp": "GDPC1",
            "cpi": "CPIAUCSL",
            "interest_rate": "FEDFUNDS",
            "stock_index": "SP500",
        },
        cache_dir=tmp_path / "cache",
        remote=RemoteConfig(base_url="https://example.test/obs"),
    )


def _payload(start=Quarter(1990, 1), n=8, base=100.0):
    obs = []
    for k in range(n):
        q = start.offset(k)
        obs.append(
            {"date": f"{q.year}-{q.q * 3 - 2:02d}-01", "value": str(base + k)}
        )
    return json.dumps({"observations": obs}).encode()


class TestSourceDescriptor:
    def test_unknown_kind(self):
        for kind in ("ftp", "embedded", "csv_path"):  # the last two were removed
            with pytest.raises(ConfigError, match="unknown source kind"):
                SourceDescriptor(kind=kind, country="us")

    def test_remote_requires_all_core_ids(self):
        with pytest.raises(ConfigError, match="stock_index"):
            SourceDescriptor(
                kind="remote",
                country="us",
                series_ids={"real_gdp": "A", "cpi": "B", "interest_rate": "C"},
                cache_dir="/tmp/x",
            )

    def test_remote_requires_cache_dir(self):
        with pytest.raises(ConfigError, match="cache_dir"):
            SourceDescriptor(
                kind="remote",
                country="us",
                series_ids={
                    "real_gdp": "A", "cpi": "B",
                    "interest_rate": "C", "stock_index": "D",
                },
            )


class TestFetchSeries:
    def test_remote_replay(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        seen = []

        def fake_get(url):
            seen.append(url)
            return _payload()

        d = fetch_series(desc, http_get=fake_get)
        assert len(seen) == 4
        assert all("api_key=k123" in u for u in seen)
        assert d["cpi"].start == Quarter(1990, 1)
        assert d["cpi"].values[0] == 100.0
        cached = list((tmp_path / "cache").glob("*.json"))
        assert len(cached) == 4

    def test_query_asks_for_quarterly_averages(self, tmp_path, monkeypatch):
        # a monthly series such as CPIAUCSL must come back as quarterly means
        monkeypatch.setenv("FRED_API_KEY", "k123")
        seen = []

        def fake_get(url):
            seen.append(urllib.parse.parse_qs(urllib.parse.urlsplit(url).query))
            return _payload()

        fetch_series(_remote_descriptor(tmp_path), http_get=fake_get)
        assert len(seen) == 4
        for query in seen:
            assert query["frequency"] == ["q"]
            assert query["aggregation_method"] == ["avg"]

    def test_cache_fallback_after_network_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload())

        def failing_get(url):
            raise urllib.error.URLError("offline")

        d = fetch_series(desc, http_get=failing_get)
        assert d["interest_rate"].values[0] == 100.0

    def test_failure_with_cold_cache_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")

        def failing_get(url):
            raise urllib.error.URLError("offline")

        with pytest.raises(FetchError, match="no cached copy"):
            fetch_series(_remote_descriptor(tmp_path), http_get=failing_get)

    def test_missing_api_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="FRED_API_KEY"):
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda u: _payload())

    def test_malformed_payload(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        with pytest.raises(IngestError, match="decode"):
            fetch_series(
                _remote_descriptor(tmp_path), http_get=lambda u: b"not json"
            )

    def test_non_consecutive_observations(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        broken = json.dumps(
            {
                "observations": [
                    {"date": "1990-01-01", "value": "1.0"},
                    {"date": "1990-07-01", "value": "2.0"},
                ]
            }
        ).encode()
        with pytest.raises(IngestError, match="consecutive"):
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda u: broken)


def _observations(*pairs):
    return json.dumps(
        {"observations": [{"date": d, "value": v} for d, v in pairs]}
    ).encode()


class TestFredDecoding:
    @pytest.mark.parametrize(
        "raw,message",
        [
            (
                _observations(("1990-04-01", "2.0"), ("1990-01-01", "1.0")),
                "consecutive",
            ),
            (
                _observations(("1990-01-01", "1.0"), ("1990-01-01", "2.0")),
                "duplicate quarter 1990Q1",
            ),
            (_observations(), "no observations"),
            (_observations(("1990-01-01", ".")), "unparsable cell '.'"),
        ],
        ids=["out-of-order", "repeated-date", "empty", "missing-value"],
    )
    def test_rejected_payload_names_the_series(self, tmp_path, monkeypatch, raw, message):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        with pytest.raises(IngestError, match=f"series 'real_gdp'.*{message}"):
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda u: raw)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_value_is_unparsable(self, value):
        raw = _observations(("1990-01-01", "1.0"), ("1990-04-01", value))
        with pytest.raises(IngestError, match=f"row 2, column 'cpi': unparsable cell {value}$"):
            ingest._decode_observations("cpi", raw)

    def test_boolean_value_is_reported_in_row_order(self):
        raw = _observations(("1990-01-01", "1.0"), ("1990-04-01", True), ("1990-13-01", "3.0"))
        with pytest.raises(IngestError, match="row 2, column 'cpi': unparsable cell True"):
            ingest._decode_observations("cpi", raw)

    def test_integer_beyond_float_range_is_unparsable(self):
        raw = _observations(("1990-01-01", 10**400))
        with pytest.raises(IngestError, match="row 1, column 'cpi': unparsable cell 1000"):
            ingest._decode_observations("cpi", raw)

    def test_csv_and_fred_decode_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        text = (Path(ingest.__file__).parent / "data" / "us.csv").read_text()
        header, *rows = [line.split(",") for line in text.splitlines()]
        desc = _remote_descriptor(tmp_path)
        payloads = {}
        for col, role in enumerate(header[1:], start=1):
            # the same cells, dated as FRED dates a quarter: 1990-Q2 -> 1990-04-01
            pairs = [(f"{r[0][:4]}-{int(r[0][-1]) * 3 - 2:02d}-01", r[col]) for r in rows]
            payloads[desc.series_ids[role]] = _observations(*pairs)

        def fake_get(url):
            query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
            return payloads[query["series_id"][0]]

        fred = fetch_series(desc, http_get=fake_get)
        from_csv = parse_quarterly_csv(text, "us")
        assert sorted(fred.series) == sorted(from_csv.series)
        for role, s in from_csv.series.items():
            assert fred[role].start == s.start
            assert fred[role].values.tobytes() == s.values.tobytes()

    def test_full_fred_history_decodes_to_float_of_each_cell(self, tmp_path, monkeypatch):
        # 1947Q1-2025Q4: the 316 quarters of the longest FRED quarterly series
        monkeypatch.setenv("FRED_API_KEY", "k123")
        rng = np.random.default_rng(316)
        start = Quarter(1947, 1)
        quarters = [start.offset(k) for k in range(316)]
        assert quarters[-1] == Quarter(2025, 4)
        walk = np.cumsum(rng.normal(0.01, 0.02, (316, 4)), axis=0)
        cells = {  # full 17-digit, short and integer forms
            role: [f"{v:.17g}" if k % 3 else f"{v:.3f}" if k % 2 else str(round(v * 1e4))
                   for k, v in enumerate(walk[:, col])]
            for col, role in enumerate(CORE_SERIES)
        }
        text = "date," + ",".join(CORE_SERIES) + "\n" + "".join(
            f"{q}," + ",".join(cells[role][k] for role in CORE_SERIES) + "\n"
            for k, q in enumerate(quarters)
        )
        desc = _remote_descriptor(tmp_path)
        payloads = {
            desc.series_ids[role]: _observations(
                *((f"{q.year}-{q.q * 3 - 2:02d}-01", c) for q, c in zip(quarters, cells[role]))
            )
            for role in CORE_SERIES
        }

        def fake_get(url):
            query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
            return payloads[query["series_id"][0]]

        from_csv = parse_quarterly_csv(text, "us")
        fred = fetch_series(desc, http_get=fake_get)
        for role in CORE_SERIES:
            expected = np.array([float(c) for c in cells[role]]).tobytes()
            for d in (from_csv, fred):
                assert d[role].start == start
                assert d[role].values.tobytes() == expected


def _cache_path(desc, role):
    sid = desc.series_ids[role]
    return Path(desc.cache_dir) / f"{ingest._cache_key(desc.remote.base_url, sid)}.json"


def _no_space(src, dst):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestCacheFailures:
    def test_failed_write_does_not_serve_stale_copy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        monkeypatch.setattr(ingest.os, "replace", _no_space)
        with pytest.raises(FetchError, match="cannot write cache file .*No space"):
            fetch_series(desc, http_get=lambda url: _payload(base=500.0))
        assert len(list((tmp_path / "cache").iterdir())) == 4

    def test_failed_write_with_cold_cache_is_not_a_fetch_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        monkeypatch.setattr(ingest.os, "replace", _no_space)
        with pytest.raises(FetchError, match="cannot write cache file") as info:
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda url: _payload())
        assert "no cached copy" not in str(info.value)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_cache_path_is_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        blocked = _cache_path(desc, "real_gdp")
        blocked.mkdir(parents=True)
        with pytest.raises(FetchError, match=f"cannot write cache file {blocked}"):
            fetch_series(desc, http_get=lambda url: _payload())
        assert list((tmp_path / "cache").iterdir()) == [blocked]

    def test_unreadable_cached_copy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        blocked = _cache_path(desc, "real_gdp")
        blocked.mkdir(parents=True)

        def failing_get(url):
            raise urllib.error.URLError("offline")

        with pytest.raises(FetchError, match=f"cannot read cached copy {blocked}"):
            fetch_series(desc, http_get=failing_get)

    def test_cache_directory_cannot_be_created(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        (tmp_path / "cache").write_text("a file, not a directory")
        with pytest.raises(FetchError, match=f"cannot create cache directory {tmp_path}"):
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda url: _payload())


# The row-by-row decoder that the bulk one replaced, kept as the oracle of the
# error contract: the first fault in row order and, within a row, cell count,
# then date, then order, then value. It carries the rules added since: an ISO
# day must be 01-31, and a value must be a string or a number in float range,
# not a boolean.
_REF_ISO_RE = re.compile(r"^(\d{4})-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])$")
_REF_QUARTER_RE = re.compile(r"^(\d{4})[-: ]?Q([1-4])$", re.IGNORECASE)


def _reference_index(token):
    token = token.strip()
    m = _REF_ISO_RE.match(token)
    if m:
        return int(m.group(1)) * 4 + (int(m.group(2)) - 1) // 3
    m = _REF_QUARTER_RE.match(token)
    return int(m.group(1)) * 4 + int(m.group(2)) - 1 if m else None


def _reference_decode(rows, names, source):
    columns = [[] for _ in names]
    prev = None
    for n, token, cells in rows:
        if len(cells) != len(names):
            raise IngestError(
                f"{source}, row {n}: expected {len(names) + 1} cells, got {len(cells) + 1}"
            )
        index = _reference_index(token)
        if index is None:
            raise IngestError(f"{source}, row {n}: cannot parse date token {token!r}")
        if prev is not None and index != prev + 1:
            problem = "duplicate quarter" if index == prev else "not consecutive (gap or order) at"
            raise IngestError(f"{source}, row {n}: {problem} {Quarter(index // 4, index % 4 + 1)}")
        prev = index
        for col, cell in enumerate(cells):
            try:
                if isinstance(cell, bool):
                    raise TypeError
                columns[col].append(float(cell))
            except (TypeError, ValueError, OverflowError):
                raise IngestError(
                    f"{source}, row {n}, column {names[col]!r}: unparsable cell {cell!r}"
                ) from None
    if prev is None:
        raise IngestError(f"{source} holds no observations")
    first = prev + 1 - len(columns[0])
    start = Quarter(first // 4, first % 4 + 1)
    return {name: Series(name, start, col) for name, col in zip(names, columns)}


def _reference_csv(text):
    header, *body = csv.reader(io.StringIO(text))
    names = [h.strip() for h in header[1:]]
    rows = ((n, row[0], row[1:]) for n, row in enumerate(body, start=2)
            if any(cell.strip() for cell in row))
    return _reference_decode(rows, names, "CSV")


def _reference_fred(name, raw):
    try:
        obs = json.loads(raw)["observations"]
        rows = [(n, str(o["date"]), (o["value"],)) for n, o in enumerate(obs, start=1)]
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"series {name!r}: cannot decode observations payload: {exc}") from exc
    return _reference_decode(rows, [name], f"series {name!r}")


def _outcome(decode):
    """Start and value bytes of each series ``decode()`` returns, or the error it raises."""
    try:
        series = decode()
    except TaylorLabError as exc:
        return type(exc).__name__, str(exc)
    return {name: (str(s.start), s.values.tobytes()) for name, s in series.items()}


_PADDING = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\u3000", "\x1c"])


@st.composite
def _date_token(draw, index, bad):
    year, q = divmod(index, 4)
    y = str(year)
    if draw(st.integers(0, 9)) == 0:
        # the year in Arabic-Indic digits, which \d and int() accept
        y = y.translate(str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A)))))
    month = 3 * q + draw(st.integers(1, 3))
    if bad:
        token = draw(st.sampled_from([
            f"{y}-{month:02d}-00", f"{y}-{month:02d}-32", f"{y}-{month:02d}-99",
            f"{y}-13-01", f"{y}-{month}-01", f"{y}Q5", f"Q{q + 1}-{y}", f"{y}QQ1", "", "n/a",
        ]))
    else:
        day = draw(st.sampled_from(["01", "09", "15", "28", "30", "31"]))
        token = draw(st.sampled_from([
            f"{y}-{month:02d}-{day}", f"{y}Q{q + 1}", f"{y}-Q{q + 1}", f"{y}:q{q + 1}",
            f"{y} Q{q + 1}",
        ]))
    return draw(_PADDING) + token + draw(_PADDING)


_GOOD_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6).map(lambda v: f" {v:.3f} "),
)
_GOOD_JSON_VALUE = _GOOD_NUMBER | st.floats(allow_nan=False, allow_infinity=False)
_BAD_CELL = st.sampled_from([".", "", "abc", "1..2", "1,5", "nan", "inf", "-Infinity"])
_BAD_JSON_VALUE = st.sampled_from([True, False, None, [], {}, 10**400])


@st.composite
def _panel(draw, fred):
    """Rows of a drawn panel with zero to three faulty rows, each with one to
    three of: bad date, date out of order, bad value and, for CSV, wrong cell
    count and blank lines before it, for FRED, a malformed observation."""
    k = 1 if fred else draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    faulty = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(3, n), unique=True))
    kinds = ["value", "order", "date", "value", "order", "date"]
    kinds += ["value", "value"] if fred else ["blank", "count"]
    faults = {i: draw(st.sets(st.sampled_from(kinds), min_size=1, max_size=3)) for i in faulty}
    for i in faulty if fred else ():  # rarer, as it hides every fault of another kind
        if draw(st.integers(0, 3)) == 3:
            faults[i].add("payload")
    index = draw(st.integers(1947 * 4, 2020 * 4)) - 1
    rows = []
    for i in range(n):
        fault = faults.get(i, set())
        index += draw(st.sampled_from([0, 2, -1, 0, 5, -3])) if "order" in fault else 1
        token = draw(_date_token(index, "date" in fault))
        cells = [draw(_GOOD_JSON_VALUE if fred else _GOOD_NUMBER) for _ in range(k)]
        if "value" in fault:
            # for FRED, a JSON value twice as often as a bad string
            bad = _BAD_JSON_VALUE | _BAD_JSON_VALUE | _BAD_CELL if fred else _BAD_CELL
            cells[draw(st.integers(0, k - 1))] = draw(bad)
        if "count" in fault:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1.0"]
        rows.append((token, cells, fault))
    return k, rows


def _csv_text(k, rows, draw):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", *"abc"[:k]])
    for token, cells, fault in rows:
        if "blank" in fault:  # blank lines before the row
            for _ in range(draw(st.integers(1, 2))):
                writer.writerow(draw(st.sampled_from([[], ["", ""], ["  "], [" ", "\t"]])))
        writer.writerow([token, *cells])
    return out.getvalue()


def _fred_payload(rows, draw):
    obs = []
    for token, (value,), fault in rows:
        o = {"date": token, "value": value}
        if "payload" in fault:  # an observation without a date or a value, or not an object
            o = draw(st.sampled_from([{"value": value}, {"date": token}, [token, value], None, 5]))
        obs.append(o)
    return json.dumps({"observations": obs}).encode()


class TestDecodeContract:
    """The bulk decoder against the row-by-row reference: the same series,
    bit for bit, or the same error."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(panel=_panel(fred=False), data=st.data())
    def test_csv_matches_row_by_row_reference(self, panel, data):
        text = _csv_text(*panel, data.draw)
        assert _outcome(lambda: parse_quarterly_csv(text).series) == _outcome(
            lambda: _reference_csv(text)
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(panel=_panel(fred=True), data=st.data())
    def test_fred_matches_row_by_row_reference(self, panel, data):
        raw = _fred_payload(panel[1], data.draw)
        assert _outcome(lambda: {"cpi": ingest._decode_observations("cpi", raw)}) == _outcome(
            lambda: _reference_fred("cpi", raw)
        )
