import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import stat
import threading
import urllib.error
import urllib.parse
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import ingest
from taylorlab.errors import ConfigError, FetchError, IngestError, SampleError, TaylorLabError
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
        assert list((tmp_path / "cache").iterdir()) == [_cache_path(desc)]
        assert _cache_path(desc).read_bytes() == _packed([_payload()] * 4)

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


def _cache_path(desc):
    """The source's one cache file."""
    ids = [desc.series_ids[role] for role in CORE_SERIES]
    return Path(desc.cache_dir) / ingest._cache_key(desc.remote.base_url, ids)


def _packed(responses):
    """A cache file's bytes: the responses' byte lengths on one line, then the responses."""
    return " ".join(str(len(r)) for r in responses).encode() + b"\n" + b"".join(responses)


def _offline(url):
    raise urllib.error.URLError("offline")


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
        assert list((tmp_path / "cache").iterdir()) == [_cache_path(desc)]

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
        blocked = _cache_path(desc)
        blocked.mkdir(parents=True)
        with pytest.raises(FetchError, match=f"cannot write cache file {blocked}"):
            fetch_series(desc, http_get=lambda url: _payload())
        assert list((tmp_path / "cache").iterdir()) == [blocked]

    def test_unreadable_cached_copy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        blocked = _cache_path(desc)
        blocked.mkdir(parents=True)

        def failing_get(url):
            raise urllib.error.URLError("offline")

        with pytest.raises(FetchError, match=f"cannot read cached copy {blocked}"):
            fetch_series(desc, http_get=failing_get)

    def test_undecodable_response_keeps_the_cached_copy(self, tmp_path, monkeypatch):
        # an HTTP 200 body that is an error report, not observations
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        cached = _cache_path(desc).read_bytes()
        refused = json.dumps({"error_code": 429, "error_message": "Too Many Requests"}).encode()
        with pytest.raises(IngestError, match="cannot decode observations payload"):
            fetch_series(desc, http_get=lambda url: refused)
        assert _cache_path(desc).read_bytes() == cached

        def failing_get(url):
            raise urllib.error.URLError("offline")

        d = fetch_series(desc, http_get=failing_get)
        assert d["real_gdp"].values[0] == 100.0

    def test_cache_directory_cannot_be_created(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        (tmp_path / "cache").write_text("a file, not a directory")
        with pytest.raises(FetchError, match=f"cannot create cache directory {tmp_path}"):
            fetch_series(_remote_descriptor(tmp_path), http_get=lambda url: _payload())


def _cache_state(desc):
    """Each file in the cache directory by name, as (inode, mtime in ns, bytes)."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in Path(desc.cache_dir).iterdir()
    }


def _get_by_role(desc, payloads):
    """An ``http_get`` serving ``payloads[role]`` for each role's series id."""
    roles = {sid: role for role, sid in desc.series_ids.items()}

    def get(url):
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        return payloads[roles[query["series_id"][0]]]

    return get


class TestCacheRewrite:
    # a response that decodes replaces its cached copy only when its bytes differ

    def test_identical_refetch_leaves_every_file_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload())
        before = _cache_state(desc)
        d = fetch_series(desc, http_get=lambda url: _payload())
        assert _cache_state(desc) == before
        assert d["cpi"].values[0] == 100.0

    def test_only_the_changed_series_is_rewritten(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        payloads = {role: _payload(base=100.0) for role in CORE_SERIES}
        fetch_series(desc, http_get=_get_by_role(desc, payloads))
        before = _cache_state(desc)
        payloads["cpi"] = _payload(base=500.0)  # the same length, other bytes
        assert len(payloads["cpi"]) == len(payloads["real_gdp"])
        d = fetch_series(desc, http_get=_get_by_role(desc, payloads))
        (old,) = before.values()
        (new,) = _cache_state(desc).values()
        assert old[2] == _packed([_payload(base=100.0)] * 4)
        assert new[0] != old[0]  # replaced, not written in place
        assert new[2] == _packed([payloads[role] for role in CORE_SERIES])  # only cpi's part differs
        assert d["cpi"].values[0] == 500.0

    def test_identical_refetch_needs_no_write(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        monkeypatch.setattr(ingest.os, "replace", _no_space)
        # a changed response still fails: test_failed_write_does_not_serve_stale_copy
        d = fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        assert d["real_gdp"].values[0] == 100.0

    @pytest.mark.parametrize(
        "stale", [lambda raw: raw[:-1], lambda raw: raw + b" ", lambda raw: b""],
        ids=["strict-prefix", "longer", "empty"],
    )
    def test_cached_copy_of_another_length_is_rewritten(self, tmp_path, monkeypatch, stale):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        raw = _payload()
        path = _cache_path(desc)
        path.parent.mkdir(parents=True)
        path.write_bytes(stale(_packed([raw] * 4)))
        fetch_series(desc, http_get=lambda url: raw)
        assert path.read_bytes() == _packed([raw] * 4)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_at_the_cache_path_is_replaced_without_waiting(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fifo = _cache_path(desc)
        fifo.parent.mkdir(parents=True)
        os.mkfifo(fifo)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(fetch_series(desc, http_get=lambda url: _payload())),
            daemon=True,  # a fetch stuck opening the pipe must not keep the session alive
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and len(done) == 1
        assert not stat.S_ISFIFO(fifo.stat().st_mode)  # else reading would block
        assert fifo.read_bytes() == _packed([_payload()] * 4)

    @pytest.mark.parametrize(
        "convert", [bytes.decode, lambda raw: None, memoryview, list],
        ids=["str", "None", "memoryview", "list"],
    )
    def test_non_bytes_response_is_rejected_before_decoding(self, tmp_path, monkeypatch, convert):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        name = type(convert(_payload())).__name__
        with pytest.raises(FetchError, match=f"fetch of 'GDPC1' returned {name}, not bytes"):
            fetch_series(desc, http_get=lambda url: convert(_payload()))
        assert list((tmp_path / "cache").iterdir()) == []
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        before = _cache_state(desc)
        with pytest.raises(FetchError, match=f"'GDPC1' returned {name}"):
            fetch_series(desc, http_get=lambda url: convert(_payload(base=500.0)))
        assert _cache_state(desc) == before

    def test_bytearray_response_is_decoded_and_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        d = fetch_series(desc, http_get=lambda url: bytearray(_payload()))
        assert d["stock_index"].values[-1] == 107.0
        before = _cache_state(desc)
        assert _cache_path(desc).read_bytes() == _packed([_payload()] * 4)
        fetch_series(desc, http_get=lambda url: bytearray(_payload()))
        assert _cache_state(desc) == before


class TestStoreAfterDecoding:
    # a fetch stores nothing until all four responses decode into a Dataset

    def test_undecodable_cpi_leaves_every_file_and_the_old_vintage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        before = _cache_state(desc)
        payloads = {role: _payload(base=500.0) for role in CORE_SERIES}
        payloads["cpi"] = json.dumps({"error_code": 429, "error_message": "Too Many"}).encode()
        with pytest.raises(IngestError, match="series 'cpi': cannot decode"):
            fetch_series(desc, http_get=_get_by_role(desc, payloads))
        assert _cache_state(desc) == before

        def failing_get(url):
            raise urllib.error.URLError("offline")

        d = fetch_series(desc, http_get=failing_get)
        assert {role: d[role].values[0] for role in CORE_SERIES} == dict.fromkeys(CORE_SERIES, 100.0)
        assert _cache_state(desc) == before  # a copy read back is not written again

    def test_third_response_not_bytes_leaves_the_first_two_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        payloads = {role: _payload(base=500.0) for role in CORE_SERIES}
        payloads[CORE_SERIES[2]] = payloads[CORE_SERIES[2]].decode()
        sid = desc.series_ids[CORE_SERIES[2]]
        with pytest.raises(FetchError, match=f"fetch of {sid!r} returned str, not bytes"):
            fetch_series(desc, http_get=_get_by_role(desc, payloads))
        assert list((tmp_path / "cache").iterdir()) == []
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        before = _cache_state(desc)
        with pytest.raises(FetchError, match=f"fetch of {sid!r} returned str"):
            fetch_series(desc, http_get=_get_by_role(desc, payloads))
        assert _cache_state(desc) == before

    def test_series_sharing_no_quarter_leave_a_cold_cache_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        payloads = {role: _payload(start=Quarter(1990, 1)) for role in CORE_SERIES}
        payloads["stock_index"] = _payload(start=Quarter(2000, 1))
        with pytest.raises(SampleError, match="share no common quarter"):
            fetch_series(desc, http_get=_get_by_role(desc, payloads))
        assert list((tmp_path / "cache").iterdir()) == []


def _first_values(d):
    return {role: d[role].values[0] for role in CORE_SERIES}


class TestOneVintage:
    # a source's four responses live in one file, so a fetch returns and
    # leaves one data vintage whatever fails

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_replace_failing_on_its_kth_call_leaves_one_vintage(self, tmp_path, monkeypatch, k):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        calls, replace = [], os.replace

        def replace_failing_on_call_k(src, dst):
            calls.append(dst)
            if len(calls) == k:
                _no_space(src, dst)
            replace(src, dst)

        monkeypatch.setattr(ingest.os, "replace", replace_failing_on_call_k)
        with contextlib.suppress(FetchError):
            fetch_series(desc, http_get=lambda url: _payload(base=500.0))
        vintages = set(_first_values(fetch_series(desc, http_get=_offline)).values())
        assert vintages == {100.0 if k == 1 else 500.0}  # the one replace fails or not
        assert list((tmp_path / "cache").iterdir()) == [_cache_path(desc)]

    def test_failed_cpi_request_returns_and_keeps_the_old_vintage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        fetch_series(desc, http_get=lambda url: _payload(base=100.0))
        before = _cache_state(desc)
        serve = _get_by_role(desc, {role: _payload(base=500.0) for role in CORE_SERIES})
        asked = []

        def get(url):
            asked.append(urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)["series_id"][0])
            if asked[-1] == desc.series_ids["cpi"]:
                raise ConnectionResetError("reset by peer")
            return serve(url)

        d = fetch_series(desc, http_get=get)
        assert _first_values(d) == dict.fromkeys(CORE_SERIES, 100.0)
        assert asked == [desc.series_ids["real_gdp"], desc.series_ids["cpi"]]
        assert _cache_state(desc) == before
        assert list(before) == [_cache_path(desc).name]

    def test_sources_differing_only_where_a_bar_falls_keep_apart(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        ids = {"real_gdp": "B", "cpi": "CPI", "interest_rate": "RATE", "stock_index": "SPX"}
        cache = tmp_path / "cache"
        one = SourceDescriptor("remote", "us", ids, cache, RemoteConfig("https://e.test/obs|A"))
        two = SourceDescriptor(
            "remote", "us", dict(ids, real_gdp="A|B"), cache, RemoteConfig("https://e.test/obs")
        )
        fetch_series(one, http_get=lambda url: _payload(base=100.0))
        fetch_series(two, http_get=lambda url: _payload(base=500.0))
        assert set(_first_values(fetch_series(one, http_get=_offline)).values()) == {100.0}
        assert set(_first_values(fetch_series(two, http_get=_offline)).values()) == {500.0}
        assert sorted(cache.iterdir()) == sorted([_cache_path(one), _cache_path(two)])

    @pytest.mark.parametrize(
        "stale",
        [
            lambda good: b"",
            lambda good: good[:-1],
            lambda good: good + b"\n",
            lambda good: good.replace(b"\n", b" ", 1),
            lambda good: _packed([_payload()] * 3),
            lambda good: b"-1 1 1 1\nxx",
            lambda good: b"0" * 21 + b" 0 0 0\n",
        ],
        ids=["empty", "short", "long", "no-newline", "three-lengths", "negative", "21-digits"],
    )
    def test_malformed_cache_file_raises_naming_the_path(self, tmp_path, monkeypatch, stale):
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        path = _cache_path(desc)
        path.parent.mkdir(parents=True)
        path.write_bytes(stale(_packed([_payload()] * 4)))
        with pytest.raises(FetchError, match=f"malformed cache file {re.escape(str(path))}"):
            fetch_series(desc, http_get=_offline)

    def test_cache_of_one_file_per_series_is_not_read(self, tmp_path, monkeypatch):
        # the layout of older versions: <sha256 of "base_url|series_id">[:24].json
        monkeypatch.setenv("FRED_API_KEY", "k123")
        desc = _remote_descriptor(tmp_path)
        (tmp_path / "cache").mkdir()
        for sid in desc.series_ids.values():
            key = hashlib.sha256(f"{desc.remote.base_url}|{sid}".encode()).hexdigest()[:24]
            (tmp_path / "cache" / f"{key}.json").write_bytes(_payload())
        with pytest.raises(FetchError, match="'GDPC1' failed with no cached copy"):
            fetch_series(desc, http_get=_offline)


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
