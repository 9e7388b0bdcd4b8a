import errno
import json
import os
import urllib.error
import urllib.parse
from pathlib import Path

import pytest

from taylorlab import ingest
from taylorlab.errors import ConfigError, FetchError, IngestError
from taylorlab.ingest import (
    RemoteConfig,
    SourceDescriptor,
    embedded_dataset,
    fetch_series,
    parse_quarterly_csv,
)
from taylorlab.series import Quarter, common_span


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
