import json
import urllib.error

import pytest

from taylorlab.errors import ConfigError, FetchError, IngestError
from taylorlab.ingest import (
    RemoteConfig,
    SourceDescriptor,
    embedded_dataset,
    export_quarterly_csv,
    fetch_series,
    parse_quarter_token,
    parse_quarterly_csv,
)
from taylorlab.series import Quarter


class TestParseQuarterToken:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1991-Q1", Quarter(1991, 1)),
            ("1991Q3", Quarter(1991, 3)),
            ("1990-01-01", Quarter(1990, 1)),
            ("2019-10-01", Quarter(2019, 4)),
            ("1/1/90", Quarter(1990, 1)),
            ("10/1/19", Quarter(2019, 4)),
            ("4/1/55", Quarter(1955, 2)),
            ("7/1/01", Quarter(2001, 3)),
        ],
    )
    def test_accepted_formats(self, token, expected):
        assert parse_quarter_token(token) == expected

    @pytest.mark.parametrize("token", ["", "Q1-1991", "13/1/90", "1991-13-01"])
    def test_rejected_tokens(self, token):
        with pytest.raises(IngestError):
            parse_quarter_token(token)


class TestEmbeddedDatasets:
    def test_us_first_row_values(self):
        d = embedded_dataset("us")
        q = Quarter(1990, 1)
        assert d["real_gdp"].at(q) == 9358.289
        assert d["cpi"].at(q) == 128.033
        assert d.span == (Quarter(1990, 1), Quarter(2020, 1))
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
    def test_export_then_parse_is_identity(self):
        d = embedded_dataset("us")
        back = parse_quarterly_csv(export_quarterly_csv(d), "us")
        for name, s in d.series.items():
            assert back[name].start == s.start
            assert back[name].values.tolist() == s.values.tolist()

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

    def test_ragged_row(self):
        text = "date,x,y\n1990-Q1,1.0\n"
        with pytest.raises(IngestError, match="expected 3"):
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
        with pytest.raises(ConfigError):
            SourceDescriptor(kind="ftp", country="us")

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
    def test_embedded_kind_delegates(self):
        d = fetch_series(SourceDescriptor(kind="embedded", country="uk"))
        assert d.country == "uk"
        assert len(d["cpi"].values) == 121

    def test_csv_path_kind(self, tmp_path):
        p = tmp_path / "mini.csv"
        p.write_text("date,cpi\n1990-Q1,100.0\n1990-Q2,101.0\n")
        d = fetch_series(SourceDescriptor(kind="csv_path", country="us", csv_path=p))
        assert d["cpi"].values.tolist() == [100.0, 101.0]

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
