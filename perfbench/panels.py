"""Seeded synthetic quarterly panels for the panel_scale workload.

Each panel holds log real GDP, log CPI and log stock index as random walks
with drift, and the policy rate as a stationary AR(1). Quarters carry
4-digit years. The program only ever sees the rendered inputs: CSV text for
``parse_quarterly_csv`` and FRED-style JSON payloads for ``fetch_series``.
The lengths are fixed so that every seed gives the same amount of work;
the seed changes the values and the start year. They span what the program
is fed: 121 quarters is the sample of its own reproduction data (1990Q1 to
2020Q1), and 316 quarters the whole FRED quarterly history from 1947Q1 to
2025Q4. Every panel lies within that history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

LENGTHS = (121, 180, 248, 316)
FIRST_YEAR, END_YEAR = 1947, 2026  # FRED quarterly history, end exclusive
ROLES = ("real_gdp", "cpi", "interest_rate", "stock_index")


@dataclass(frozen=True)
class Panel:
    n: int
    start_year: int
    levels: dict  # role -> float64 array of levels, as rendered
    csv_text: str
    payloads: dict  # series id -> FRED-style JSON bytes
    series_ids: dict  # role -> series id

    def quarter(self, k: int) -> tuple[int, int]:
        """(year, quarter) of observation k."""
        i = self.start_year * 4 + k
        return i // 4, i % 4 + 1


def _random_walk(rng, n, start, drift, sd):
    return start + np.cumsum(drift + sd * rng.standard_normal(n))


def _ar1(rng, n, mean, rho, sd):
    out = np.empty(n)
    level = mean
    shocks = sd * rng.standard_normal(n)
    for t in range(n):
        level = mean + rho * (level - mean) + shocks[t]
        out[t] = level
    return out


def make_panel(rng: np.random.Generator, n: int) -> Panel:
    start_year = int(rng.integers(FIRST_YEAR, END_YEAR - (n + 3) // 4 + 1))
    levels = {
        "real_gdp": np.exp(_random_walk(rng, n, 9.0, 0.005, 0.008)),
        "cpi": np.exp(_random_walk(rng, n, 4.0, 0.005, 0.004)),
        "interest_rate": _ar1(rng, n, 4.0, 0.95, 0.4),
        "stock_index": np.exp(_random_walk(rng, n, 6.0, 0.015, 0.07)),
    }
    # repr() round-trips every float exactly through both text formats
    cells = {role: [repr(float(v)) for v in levels[role]] for role in ROLES}
    quarters = [((start_year * 4 + k) // 4, (start_year * 4 + k) % 4 + 1) for k in range(n)]
    lines = ["date," + ",".join(ROLES)]
    lines += [
        f"{y}Q{q}," + ",".join(cells[role][k] for role in ROLES)
        for k, (y, q) in enumerate(quarters)
    ]
    series_ids = {role: f"PB{n}_{role.upper()}" for role in ROLES}
    payloads = {}
    for role in ROLES:
        obs = [
            {"date": f"{y:04d}-{3 * (q - 1) + 1:02d}-01", "value": cells[role][k]}
            for k, (y, q) in enumerate(quarters)
        ]
        payloads[series_ids[role]] = json.dumps({"observations": obs}).encode()
    return Panel(n, start_year, levels, "\n".join(lines) + "\n", payloads, series_ids)


def generate(seed: int) -> list[Panel]:
    """One panel per entry of LENGTHS, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return [make_panel(rng, n) for n in LENGTHS]
