import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from taylorlab import dist
from taylorlab.errors import DomainError


class TestChi2Sf:
    def test_published_values(self):
        assert dist.chi2_sf(6.285282, 2) == pytest.approx(0.0432, abs=5e-4)
        assert dist.chi2_sf(3.683003, 1) == pytest.approx(0.054970, abs=5e-5)

    def test_zero_statistic_full_mass(self):
        for df in (1, 2, 5, 100):
            assert dist.chi2_sf(0.0, df) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            df = rng.integers(1, 200)
            x = rng.uniform(0, 3 * df)
            assert dist.chi2_sf(x, df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), abs=1e-10
            )

    def test_df1_matches_two_sided_normal(self):
        for x in (0.01, 0.5, 1.0, 3.0, 9.0, 20.0):
            expected = 2.0 * (1.0 - dist.normal_cdf(math.sqrt(x)))
            assert dist.chi2_sf(x, 1) == pytest.approx(expected, abs=1e-10)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0, 40, 100)
        vals = [dist.chi2_sf(x, 5) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dist.chi2_sf(-1.0, 2)
        with pytest.raises(DomainError):
            dist.chi2_sf(1.0, 0)
        with pytest.raises(DomainError):
            dist.chi2_sf(math.nan, 2)

    def test_unconverged_series_raises(self):
        # the true value is about 0.4998; the series needs far more terms
        # than the cap, so the tail raises instead of returning a partial sum
        with pytest.raises(DomainError, match="did not converge"):
            dist.chi2_sf(1e6, 1e6)

    def test_infinite_statistic_has_no_tail(self):
        # the same edge as the F and t tails
        assert dist.chi2_sf(math.inf, 3) == 0.0
        assert dist.f_sf(math.inf, 2, 30) == 0.0
        assert dist.student_t_sf2(math.inf, 30) == 0.0


class TestStudentTSf2:
    def test_published_values(self):
        assert dist.student_t_sf2(2.526311, 114) == pytest.approx(0.0129, abs=5e-4)
        assert dist.student_t_sf2(1.437320, 112) == pytest.approx(0.1534, abs=5e-4)

    def test_center_is_one(self):
        assert dist.student_t_sf2(0.0, 7) == 1.0

    def test_symmetry(self):
        assert dist.student_t_sf2(-2.1, 30) == dist.student_t_sf2(2.1, 30)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            df = rng.uniform(1, 300)
            t = rng.uniform(-6, 6)
            assert dist.student_t_sf2(t, df) == pytest.approx(
                2 * scipy.stats.t.sf(abs(t), df), abs=1e-10
            )

    def test_large_df_approaches_normal(self):
        for t in (0.3, 1.0, 2.5):
            expected = 2.0 * (1.0 - dist.normal_cdf(t))
            assert dist.student_t_sf2(t, 1e6) == pytest.approx(expected, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dist.student_t_sf2(1.0, 0)
        with pytest.raises(DomainError):
            dist.student_t_sf2(math.nan, 30)


class TestFSf:
    def test_published_values(self):
        assert dist.f_sf(3.142641, 2, 114) == pytest.approx(0.0469, abs=5e-4)
        assert dist.f_sf(4.178675, 9, 107) == pytest.approx(0.0001, abs=5e-5)

    def test_zero_statistic_full_mass(self):
        assert dist.f_sf(0.0, 3, 10) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            df1 = rng.integers(1, 30)
            df2 = rng.integers(1, 300)
            x = rng.uniform(0, 10)
            assert dist.f_sf(x, df1, df2) == pytest.approx(
                scipy.stats.f.sf(x, df1, df2), abs=1e-10
            )

    def test_square_of_t_is_f(self):
        for t, df in ((0.5, 3), (1.7, 25), (3.0, 114), (6.0, 10)):
            assert dist.f_sf(t * t, 1, df) == pytest.approx(
                dist.student_t_sf2(t, df), abs=1e-10
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dist.f_sf(-0.1, 2, 3)
        with pytest.raises(DomainError):
            dist.f_sf(1.0, 0, 3)
        with pytest.raises(DomainError):
            dist.f_sf(math.nan, 2, 30)


class TestCdfsAgainstQuadrature:
    """Each tail function is checked against adaptive integration of its
    density at random points."""

    def test_chi2(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            df = int(rng.integers(1, 40))
            x = float(rng.uniform(0.05, 3 * df))
            oracle, _ = scipy.integrate.quad(
                lambda u: scipy.stats.chi2.pdf(u, df), 0, x, limit=200
            )
            assert dist.chi2_sf(x, df) == pytest.approx(1.0 - oracle, abs=1e-8)

    def test_student_t(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            df = float(rng.uniform(1, 60))
            t = float(rng.uniform(0.05, 5))
            oracle, _ = scipy.integrate.quad(
                lambda u: scipy.stats.t.pdf(u, df), t, np.inf, limit=200
            )
            assert dist.student_t_sf2(t, df) == pytest.approx(2 * oracle, abs=1e-8)

    def test_f(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            df1 = int(rng.integers(1, 15))
            df2 = int(rng.integers(3, 120))
            x = float(rng.uniform(0.05, 6))
            oracle, _ = scipy.integrate.quad(
                lambda u: scipy.stats.f.pdf(u, df1, df2), x, np.inf, limit=200
            )
            assert dist.f_sf(x, df1, df2) == pytest.approx(oracle, abs=1e-8)


class TestNormalCdf:
    def test_known_points(self):
        assert dist.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert dist.normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_against_scipy(self):
        for x in np.linspace(-6, 6, 25):
            assert dist.normal_cdf(x) == pytest.approx(
                scipy.stats.norm.cdf(x), abs=1e-12
            )


class TestContinuedFraction:
    def test_matches_closed_form(self):
        # 1 + 1/(1 + 1/(1 + ...)) is the golden ratio
        got = dist._continued_fraction(1.0, itertools.repeat((1.0, 1.0)))
        assert got == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_unconverged_fraction_raises(self):
        # the convergents of 1 - 1/(1 - 1/(1 - ...)) cycle with period three
        with pytest.raises(DomainError, match="did not converge"):
            dist._continued_fraction(1.0, itertools.repeat((-1.0, 1.0)))
