import itertools
import math
import re
import unittest.mock

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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



class TestNonFiniteArguments:
    """A NaN or infinite df or shape, or a NaN argument, is refused before any
    series or fraction runs, with a message naming it."""

    @pytest.mark.parametrize("fn,args,message", [
        # the limit of f_sf(2, df1, 10) as df1 grows is P(chi2_10 < 5), not 0
        (dist.f_sf, (2.0, math.inf, 10), "df1 must be positive and finite, got inf"),
        (dist.f_sf, (2.0, 3, math.inf), "df2 must be positive and finite, got inf"),
        (dist.f_sf, (2.0, math.nan, 10), "df1 must be positive and finite, got nan"),
        (dist.chi2_sf, (10.0, math.inf), "degrees of freedom must be positive and finite, got inf"),
        (dist.chi2_sf, (10.0, math.nan), "degrees of freedom must be positive and finite, got nan"),
        (dist.student_t_sf2, (2.0, math.inf),
         "degrees of freedom must be positive and finite, got inf"),
        (dist.student_t_sf2, (2.0, math.nan),
         "degrees of freedom must be positive and finite, got nan"),
        (dist.regularized_gamma_q, (math.inf, 1.0),
         "shape parameter must be positive and finite, got inf"),
        (dist.regularized_gamma_q, (math.nan, 1.0),
         "shape parameter must be positive and finite, got nan"),
        (dist.regularized_gamma_q, (2.0, math.nan), "argument must be non-negative, got nan"),
        (dist.regularized_beta, (math.inf, 1.0, 0.5),
         "beta parameter a must be positive and finite, got inf"),
        (dist.regularized_beta, (1.0, math.nan, 0.5),
         "beta parameter b must be positive and finite, got nan"),
        (dist.regularized_beta, (1.0, 1.0, math.nan), r"argument must lie in \[0, 1\], got nan"),
    ])
    def test_rejected_before_any_series_runs(self, fn, args, message, monkeypatch):
        def no_terms(*_):
            raise AssertionError("a series or fraction ran")

        for name in ("_gamma_p_series", "_gamma_q_cf", "_beta_cf"):
            monkeypatch.setattr(dist, name, no_terms)
        with pytest.raises(DomainError, match=f"^{message}$"):
            fn(*args)

    def test_gamma_q_of_infinite_argument_is_zero(self):
        assert dist.regularized_gamma_q(2.5, math.inf) == 0.0


class TestOverflowingLogGamma:
    """A finite shape parameter whose log-gamma overflows raises
    ``DomainError`` naming it, not ``math.lgamma``'s ``OverflowError``."""

    @pytest.mark.parametrize("fn,args,message", [
        (dist.chi2_sf, (1.0, 1e308), "shape parameter is too large for its log-gamma, got 5e+307"),
        (dist.regularized_gamma_q, (1e308, 1.0),
         "shape parameter is too large for its log-gamma, got 1e+308"),
        (dist.regularized_beta, (1e308, 1e308, 0.5),
         "beta parameter a is too large for its log-gamma, got 1e+308"),
        (dist.regularized_beta, (1.0, 1e308, 0.5),
         "beta parameter sum a + b is too large for its log-gamma, got 1e+308"),
    ])
    def test_raises_domain_error_naming_the_parameter(self, fn, args, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fn(*args)


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


# The generic modified-Lentz loop and the term generators that the flat
# fractions in dist replaced, kept as their reference. Only the cap is read
# from dist at each call, so that a test can lower it for both.
def _continued_fraction(b0: float, terms) -> float:
    """b0 + a1/(b1 + a2/(b2 + ...)) by the modified Lentz method.

    ``terms`` yields the (a_n, b_n) pairs. Raises DomainError when the
    fraction has not converged after _MAX_ITER terms.
    """
    _MAX_ITER, _TINY, _EPS = dist._MAX_ITER, dist._TINY, dist._EPS
    h = c = b0 if b0 != 0.0 else _TINY
    d = 0.0
    for a, b in itertools.islice(terms, _MAX_ITER):
        d = b + a * d
        if abs(d) < _TINY:
            d = _TINY
        c = b + a / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"continued fraction did not converge in {_MAX_ITER} terms")


def _gamma_q_cf(a: float, x: float) -> float:
    def terms():
        b = x + 1.0 - a
        for i in itertools.count(1):
            b += 2.0
            yield -i * (i - a), b

    return 1.0 / _continued_fraction(x + 1.0 - a, terms())


def _beta_cf(a: float, b: float, x: float) -> float:
    def terms():
        yield -(a + b) * x / (a + 1.0), 1.0
        for m in itertools.count(1):
            a2m = a + 2 * m
            yield m * (b - m) * x / ((a2m - 1.0) * a2m), 1.0
            yield -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0)), 1.0

    return 1.0 / _continued_fraction(1.0, terms())


def _bits(fn, *args):
    """The bits of ``fn(*args)``, or the message of the DomainError it raises."""
    try:
        return fn(*args).hex()
    except DomainError as exc:
        return str(exc)


def _both(fn, *args):
    """``_bits`` of ``fn(*args)`` with dist's fractions, then with the reference's."""
    flat = _bits(fn, *args)
    with unittest.mock.patch.multiple(dist, _gamma_q_cf=_gamma_q_cf, _beta_cf=_beta_cf):
        return flat, _bits(fn, *args)


_SHAPE = st.floats(0.01, 2.0) | st.floats(0.5, 500.0) | st.integers(1, 400).map(lambda n: n / 2)


@st.composite
def _beta_args(draw):
    """(a, b, x) with x below the symmetry switch (a + 1)/(a + b + 2), so that
    the fraction runs on (a, b, x), or above it, so that it runs on (b, a, 1 - x)."""
    a, b = draw(_SHAPE), draw(_SHAPE)
    switch = (a + 1.0) / (a + b + 2.0)
    u = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return a, b, switch * u if draw(st.booleans()) else switch + (1.0 - switch) * u


@st.composite
def _gamma_args(draw):
    """(a, x) with x >= a + 1, where Q(a, x) is the continued fraction."""
    a = draw(_SHAPE)
    return a, a + 1.0 + draw(st.floats(0.0, 2000.0))


class TestFlatFractions:
    """dist's flat modified-Lentz loops against the generic loop they
    replaced: the same bits, or the same error."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(args=_beta_args())
    def test_beta_matches_reference(self, args):
        flat, reference = _both(dist.regularized_beta, *args)
        assert flat == reference

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(args=_gamma_args())
    def test_gamma_q_matches_reference(self, args):
        flat, reference = _both(dist.regularized_gamma_q, *args)
        assert flat == reference

    def test_same_values_and_raises_under_lower_caps(self, monkeypatch):
        # each cap from 0 to 25 terms, odd and even, on 150 draws per fraction
        raised = {"beta": [], "gamma": []}
        for cap in range(26):
            monkeypatch.setattr(dist, "_MAX_ITER", cap)
            message = f"continued fraction did not converge in {cap} terms"
            rng = np.random.default_rng(cap)
            for kind in ("beta", "gamma"):
                count = 0
                for _ in range(150):
                    a, b = rng.uniform(0.2, 40.0, size=2)
                    x = float(rng.uniform(0.0, 1.0))
                    if kind == "beta":
                        flat, reference = _both(dist.regularized_beta, a, b, x)
                    else:
                        flat, reference = _both(dist.regularized_gamma_q, a, a + 1.0 + 20.0 * x)
                    assert flat == reference, (cap, kind, a, b, x)
                    count += flat == message
                raised[kind].append(count)
        for counts in raised.values():
            assert counts[:6] == [150] * 6  # no draw converges in 5 terms
            assert all(0 < n < 150 for n in counts[10:20])  # some converge at these caps

    def test_unconverged_fractions_raise(self):
        message = "^continued fraction did not converge in 1000 terms$"
        with pytest.raises(DomainError, match=message):
            dist.regularized_beta(1e6, 1e6, 0.5)
        with pytest.raises(DomainError, match=message):
            dist.regularized_gamma_q(1e7, 1e7 + 1.0)
