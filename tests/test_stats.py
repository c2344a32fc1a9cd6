"""Normal special functions, empirical distances, confidence intervals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkesgauss as hg
from hawkesgauss import stats
from hawkesgauss.errors import ParameterError, StatisticalError
from hawkesgauss.stats import SampleSet, _w1_roots


def bisect_quantile(q, lo=-40.0, hi=40.0, iters=200):
    """Independent root finder for Phi(x) = q."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hg.normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalFunctions:
    def test_cdf_center(self):
        assert hg.normal_cdf(0.0) == 0.5

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=st.floats(min_value=-8.0, max_value=8.0))
    def test_cdf_symmetry(self, x):
        assert hg.normal_cdf(-x) == pytest.approx(1.0 - hg.normal_cdf(x), abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(q=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_quantile_roundtrip(self, q):
        assert abs(hg.normal_cdf(hg.normal_quantile(q)) - q) <= 1e-10

    def test_quantile_against_bisection(self):
        for q in (0.1, 0.25, 0.5, 0.9, 0.999, 1e-6):
            assert hg.normal_quantile(q) == pytest.approx(bisect_quantile(q), abs=1e-9)

    def test_quantile_known_value(self):
        assert hg.normal_quantile(0.1) == pytest.approx(-1.2815515655446004, abs=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ParameterError):
                hg.normal_quantile(bad)

    def test_vectorized(self):
        qs = np.array([0.2, 0.5, 0.8])
        xs = hg.normal_quantile(qs)
        assert np.allclose(hg.normal_cdf(xs), qs, atol=1e-12)

    def test_cdf_matches_scipy_ndtr(self):
        # scipy is a test-only oracle; the left end reaches ndtr's 1e-297
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-37.0, 8.0, 20_001), [-37.0, -5.0, 0.0, 8.0]])
        got, ref = hg.normal_cdf(x), ndtr(x)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_quantile_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        q = np.concatenate([
            np.geomspace(1e-300, 0.5, 2_000), 1.0 - np.geomspace(1e-16, 0.5, 2_000)
        ]).reshape(2, -1)
        got, ref = hg.normal_quantile(q), ndtri(q)
        assert got.shape == q.shape
        assert np.all(np.abs(got - ref) <= 5e-15 * np.abs(ref))


class TestW1:
    def test_point_mass_at_zero(self):
        # W1(delta_0, N(0,1)) = E|Z| = sqrt(2/pi)
        s = SampleSet(np.zeros(100))
        assert hg.empirical_w1_to_normal(s) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)

    def test_point_mass_monte_carlo_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=400_000)
        s = SampleSet(np.zeros(10))
        assert hg.empirical_w1_to_normal(s) == pytest.approx(np.mean(np.abs(z)), abs=5e-3)

    def test_quantile_grid_is_small_and_shrinks(self):
        vals = {}
        for m in (1_000, 100_000):
            grid = hg.normal_quantile((np.arange(1, m + 1) - 0.5) / m)
            vals[m] = hg.empirical_w1_to_normal(SampleSet(grid))
        assert vals[100_000] < 1e-3
        assert vals[100_000] < vals[1_000]

    def test_riemann_oracle(self):
        # independent route: numerically integrate |F_M - Phi| on a fine grid
        rng = np.random.default_rng(7)
        x = np.sort(rng.normal(size=300) * 1.4 + 0.2)
        s = SampleSet(x)
        grid = np.linspace(-12.0, 12.0, 400_001)
        emp = np.searchsorted(x, grid, side="right") / x.size
        riemann = np.trapezoid(np.abs(emp - hg.normal_cdf(grid)), grid)
        assert hg.empirical_w1_to_normal(s) == pytest.approx(riemann, abs=1e-4)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(c=st.floats(min_value=-2.0, max_value=2.0))
    def test_translation_lipschitz(self, c):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        w0 = hg.empirical_w1_to_normal(SampleSet(x))
        w1 = hg.empirical_w1_to_normal(SampleSet(x + c))
        assert abs(w1 - w0) <= abs(c) + 1e-9

    def test_permutation_invariant_and_nonnegative(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=200)
        a = hg.empirical_w1_to_normal(SampleSet(x))
        b = hg.empirical_w1_to_normal(SampleSet(rng.permutation(x)))
        assert a == b
        assert a >= 0.0

    def test_cached_roots_read_only_and_cold_equals_warm(self):
        s = SampleSet(np.random.default_rng(4).standard_normal(257))
        _w1_roots.cache_clear()
        cold = hg.empirical_w1_to_normal(s)
        roots, a_roots = _w1_roots(s.count)
        assert _w1_roots.cache_info().hits == 1
        for arr in (roots, a_roots):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert hg.empirical_w1_to_normal(s) == cold
        assert np.array_equal(roots, hg.normal_quantile(np.arange(1, 257) / 257))

    def test_cdf_evaluated_once_and_cold_equals_warm(self, monkeypatch):
        # KS, W1 and the bootstrap share one Phi(values) per sample set: on a
        # set the others have used (warm) each reads as on a fresh one (cold)
        x = np.random.default_rng(6).standard_normal(301)
        distances = (
            hg.kolmogorov_to_normal,
            hg.empirical_w1_to_normal,
            lambda s: hg.bootstrap_w1_se(s, n_boot=20, seed=1),
        )
        cold = [f(SampleSet(x)) for f in distances]
        evaluated = []
        real = stats.normal_cdf
        monkeypatch.setattr(stats, "normal_cdf", lambda v: evaluated.append(np.size(v)) or real(v))
        s = SampleSet(x)
        warm = [f(s) for f in distances]
        assert evaluated == [x.size]
        assert warm == cold

    def test_bootstrap_se(self):
        rng = np.random.default_rng(9)
        s = SampleSet(rng.normal(size=500))
        se1 = hg.bootstrap_w1_se(s, n_boot=100, seed=0)
        se2 = hg.bootstrap_w1_se(s, n_boot=100, seed=0)
        assert se1 == se2
        assert 0.0 < se1 < 0.1


def reference_w1_sorted(x, roots):
    """The per-sample W1 arithmetic the row kernel must reproduce bit for bit:
    A evaluated on both ends of every piece and on the clipped roots."""
    def antideriv(t):
        return t * hg.normal_cdf(t) + hg.normal_pdf(t)

    m = x.size
    total = float(antideriv(x[0]) + (antideriv(x[-1]) - x[-1]))
    c = np.arange(1, m) / m
    left, right = x[:-1], x[1:]
    rc = np.clip(roots, left, right)
    g_left = antideriv(left) - c * left
    g_right = antideriv(right) - c * right
    g_root = antideriv(rc) - c * rc
    total += float(np.sum(g_left + g_right - 2.0 * g_root))
    return total


def reference_bootstrap_se(values, n_boot, seed):
    """One ``rng.choice`` and one W1 per resample, in stream order."""
    m = values.size
    roots = hg.normal_quantile(np.arange(1, m) / m)
    rng = np.random.default_rng(seed)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = reference_w1_sorted(np.sort(rng.choice(values, size=m, replace=True)), roots)
    return float(np.std(stats, ddof=1))


def frozen_block_bootstrap_se(s, n_boot, seed):
    """The row-block bootstrap as it stood before A was gathered from the
    sample values: ``rng.choice`` blocks of max(1, 2**12 // m) resamples,
    sorted by value, with A evaluated on every resampled value."""
    def antideriv(t):
        return t * hg.normal_cdf(t) + hg.normal_pdf(t)

    def w1_rows(x, roots, a_roots):
        a_x = antideriv(x)
        c = np.arange(1, x.shape[1]) / x.shape[1]
        left, right, a_left, a_right = x[:, :-1], x[:, 1:], a_x[:, :-1], a_x[:, 1:]
        below, above = roots < left, roots > right
        rc = np.where(below, left, np.where(above, right, roots))
        a_rc = np.where(below, a_left, np.where(above, a_right, a_roots))
        pieces = (a_left - c * left) + (a_right - c * right) - 2.0 * (a_rc - c * rc)
        return a_x[:, 0] + (a_x[:, -1] - x[:, -1]) + np.sum(pieces, axis=1)

    m = s.count
    roots = hg.normal_quantile(np.arange(1, m) / m)
    a_roots = antideriv(roots)
    rng = np.random.default_rng(seed)
    rows = max(1, 2**12 // m)
    stats = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        k = min(rows, n_boot - start)
        block = np.sort(rng.choice(s.values, size=(k, m), replace=True), axis=1)
        stats[start:start + k] = w1_rows(block, roots, a_roots)
    return float(np.std(stats, ddof=1))


class TestBootstrapBlocks:
    # m = 5000 exceeds the resampling block, so each block holds one resample;
    # n_boot 3 and 200 are no multiple of the resamples per block at m = 7, 301
    @pytest.mark.parametrize("m", [2, 7, 301, 5000])
    def test_bit_identical_to_per_resample_loop(self, m):
        rng = np.random.default_rng(m)
        s = SampleSet(rng.standard_t(4, size=m) * 1.3 + 0.2)
        roots = hg.normal_quantile(np.arange(1, m) / m)
        assert hg.empirical_w1_to_normal(s) == reference_w1_sorted(s.values, roots)
        for n_boot in (2, 3, 200):
            seed = 11 + n_boot
            assert hg.bootstrap_w1_se(s, n_boot, seed) == reference_bootstrap_se(s.values, n_boot, seed)

    # m = 1 is below SampleSet's minimum and goes in as a bare (values, count)
    # record: the gather must also hold with no roots at all
    @pytest.mark.parametrize("m", [1, 2, 300, 5000])
    def test_gathered_antiderivative_matches_frozen_blocks(self, m):
        values = np.sort(np.random.default_rng(40 + m).normal(0.1, 1.2, size=m))
        s = SimpleNamespace(values=values, count=m) if m < 2 else SampleSet(values)
        for n_boot in (2, 3, 200):
            seed = 5 + n_boot
            assert hg.bootstrap_w1_se(s, n_boot, seed) == frozen_block_bootstrap_se(s, n_boot, seed)

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"n_boot": 2.5}, {"n_boot": 1}])
    def test_typed_errors(self, kwargs):
        s = SampleSet(np.linspace(-1.0, 1.0, 20))
        with pytest.raises(ParameterError):
            hg.bootstrap_w1_se(s, **kwargs)


class TestKolmogorov:
    def test_point_mass(self):
        assert hg.kolmogorov_to_normal(SampleSet(np.zeros(50))) == pytest.approx(0.5)

    def test_quantile_grid(self):
        m = 10_000
        grid = hg.normal_quantile((np.arange(1, m + 1) - 0.5) / m)
        assert hg.kolmogorov_to_normal(SampleSet(grid)) == pytest.approx(1 / (2 * m), rel=1e-6)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        loc=st.floats(min_value=-2.0, max_value=2.0),
        scale=st.floats(min_value=0.2, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_ks_dominated_by_sqrt_w1(self, loc, scale, seed):
        rng = np.random.default_rng(seed)
        s = SampleSet(rng.normal(loc, scale, size=300))
        ks = hg.kolmogorov_to_normal(s)
        w1 = hg.empirical_w1_to_normal(s)
        assert ks <= 2.0 * math.sqrt(w1) + 1e-12


class TestSampleSet:
    def test_sorted_and_counted(self):
        s = SampleSet(np.array([3.0, 1.0, 2.0]), provenance={"seed": 1})
        assert np.all(np.diff(s.values) >= 0)
        assert s.count == 3
        assert s.provenance["seed"] == 1

    def test_too_small(self):
        with pytest.raises(StatisticalError):
            SampleSet(np.array([1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(StatisticalError):
            SampleSet(np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "shape", [(), (2, 500), (1, 500), (500, 1), (2, 3, 4)], ids=lambda s: "x".join(map(str, s)) or "scalar"
    )
    def test_not_one_dimensional_rejected(self, shape):
        with pytest.raises(StatisticalError, match="one-dimensional"):
            SampleSet(np.ones(shape))


class TestConfidenceInterval:
    def test_boundary_example(self):
        ci = hg.confidence_interval(0.0025, 0.2)
        assert ci.feasible
        assert ci.lower == pytest.approx(-1.2815515655446004, abs=1e-9)
        assert ci.upper == pytest.approx(1.2815515655446004, abs=1e-9)
        assert ci.coverage_floor == pytest.approx(0.6)

    def test_zero_bound_always_feasible(self):
        for beta in (0.01, 0.2, 0.49):
            ci = hg.confidence_interval(0.0, beta)
            assert ci.feasible
            assert ci.coverage_floor == pytest.approx(1 - 2 * beta)

    def test_infeasible_reports_minimal_beta(self):
        ci = hg.confidence_interval(0.25, 0.2)
        assert not ci.feasible
        assert ci.min_feasible_beta == pytest.approx(2.0)

    def test_minimal_beta_plugback(self):
        bound = 0.0009
        ci = hg.confidence_interval(bound, 0.2)
        assert ci.feasible
        tight = hg.confidence_interval(bound, 0.13)
        # 4*sqrt(0.0009) = 0.12 so beta=0.13 works and beta=0.11 does not
        assert tight.feasible
        assert not hg.confidence_interval(bound, 0.11).feasible
        assert hg.confidence_interval(bound, 0.2).min_feasible_beta == pytest.approx(0.12)

    def test_beta_domain(self):
        with pytest.raises(ParameterError):
            hg.confidence_interval(0.1, 0.6)
        with pytest.raises(ParameterError):
            hg.confidence_interval(0.1, 0.0)
        with pytest.raises(ParameterError):
            hg.confidence_interval(-0.1, 0.2)
