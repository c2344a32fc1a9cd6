"""Experiment orchestration: presets, sweeps, bound-respect records, CSVs."""

import io
import math
import tracemalloc

import numpy as np
import pytest

import hawkesgauss as hg
from hawkesgauss import _lockstep
from hawkesgauss.chaos import (
    approx_first_chaos,
    default_lambda_hat,
    first_chaos,
    intensity_moment_integrals,
)
from hawkesgauss.errors import ParameterError, SimulationError
from hawkesgauss.experiments import (
    PRESETS,
    SWEEP_FAMILIES,
    check_ks_w1,
    fit_loglog_slope,
    provenance_line,
    replicate_innovations,
    run_bound_vs_empirical,
    run_rate_sweep,
    write_bounds_csv,
    write_samples_csv,
    write_sweep_csv,
)
from hawkesgauss.stats import SampleSet


class TestPresets:
    def test_shipped_set(self):
        assert set(PRESETS) == {
            "poisson",
            "linear",
            "indicator_mild",
            "indicator_moderate",
            "saturating",
        }

    def test_params_are_stable(self):
        for preset in PRESETS.values():
            assert preset.params.alpha_mu < 1
            lo, hi = preset.u.support
            assert 0.0 <= lo and hi <= preset.t_end

    # (kernel, link, u breakpoints, u values, t_end, stationary, burn_in) of
    # every preset, to the last bit
    PINNED = {
        "poisson": (
            hg.ExponentialKernel(1.0, 0.0), hg.LinearLink(1.0),
            (0.0, 1.0), (1.0,), 1.0, False, 0.0,
        ),
        "linear": (
            hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(2.0),
            (0.0, 25.0), (0.1,), 25.0, True, 18.420680743952364,
        ),
        "indicator_mild": (
            hg.ExponentialKernel(1.0, 0.1), hg.LinearLink(1.0),
            (0.0, 100.0), (0.09486832980505139,), 100.0, True, 10.233711524417979,
        ),
        "indicator_moderate": (
            hg.ExponentialKernel(1.0, 0.3), hg.LinearLink(1.0),
            (0.0, 100.0), (0.08366600265340755,), 100.0, True, 13.157629102823117,
        ),
        "saturating": (
            hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0),
            (0.0, 50.0), (0.1,), 50.0, False, 0.0,
        ),
    }

    def test_pinned_fields(self):
        assert list(PRESETS) == list(self.PINNED)
        for name, preset in PRESETS.items():
            got = (
                preset.params.kernel, preset.params.link, preset.u.breakpoints,
                preset.u.values, preset.t_end, preset.stationary, preset.burn_in,
            )
            assert preset.name == name
            assert got == self.PINNED[name], name

    def test_sweep_families_pinned(self):
        assert list(SWEEP_FAMILIES) == ["nonlinear", "linear"]
        for family, slope_bound in (("nonlinear", "nonlinear"), ("linear", "linear_spectral")):
            result = run_rate_sweep(family, [0.2, 0.1], with_empirical=False)
            assert result.slope_bound == slope_bound


class TestReplicateInnovations:
    def test_deterministic(self):
        p = PRESETS["poisson"]
        a = replicate_innovations(p.params, p.u, p.t_end, 0.0, 50, seed=5)
        b = replicate_innovations(p.params, p.u, p.t_end, 0.0, 50, seed=5)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.delta_approx, b.delta_approx)

    def test_moment_collection(self):
        p = PRESETS["poisson"]
        reps = replicate_innovations(p.params, p.u, p.t_end, 0.0, 20, seed=1, collect_moments=True)
        # unit-rate Poisson with the unit indicator: both moments are exactly 1
        assert np.allclose(reps.u2_lambda, 1.0)
        assert np.allclose(reps.u3_lambda, 1.0)

    @pytest.mark.parametrize("kernel", [hg.ExponentialKernel(1.0, 0.5), hg.BoxKernel(1.0, 0.5)])
    def test_kept_field_keeps_no_other(self, kernel):
        # the lockstep and the per-path route: a caller keeping u2_lambda
        # alone must not keep the compensator and u3_lambda alive with it
        params = hg.HawkesParams(kernel, hg.LinearLink(1.0))
        u = hg.TestFunction((0.0, 5.0), (1.0,))
        reps = replicate_innovations(params, u, 5.0, 0.0, 8, seed=1, collect_moments=True)
        fields = (reps.delta, reps.event_sum, reps.compensator, reps.u2_lambda, reps.u3_lambda)
        for i, a in enumerate(fields):
            assert a.base is None
            for b in fields[i + 1:]:
                assert not np.shares_memory(a, b)


def lockstep_cases():
    """(name, params, u, t_end, burn_in) of the batch path: two presets and a
    signed multi-step u on a saturating and on the tanh link."""
    cases = [
        (name, PRESETS[name].params, PRESETS[name].u, PRESETS[name].t_end, PRESETS[name].burn_in)
        for name in ("linear", "saturating")
    ]
    p = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.6), hg.SaturatingExpLink(1.0, 2.5))
    u = hg.TestFunction((1.0, 2.5, 4.0, 7.0, 9.5), (0.7, -1.2, 0.0, 2.0))
    cases.append(("signed_steps", p, u, 10.0, 3.0))
    exp_tanh = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.5), hg.TanhLink(1.0, 2.0))
    cases.append(("exponential_tanh", exp_tanh, u, 10.0, 2.0))
    return cases


def bad_link(link_cls, *args):
    """A link whose phi(0) = nu is -1, past its own validation."""
    link = link_cls(*args)
    object.__setattr__(link, "nu", -1.0)
    return link


def per_path_cases():
    """(name, params, u, t_end, burn_in) of the per-path route: a box kernel
    with a signed multi-step u and burn-in, a tabulated kernel with the tanh
    link, and an exponential kernel with the tanh link, which thins in
    lockstep unless the per-path route is forced."""
    steps = hg.TestFunction((1.0, 2.5, 4.0, 7.0, 9.5), (0.7, -1.2, 0.0, 2.0))
    box = hg.HawkesParams(hg.BoxKernel(0.8, 0.5), hg.SaturatingExpLink(1.0, 2.5))
    tab = hg.HawkesParams(hg.TabulatedKernel(0.25, (0.8, 0.4, 0.2, 0.1)), hg.TanhLink(1.0, 2.0))
    exp_tanh = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.5), hg.TanhLink(1.0, 2.0))
    return [
        ("box_saturating", box, steps, 10.0, 3.0),
        ("tabulated_tanh", tab, hg.TestFunction((0.0, 2.0, 6.0), (1.0, 0.5)), 6.0, 1.0),
        ("exponential_tanh", exp_tanh, steps, 10.0, 2.0),
    ]


#: the fields of ``ReplicationSet`` in the row order of ``single_path_oracle``
ORACLE_FIELDS = ("delta", "event_sum", "compensator", "u2_lambda", "u3_lambda", "delta_approx",
                 "quad_err")


def single_path_oracle(params, u, t_end, burn_in, reps, seed):
    """One row per field of ORACLE_FIELDS, one column per replication in
    ``reps``, each path from ``simulate`` through the single-path functions
    of ``chaos``."""
    ref = np.empty((7, len(reps)))
    for col, k in enumerate(reps):
        stream, path = hg.simulate(hg.SimConfig(params, t_end, burn_in, seed, k))
        s = first_chaos(stream, path, u)
        ref[:3, col] = s.value, s.event_sum, s.compensator
        ref[3:5, col] = intensity_moment_integrals(path, u)
        ref[5, col] = approx_first_chaos(stream, u, params).value
        ref[6, col] = s.quad_error
    return ref


class TestLockstepEngine:
    @pytest.mark.parametrize("name,params,u,t_end,burn_in", lockstep_cases())
    def test_matches_simulate_per_path(self, name, params, u, t_end, burn_in, monkeypatch):
        n, seed = 25, 31
        ref = single_path_oracle(params, u, t_end, burn_in, range(n), seed)

        def per_path(*args, **kwargs):
            raise AssertionError("the batch path must not call simulate")

        monkeypatch.setattr(_lockstep, "simulate", per_path)
        reps = replicate_innovations(params, u, t_end, burn_in, n, seed, collect_moments=True)
        # relative to each quantity's largest value over the replications: a
        # delta or a signed event sum near 0 has no relative precision of its own
        for field, r in zip(ORACLE_FIELDS[:6], ref):
            np.testing.assert_allclose(
                getattr(reps, field), r, rtol=1e-12, atol=1e-12 * np.max(np.abs(r))
            )
        assert np.all(reps.quad_err == 0.0)

    @pytest.mark.parametrize("name,params,u,t_end,burn_in", per_path_cases())
    @pytest.mark.parametrize("moments", [True, False])
    def test_per_path_route_equals_single_path_oracle(
        self, name, params, u, t_end, burn_in, moments, monkeypatch
    ):
        # every case takes the per-path route, the exponential kernel too
        monkeypatch.setattr(_lockstep, "_thins_in_lockstep", lambda kernel: False)
        n, seed = 12, 31
        ref = single_path_oracle(params, u, t_end, burn_in, range(n), seed)
        reps = replicate_innovations(params, u, t_end, burn_in, n, seed, collect_moments=moments)
        for field, r in zip(ORACLE_FIELDS, ref):
            got = getattr(reps, field)
            if field in ("u2_lambda", "u3_lambda") and not moments:
                assert got is None
            else:
                assert np.array_equal(got, r), field
        assert reps.lambda_hat == default_lambda_hat(params)

    @pytest.mark.parametrize(
        "knob,values",
        [("_BLOCK", (2, 10, 500)), ("_CHUNK", (1, 7, 40)), ("_RECORD", (1, 7, 40))],
    )
    def test_blocks_and_chunks_do_not_change_numbers(self, knob, values, monkeypatch):
        name, params, u, t_end, burn_in = lockstep_cases()[2]
        ref = replicate_innovations(params, u, t_end, burn_in, 40, seed=5, collect_moments=True)
        for value in values:
            monkeypatch.setattr(_lockstep, knob, value)
            got = replicate_innovations(params, u, t_end, burn_in, 40, seed=5, collect_moments=True)
            for field in ("delta", "event_sum", "compensator", "u2_lambda", "u3_lambda"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))

    def test_real_chunk_boundary_matches_simulate(self):
        # the real _BLOCK and _CHUNK: replication _CHUNK opens a second chunk
        # of one path
        p = PRESETS["linear"]
        n, seed = _lockstep._CHUNK + 1, 5
        reps = replicate_innovations(p.params, p.u, p.t_end, p.burn_in, n, seed,
                                     collect_moments=True)
        ks = [0, _lockstep._CHUNK - 1, _lockstep._CHUNK]
        ref = single_path_oracle(p.params, p.u, p.t_end, p.burn_in, ks, seed)
        for field, r in zip(ORACLE_FIELDS[:6], ref):
            np.testing.assert_allclose(
                getattr(reps, field)[ks], r, rtol=1e-12, atol=1e-12 * np.max(np.abs(r))
            )

    def test_working_memory_is_bounded(self):
        # 4096 saturating paths in one chunk peak at 11.6 MB of traced
        # allocations: their uniform blocks (8 MiB at _BLOCK = 256 a path),
        # their Philox keys, read through one shared Philox, and the interval
        # batches, fewer than _RECORD + 4096 rows
        p = PRESETS["saturating"]
        tracemalloc.start()
        try:
            replicate_innovations(p.params, p.u, p.t_end, 0.0, 4096, seed=2, collect_moments=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    @pytest.mark.parametrize(
        "override",
        [
            {"t_end": 0.0},
            {"t_end": -1.0},
            {"t_end": math.inf},
            {"t_end": math.nan},
            {"burn_in": -1.0},
            {"burn_in": math.nan},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_config_errors_match_simconfig(self, override):
        p = PRESETS["saturating"]
        args = {"t_end": p.t_end, "burn_in": 0.0, "seed": 3, **override}
        with pytest.raises(ParameterError) as direct:
            hg.SimConfig(p.params, args["t_end"], args["burn_in"], args["seed"])
        with pytest.raises(ParameterError) as batch:
            replicate_innovations(p.params, p.u, args["t_end"], args["burn_in"], 4, args["seed"])
        assert str(batch.value) == str(direct.value)

    @pytest.mark.parametrize(
        "link", [bad_link(hg.LinearLink, 1.0), bad_link(hg.SaturatingExpLink, 1.0, 3.0)]
    )
    def test_nonpositive_rate_error_matches_simulate(self, link):
        params = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), link)
        u = hg.TestFunction((0.0, 5.0), (1.0,))
        with pytest.raises(SimulationError) as direct:
            hg.simulate(hg.SimConfig(params, 5.0, burn_in=2.0, seed=1))
        with pytest.raises(SimulationError) as batch:
            replicate_innovations(params, u, 5.0, 2.0, 3, seed=1)
        assert str(batch.value) == str(direct.value)
        assert batch.value.time == direct.value.time == -2.0

    def test_envelope_error_matches_simulate(self):
        # a negative jump makes the intensity rise between events, past the
        # dominating rate taken after each event
        kernel = hg.ExponentialKernel(1.0, 0.5)
        object.__setattr__(kernel, "mass", -0.5)
        params = hg.HawkesParams(kernel, hg.LinearLink(1.0))
        u = hg.TestFunction((0.0, 5.0), (1.0,))
        with pytest.raises(SimulationError) as direct:
            hg.simulate(hg.SimConfig(params, 50.0, seed=2))
        with pytest.raises(SimulationError) as batch:
            replicate_innovations(params, u, 50.0, 0.0, 1, seed=2)
        assert "exceeds dominating rate" in str(direct.value)
        assert str(batch.value) == str(direct.value)
        assert batch.value.time == direct.value.time

    def test_support_outside_window_rejected(self):
        p = PRESETS["saturating"]
        with pytest.raises(ParameterError):
            replicate_innovations(p.params, p.u, p.t_end / 2, 0.0, 3, seed=1)


class TestReplicationCounts:
    @pytest.mark.parametrize("n_reps", [0, -5, 2.5])
    @pytest.mark.parametrize("kernel", [hg.ExponentialKernel(1.0, 0.3), hg.BoxKernel(1.0, 0.3)])
    def test_replicate_needs_one(self, n_reps, kernel):
        params = hg.HawkesParams(kernel, hg.LinearLink(1.0))
        u = hg.TestFunction((0.0, 5.0), (1.0,))
        with pytest.raises(ParameterError):
            replicate_innovations(params, u, 5.0, 0.0, n_reps, seed=1)

    @pytest.mark.parametrize("n_reps", [1, 0, -5, 2.5])
    def test_bound_vs_empirical_needs_two(self, n_reps):
        with pytest.raises(ParameterError):
            run_bound_vs_empirical("poisson", n_reps=n_reps, seed=1)

    def test_rate_sweep_needs_an_integer_count(self):
        with pytest.raises(ParameterError):
            run_rate_sweep("linear", [0.2], n_reps=1000.5, seed=1)


class TestBoundVsEmpirical:
    def test_poisson_preset_passes(self):
        rec = run_bound_vs_empirical("poisson", n_reps=1500, seed=2)
        assert rec.passed
        assert rec.min_bound_exact == pytest.approx(1.0)
        assert rec.w1_exact < 0.5
        assert rec.ks_exact <= 2 * math.sqrt(rec.w1_exact) + 1e-12

    def test_resolvent_bound_included_on_request(self):
        rec = run_bound_vs_empirical("indicator_mild", n_reps=150, seed=3, include_resolvent=True)
        names = {r.name for r in rec.reports}
        assert "resolvent_majorant" in names
        assert rec.passed

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            run_bound_vs_empirical("nope", n_reps=100, seed=0)


class TestRateSweep:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            run_rate_sweep("nonlinear", [0.1, 0.2], with_empirical=False)
        with pytest.raises(ParameterError):
            run_rate_sweep("nonlinear", [1.2, 0.5], with_empirical=False)
        with pytest.raises(ParameterError):
            run_rate_sweep("nonlinear", [0.2, 0.1], n_reps=10)
        with pytest.raises(ParameterError):
            run_rate_sweep("weird", [0.2, 0.1], with_empirical=False)

    def test_rows_and_slope(self):
        grid = [0.2, 0.1, 0.05, 0.025]
        res = run_rate_sweep("nonlinear", grid, with_empirical=False)
        assert [r.eps for r in res.rows] == grid
        totals = [r.bounds["nonlinear"] for r in res.rows]
        assert all(math.isfinite(t) for t in totals)
        # monotone regime: bound strictly decreasing along the grid
        assert all(a > b for a, b in zip(totals[:-1], totals[1:]))
        # slope agrees with an inline least-squares refit
        x = np.log(grid)
        y = np.log(totals)
        slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        assert res.slope == pytest.approx(slope, rel=1e-9)

    def test_limit_diagnostics_trend(self):
        res = run_rate_sweep("nonlinear", [0.2, 0.1, 0.05, 0.025], with_empirical=False)
        lims = [r.limits for r in res.rows]
        for key, target in [
            ("alpha_mu", 0.0),
            ("phi0_u_l3_cubed", 0.0),
            ("sqrt_phi0_alpha_mu_u_sq_l2", 0.0),
            ("phi0_alpha_mu_u_l1", 0.0),
        ]:
            gaps = [abs(l[key] - target) for l in lims]
            assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
        gaps = [abs(l["phi0_u_l2_sq"] - 1.0) for l in lims]
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))

    def test_linear_family_conditions(self):
        res = run_rate_sweep("linear", [0.2, 0.1, 0.05], with_empirical=False)
        for row in res.rows:
            assert row.conditions is not None
            assert set(row.conditions) == {"cond_i", "cond_ii"}
            assert set(row.bounds) == {
                "nonlinear",
                "nonlinear_approx",
                "linear",
                "linear_approx",
                "linear_spectral",
                "linear_spectral_approx",
            }

    def test_empirical_smoke(self):
        res = run_rate_sweep("nonlinear", [0.3, 0.15], n_reps=1000, seed=3)
        for row in res.rows:
            assert row.empirical_w1 is not None and row.empirical_w1 >= 0
            assert row.w1_se is not None and row.w1_se > 0


class TestInlineChecks:
    def test_check_ks_w1_on_good_samples(self):
        rng = np.random.default_rng(0)
        w1, ks = check_ks_w1(SampleSet(rng.normal(size=500)))
        assert ks <= 2 * math.sqrt(w1) + 1e-12

    def test_slope_fit(self):
        eps = np.array([0.2, 0.1, 0.05])
        assert fit_loglog_slope(eps, 3.0 * eps**0.5) == pytest.approx(0.5, abs=1e-12)


class TestCsvWriters:
    def test_bounds_csv(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        reports = hg.evaluate_all(p, u, stationary=True)
        buf = io.StringIO()
        write_bounds_csv(buf, reports, provenance_line("0.0", "abc", 1))
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# hawkesgauss 0.0 config=abc seed=1")
        assert lines[1] == "bound,term_label,value"
        # four or five terms plus a total row per report
        assert sum(1 for ln in lines[2:] if ln.endswith(",total") or ",total," in ln) == len(reports)

    def test_samples_csv(self):
        p = PRESETS["poisson"]
        reps = replicate_innovations(p.params, p.u, p.t_end, 0.0, 10, seed=1)
        buf = io.StringIO()
        write_samples_csv(buf, reps, provenance_line("0.0", "abc", 1))
        lines = buf.getvalue().splitlines()
        assert lines[1] == "replication,delta,event_sum,compensator,quad_err"
        assert len(lines) == 12
        first = lines[2].split(",")
        assert float(first[1]) == float(first[2]) - float(first[3])

    def test_sweep_csv(self):
        res = run_rate_sweep("nonlinear", [0.2, 0.1], with_empirical=False)
        buf = io.StringIO()
        write_sweep_csv(buf, res, provenance_line("0.0", "abc", 1))
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "eps"
        assert len(lines) == 4
