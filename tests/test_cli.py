"""Config parsing/serialization and the command-line surface."""

import re
from pathlib import Path

import pytest

from hawkesgauss import cli
from hawkesgauss.cli import main
from hawkesgauss.config import config_hash, parse_config, serialize_config
from hawkesgauss.errors import ConfigError, SimulationError
from hawkesgauss.simulator import SimConfig, simulate

LINEAR_CONFIG = """\
[kernel]
form = exponential
mass = 0.5
rate = 2.0

[link]
form = linear
nu = 1.0

[u]
kind = indicator
ell = 10.0

[sim]
t_end = 10.0
seed = 42
reps = 100
mode = rplus
"""

NONLINEAR_CONFIG = """\
[kernel]
form = box
mass = 0.4
width = 1.5

[link]
form = saturating_exp
nu = 1.0
cap = 3.0

[u]
kind = steps
breakpoints = 0.0, 1.0, 2.0
values = 1.0, -0.5

[sim]
t_end = 5.0
seed = 7
"""


class TestConfigParsing:
    def test_roundtrip_exact(self):
        for text in (LINEAR_CONFIG, NONLINEAR_CONFIG):
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    def test_hash_is_pinned(self):
        # provenance lines of earlier CSVs carry these hashes
        assert config_hash(parse_config(LINEAR_CONFIG)) == "57328b329dfe"
        assert config_hash(parse_config(NONLINEAR_CONFIG)) == "1b335be9c745"

    @pytest.mark.parametrize(
        "line", ["width = 1.5\n", "cap = 3.0\n", "values = 1.0, -0.5\n"]
    )
    def test_missing_form_key_rejected(self, line):
        assert line in NONLINEAR_CONFIG
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(NONLINEAR_CONFIG.replace(line, ""))

    @pytest.mark.parametrize(
        "line,bad",
        [
            ("form = exponential", "form = gaussian"),
            ("form = linear", "form = relu"),
            ("kind = indicator", "kind = ramp"),
        ],
    )
    def test_unknown_form_rejected(self, line, bad):
        with pytest.raises(ConfigError, match="must be"):
            parse_config(LINEAR_CONFIG.replace(line, bad))

    def test_build_objects(self):
        cfg = parse_config(LINEAR_CONFIG)
        params = cfg.build_params()
        assert params.alpha_mu == 0.5
        u = cfg.build_u(params)
        assert u.support == (0.0, 10.0)
        cfg2 = parse_config(NONLINEAR_CONFIG)
        assert cfg2.build_u().values == (1.0, -0.5)
        assert cfg2.reps == 10000  # default
        assert cfg2.mode == "rplus"

    def test_readme_example_parses(self):
        # the INI block under "### Configuration format", with its inline
        # "; comment" annotations
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration format", 1)[1]
        text = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        cfg = parse_config(text)
        assert (cfg.mode, cfg.burn_in, cfg.experiment_name) == ("rplus", 5.0, "sweep-nonlinear")
        params = cfg.build_params()
        assert params.alpha_mu == 0.5 and params.phi0 == 1.0
        assert cfg.build_u(params).support == (0.0, 10.0)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_tabulated_and_tanh_roundtrip(self):
        text = """\
[kernel]
form = tabulated
step = 0.25
values = 0.8, 0.4, 0.2, 0.0

[link]
form = tanh
nu = 1.0
amplitude = 2.0

[u]
kind = steps
breakpoints = 0.0, 2.0
values = 1.0

[sim]
t_end = 4.0
seed = 3
"""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
        params = cfg.build_params()
        assert params.kernel.support_end == pytest.approx(0.75)
        assert params.link.phi0 == 1.0

    def test_unknown_key_rejected(self):
        bad = LINEAR_CONFIG.replace("rate = 2.0", "rate = 2.0\ncolor = blue")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(LINEAR_CONFIG + "\n[extra]\nx = 1\n")

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            parse_config("[kernel]\nform = exponential\nmass = 1.0\nrate = 1.0\n")

    def test_wrong_form_key_rejected(self):
        bad = LINEAR_CONFIG.replace("rate = 2.0", "width = 2.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_number(self):
        bad = LINEAR_CONFIG.replace("mass = 0.5", "mass = half")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_mode(self):
        bad = LINEAR_CONFIG.replace("mode = rplus", "mode = sideways")
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("reps", ["0", "-5"])
    def test_reps_below_one_rejected(self, reps):
        with pytest.raises(ConfigError):
            parse_config(LINEAR_CONFIG.replace("reps = 100", f"reps = {reps}"))


class TestCommands:
    def write(self, tmp_path, text, name="run.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_simulate_deterministic(self, tmp_path, capsys):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        text1 = (out1 / "events.txt").read_text()
        assert text1 == (out2 / "events.txt").read_text()
        assert text1.startswith("# window 0.0 10.0 42")
        n_lines = len(text1.splitlines()) - 1
        # ~ nu*T/(1-mu) = 20 events
        assert 5 <= n_lines <= 60

    def test_simulate_seed_override_changes_output(self, tmp_path):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "43"])
        assert (out1 / "events.txt").read_text() != (out2 / "events.txt").read_text()

    def test_simulate_burn_in_option_and_key(self, tmp_path):
        # an explicit burn-in, as option or as [sim] key, overrides the start rule
        params = parse_config(LINEAR_CONFIG).build_params()
        expected = simulate(SimConfig(params, 10.0, burn_in=3.0, seed=42))[0].serialize()
        assert expected != simulate(SimConfig(params, 10.0, seed=42))[0].serialize()
        by_option = self.write(tmp_path, LINEAR_CONFIG)
        by_key = self.write(tmp_path, LINEAR_CONFIG + "burn_in = 3\n", "key.ini")
        for name, cfg, extra in (("option", by_option, ["--burn-in", "3"]), ("key", by_key, [])):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out), *extra]) == 0
            assert (out / "events.txt").read_text() == expected

    def test_unstable_config_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, LINEAR_CONFIG.replace("mass = 0.5", "mass = 1.5"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "stability" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 2

    def test_simulation_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing_simulate(cfg):
            raise SimulationError("candidate intensity exceeds dominating rate", time=1.5)

        monkeypatch.setattr(cli, "simulate", failing_simulate)
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "simulation error" in capsys.readouterr().err

    def test_bounds_linear_reports_six(self, tmp_path, capsys):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in (
            "nonlinear",
            "nonlinear_approx",
            "linear",
            "linear_approx",
            "linear_spectral",
            "linear_spectral_approx",
        ):
            assert name in out
        assert "stationary-only" in out  # rplus mode warning
        csv_text = (tmp_path / "bounds.csv").read_text()
        assert csv_text.splitlines()[0].startswith("# hawkesgauss")
        assert csv_text.splitlines()[1] == "bound,term_label,value"

    def test_bounds_nonlinear_reports_two(self, tmp_path, capsys):
        cfg = self.write(tmp_path, NONLINEAR_CONFIG)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "linear family" in out and "skipped" in out
        assert any(
            line.startswith("spectral family") and "skipped" in line
            for line in out.splitlines()
        )
        assert out.count("\nnonlinear") >= 1

    def test_experiment_unknown_name_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        assert main(["experiment", "tea-leaves", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_experiment_sweep(self, tmp_path, capsys):
        text = LINEAR_CONFIG + "\n[experiment]\nname = sweep-nonlinear\neps_grid = 0.3, 0.15\n"
        cfg = self.write(tmp_path, text)
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path), "--reps", "1000"])
        assert rc == 0
        assert (tmp_path / "sweep-nonlinear.csv").exists()
        assert "slope" in capsys.readouterr().out

    def test_experiment_bound_vs_empirical(self, tmp_path, capsys):
        text = LINEAR_CONFIG + "\n[experiment]\nname = bound-vs-empirical\npreset = poisson\n"
        cfg = self.write(tmp_path, text)
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path), "--reps", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "bounds_poisson.csv").exists()
        samples = (tmp_path / "samples_poisson.csv").read_text().splitlines()
        assert samples[1] == "replication,delta,event_sum,compensator,quad_err"
        assert len(samples) == 402

    def test_experiment_unknown_preset_exits_2(self, tmp_path, capsys):
        text = LINEAR_CONFIG + "\n[experiment]\nname = bound-vs-empirical\npreset = nope\n"
        cfg = self.write(tmp_path, text)
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown preset 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["-5", "1"])
    def test_experiment_bound_vs_empirical_too_few_reps_exits_2(self, tmp_path, capsys, reps):
        text = LINEAR_CONFIG + "\n[experiment]\nname = bound-vs-empirical\npreset = poisson\n"
        cfg = self.write(tmp_path, text)
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path), "--reps", reps])
        assert rc == 2
        assert "replications" in capsys.readouterr().err

    def test_ci_beta_out_of_range_exits_2(self, tmp_path):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        assert main(["ci", "--config", cfg, "--beta", "0.6", "--out", str(tmp_path)]) == 2

    def test_ci_infeasible_exits_4(self, tmp_path, capsys):
        cfg = self.write(tmp_path, LINEAR_CONFIG)
        rc = main(["ci", "--config", cfg, "--beta", "0.2", "--out", str(tmp_path)])
        assert rc == 4
        assert "beta >=" in capsys.readouterr().out

    def test_ci_feasible(self, tmp_path, capsys):
        # no excitation and a huge support make the bound tiny
        text = LINEAR_CONFIG.replace("mass = 0.5", "mass = 0.0").replace(
            "ell = 10.0", "ell = 200000.0"
        ).replace("t_end = 10.0", "t_end = 200000.0")
        cfg = self.write(tmp_path, text)
        rc = main(["ci", "--config", cfg, "--beta", "0.2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage >= 0.6" in out
