from pathlib import Path

import pytest

import fbsdelab.cli as cli
from fbsdelab.bsde import BasisSpec
from fbsdelab.errors import ConfigError, DomainError
from fbsdelab.harness import (LSMC_ROUTES, run_delta_sweep, run_feynman_kac_check,
                              run_uniqueness_check)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_LQR = """
[problem]
kind = lqr
A = 0
B = 1
sigma = 1
delta = 0
target = 0
control_weight = 1
terminal_weight = 0
x0 = 1
T = 1

[experiment]
kind = feynman_kac
"""


def parse(text):
    return cli.parse_config(text)


class TestParseConfig:
    def test_shipped_configs_parse(self):
        for name in ("lqr_delta0.cfg", "lqr_delta01.cfg", "heat.cfg",
                     "lqr_uniqueness.cfg", "lqr_sweep.cfg", "lqr_condition.cfg"):
            cfg = parse((CONFIG_DIR / name).read_text())
            assert cfg.setup is not None

    def test_minimal_defaults(self):
        cfg = parse(MINIMAL_LQR)
        assert cfg.numerics.n_paths == 100_000
        assert cfg.numerics.seed == 20240801
        assert cfg.experiment == "feynman_kac"
        assert cfg.out_dir == "out"
        assert cfg.control is not None

    def test_missing_required_key_names_path(self):
        text = MINIMAL_LQR.replace("T = 1\n", "")
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert any("problem.T" in e for e in err.value.errors)

    def test_expression_parse_error_located(self):
        text = MINIMAL_LQR.replace("sigma = 1", "sigma = 1+")
        with pytest.raises(ConfigError) as err:
            parse(text)
        joined = " ".join(err.value.errors)
        assert "problem.sigma" in joined and "column" in joined

    def test_unknown_keys_rejected(self):
        for key, value in (("warp_speed", "9"), ("bsde_scheme", "auto")):
            text = MINIMAL_LQR + f"\n[numerics]\nn_paths = 100\n{key} = {value}\n"
            with pytest.raises(ConfigError) as err:
                parse(text)
            assert any(f"unknown key numerics.{key}" in e for e in err.value.errors)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse(MINIMAL_LQR + "\n[plotting]\ncolor = red\nwidth = 2\n")
        assert len(err.value.errors) == 1
        assert "unknown section [plotting]" in err.value.errors[0]

    def test_all_errors_collected(self):
        text = MINIMAL_LQR.replace("B = 1", "B = 1+") \
                          .replace("x0 = 1", "x0 = one") \
            + "\n[numerics]\nn_paths = 0\n"
        with pytest.raises(ConfigError) as err:
            parse(text)
        joined = " ".join(err.value.errors)
        assert "problem.B" in joined
        assert "problem.x0" in joined
        assert "n_paths" in joined
        assert len(err.value.errors) >= 3

    def test_numeric_range_checks(self):
        # MINIMAL_LQR ends inside [experiment], so bare keys land there
        cases = [
            ("[numerics]\nn_paths = 0", "numerics.n_paths: must be >= 1"),
            ("[numerics]\nx_lo = -3", "unknown key numerics.x_lo"),
            ("routes = pde,quantum", "experiment.routes: unknown route 'quantum'"),
            ("deltas = 0,-0.1", "experiment.deltas: deltas must be >= 0, got -0.1"),
            ("seeds = 1.2,1.7,2.9", "experiment.seeds: expected comma-separated integers"),
            ("seeds = 1,2,1", "experiment.seeds: seeds must be distinct"),
        ]
        for extra, message in cases:
            with pytest.raises(ConfigError) as err:
                parse(MINIMAL_LQR + extra + "\n")
            assert any(message in e for e in err.value.errors), (extra, err.value.errors)

    def test_time_only_coefficients_reject_x(self):
        text = MINIMAL_LQR.replace("A = 0", "A = x")
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert any("problem.A" in e for e in err.value.errors)

    def test_duplicate_key_rejected(self):
        text = MINIMAL_LQR + "\n[numerics]\nseed = 1\nseed = 2\n"
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert any("duplicate key" in e for e in err.value.errors)

    def test_driver_problem_block(self):
        text = """
[problem]
kind = driver
mu = 0
sigma = 1
x0 = 0
T = 1
source = 0
z_quad = 0
terminal = x^2

[experiment]
kind = feynman_kac
"""
        cfg = parse(text)
        assert cfg.control is None
        assert float(cfg.setup.driver.terminal(3.0)) == 9.0
        assert cfg.setup.forward.x0 == 0.0


class TestMain:
    def run_main(self, *argv):
        return cli.main(list(argv))

    def test_run_heat_config(self, tmp_path, capsys):
        code = self.run_main("run", str(CONFIG_DIR / "heat.cfg"),
                             "--out-dir", str(tmp_path / "heat"),
                             "--paths", "20000")
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert (tmp_path / "heat" / "routes.csv").exists()
        assert (tmp_path / "heat" / "verdicts.txt").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = self.run_main("run", str(CONFIG_DIR / "heat.cfg"),
                                 "--out-dir", str(out), "--paths", "5000",
                                 "--steps", "16")
            assert code == 0
        for name in ("routes.csv", "verdicts.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_LQR + "\n[numerics]\nn_paths = 0\n")
        code = self.run_main("run", str(bad))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_three_point_pde_grid_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_LQR + "\n[numerics]\nn_space = 3\n")
        code = self.run_main("run", str(bad), "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "numerics.n_space: must be >= 4, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, flag, value", [
        ("lqr_condition.cfg", "--paths", "0"),
        ("lqr_condition.cfg", "--paths", "-3"),
        ("lqr_condition.cfg", "--steps", "0"),
        ("heat.cfg", "--steps", "0"),
    ])
    def test_invalid_override_exits_2_like_config_key(self, tmp_path, capsys, cfg, flag, value):
        key = {"--paths": "n_paths", "--steps": "n_steps"}[flag]
        code = self.run_main("run", str(CONFIG_DIR / cfg), flag, value,
                             "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert f"config error: numerics.{key}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, old, new, message", [
        ("heat.cfg", "routes = pde,direct", "routes =",
         "experiment.routes: feynman_kac compares at least 2 distinct routes"),
        ("heat.cfg", "routes = pde,direct", "routes = pde",
         "experiment.routes: feynman_kac compares at least 2 distinct routes"),
        ("heat.cfg", "routes = pde,direct", "routes = pde,pde",
         "experiment.routes: feynman_kac compares at least 2 distinct routes"),
        ("lqr_uniqueness.cfg", "seeds = 1,2,3,4,5", "seeds = 1,2",
         "experiment.seeds: uniqueness needs at least 3 seeds"),
        ("lqr_uniqueness.cfg", "bases = polynomial:4,piecewise_linear:10",
         "bases = polynomial:4", "experiment.bases: uniqueness needs at least 2 bases"),
        ("lqr_uniqueness.cfg", "seeds = 1,2,3,4,5", "seeds = 1,2,3,4,5\nroutes = direct,pde",
         "experiment.routes: uniqueness takes distinct Monte Carlo routes"),
        ("lqr_uniqueness.cfg", "seeds = 1,2,3,4,5", "seeds = 1,2,3,4,5\nroutes = direct,direct",
         "experiment.routes: uniqueness takes distinct Monte Carlo routes"),
        ("lqr_uniqueness.cfg", "seeds = 1,2,3,4,5", "seeds = 1,2,3,4,5\nroutes =",
         "experiment.routes: uniqueness takes distinct Monte Carlo routes"),
        ("lqr_sweep.cfg", "deltas = 0,0.05,0.1", "deltas =",
         "experiment.deltas: delta_sweep needs at least one delta"),
    ])
    def test_list_length_rules_exit_2(self, tmp_path, capsys, cfg, old, new, message):
        text = (CONFIG_DIR / cfg).read_text()
        assert old in text
        path = tmp_path / cfg
        path.write_text(text.replace(old, new))
        code = self.run_main("run", str(path), "--out-dir", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and message in err

    def test_repeated_bases_exit_2(self, tmp_path, capsys):
        text = (CONFIG_DIR / "lqr_uniqueness.cfg").read_text()
        old = "bases = polynomial:4,piecewise_linear:10"
        assert old in text
        path = tmp_path / "u.cfg"
        path.write_text(text.replace(old, "bases = polynomial:4,polynomial:4"))
        code = self.run_main("run", str(path), "--out-dir", str(tmp_path / "x"),
                             "--paths", "500", "--steps", "4")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ")
        assert "experiment.bases: bases must be distinct, got 'polynomial:4,polynomial:4'" in err

    def test_uniqueness_runs_only_the_configured_routes(self, tmp_path, capsys):
        # z_quad = 0 here, so a transformed row would end the run with an error
        text = (CONFIG_DIR / "heat.cfg").read_text()
        old = "kind = feynman_kac\nroutes = pde,direct"
        assert old in text
        path = tmp_path / "u.cfg"
        path.write_text(text.replace(old, "kind = uniqueness\nroutes = direct\nseeds = 1,2,3\n"
                                          "bases = polynomial:2,polynomial:3"))
        code = self.run_main("run", str(path), "--out-dir", str(tmp_path / "u"),
                             "--paths", "2000", "--steps", "16")
        out = capsys.readouterr().out
        assert code == 0 and "single_band: PASS" in out and "# routes = ['direct']" in out
        rows = (tmp_path / "u" / "table.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.startswith("direct,") for row in rows)

    @pytest.mark.parametrize("cfg, key, value", [
        ("heat.cfg", "routes", "pde,quantum"),
        ("heat.cfg", "routes", "pde,pde"),
        ("lqr_uniqueness.cfg", "routes", "direct,pde"),
        ("lqr_uniqueness.cfg", "seeds", "1,2,1"),
        ("lqr_uniqueness.cfg", "seeds", "1,2"),
        ("lqr_uniqueness.cfg", "bases", "polynomial:4,polynomial:4"),
        ("lqr_uniqueness.cfg", "bases", "polynomial:4"),
        ("lqr_sweep.cfg", "deltas", "0,-0.1"),
        ("lqr_sweep.cfg", "deltas", ""),
    ])
    def test_cli_and_library_give_the_same_message(self, tmp_path, capsys, cfg, key, value):
        # each input rule is worded once: the config error is the runner's DomainError
        text = (CONFIG_DIR / cfg).read_text()
        config = cli.parse_config(text)
        parse = {"routes": str.strip, "seeds": int, "bases": BasisSpec.from_label,
                 "deltas": float}[key]
        inputs = {"routes": config.routes, "seeds": config.seeds, "bases": config.bases,
                  "deltas": config.deltas,
                  key: [parse(part) for part in value.split(",") if part.strip()]}
        with pytest.raises(DomainError) as exc:
            if config.experiment == "feynman_kac":
                run_feynman_kac_check(config.setup, config.numerics, routes=inputs["routes"])
            elif config.experiment == "uniqueness":
                run_uniqueness_check(config.setup, config.numerics, inputs["seeds"],
                                     inputs["bases"], routes=inputs["routes"] or LSMC_ROUTES)
            else:
                run_delta_sweep(config.control, config.numerics, inputs["deltas"])
        lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        lines.insert(lines.index("[experiment]") + 1, f"{key} = {value}")
        path = tmp_path / cfg
        path.write_text("\n".join(lines) + "\n")
        code = self.run_main("run", str(path), "--out-dir", str(tmp_path / "x"))
        errors = capsys.readouterr().err.splitlines()
        assert code == 2
        assert [line for line in errors if line.endswith(f"experiment.{key}: {exc.value}")
                and line.startswith("config error: ")], (errors, str(exc.value))

    def test_vanishing_sigma_writes_a_failing_condition_report(self, tmp_path, capsys):
        # sigma(0) = 0: the reduced z_quad is not finite there, which its clause reports
        text = (CONFIG_DIR / "lqr_condition.cfg").read_text()
        assert "\nsigma = 1\n" in text
        path = tmp_path / "sigma_t.cfg"
        path.write_text(text.replace("\nsigma = 1\n", "\nsigma = t\n"))
        code = self.run_main("check-condition", str(path), "--out-dir", str(tmp_path / "c"))
        assert code == 1
        report = (tmp_path / "c" / "condition_report.txt").read_text()
        assert "z_quad_positive: FAIL witness=(0.0,) non-finite value" in report.splitlines()
        assert capsys.readouterr().err == ""

    def test_verb_picks_the_rules_of_its_experiment(self, tmp_path):
        # two seeds are too few for uniqueness, not for the condition check the verb runs
        text = (CONFIG_DIR / "lqr_uniqueness.cfg").read_text()
        path = tmp_path / "u.cfg"
        path.write_text(text.replace("seeds = 1,2,3,4,5", "seeds = 1,2"))
        code = self.run_main("check-condition", str(path), "--out-dir", str(tmp_path / "c"))
        assert code == 0
        assert (tmp_path / "c" / "condition_report.txt").exists()

    def test_missing_file_exits_2(self, capsys):
        code = self.run_main("run", "no_such_file.cfg")
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_check_condition_verb(self, tmp_path, capsys):
        code = self.run_main("check-condition", str(CONFIG_DIR / "lqr_condition.cfg"),
                             "--out-dir", str(tmp_path / "cond"))
        out = capsys.readouterr().out
        assert code == 0
        assert "uniqueness hypothesis: holds" in out
        assert (tmp_path / "cond" / "condition_report.txt").exists()

    def test_gamma_is_not_a_config_key(self, tmp_path, capsys):
        # the source-domination weight is the checker's constant GAMMA
        text = (CONFIG_DIR / "lqr_condition.cfg").read_text()
        assert "kind = check_condition\n" in text
        cfg = tmp_path / "gamma.cfg"
        cfg.write_text(text.replace("kind = check_condition\n",
                                    "kind = check_condition\ngamma = 0.5\n"))
        code = self.run_main("check-condition", str(cfg), "--out-dir", str(tmp_path / "c"))
        assert code == 2
        assert "unknown key experiment.gamma" in capsys.readouterr().err

    def test_check_condition_failure_exits_1(self, tmp_path, capsys):
        text = """
[problem]
kind = driver
mu = 0
sigma = 1
x0 = 0
T = 1
source = 0
z_quad = t
terminal = x^2

[experiment]
kind = check_condition
"""
        cfg = tmp_path / "bad_driver.cfg"
        cfg.write_text(text)
        code = self.run_main("check-condition", str(cfg),
                             "--out-dir", str(tmp_path / "c"))
        assert code == 1
        assert "NOT established" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_coefficient_exits_1_with_error_line(self, tmp_path, capsys):
        # z_quad is NaN for t < 0.5; the PDE evaluates it at Python float times
        text = (CONFIG_DIR / "heat.cfg").read_text()
        assert "z_quad = 0\n" in text
        cfg = tmp_path / "nan_z_quad.cfg"
        cfg.write_text(text.replace("z_quad = 0\n", "z_quad = (t-0.5)^0.5\n"))
        code = self.run_main("run", str(cfg), "--out-dir", str(tmp_path / "x"),
                             "--paths", "2000", "--steps", "16")
        assert code == 1
        assert "error: coefficient 'z_quad' produced a non-finite value" in capsys.readouterr().err

    def test_sweep_verb_overrides_experiment(self, tmp_path, capsys):
        code = self.run_main("sweep", str(CONFIG_DIR / "lqr_sweep.cfg"),
                             "--out-dir", str(tmp_path / "sweep"))
        assert code == 0
        table = (tmp_path / "sweep" / "table.csv").read_text().splitlines()
        assert table[0] == "delta,value,disc_err"
        assert len(table) == 4

    def test_sweep_requires_lqr(self, tmp_path, capsys):
        code = self.run_main("sweep", str(CONFIG_DIR / "heat.cfg"),
                             "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "lqr" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            code = self.run_main("run", str(CONFIG_DIR / "heat.cfg"),
                                 "--out-dir", str(out), "--paths", "5000",
                                 "--steps", "16", "--seed", seed)
            assert code == 0
        assert (a / "routes.csv").read_bytes() != (b / "routes.csv").read_bytes()
