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

MINIMAL_DRIVER = """
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
        cfg = parse(MINIMAL_DRIVER)
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

    def test_vanishing_sigma_run_names_the_lqr_keys(self, tmp_path, capsys):
        # an lqr config has no z_quad key: the error names the keys the reduced one is built from
        text = (CONFIG_DIR / "lqr_condition.cfg").read_text()
        assert "\nsigma = 1\n" in text and "\nkind = check_condition\n" in text
        path = tmp_path / "sigma_t.cfg"
        path.write_text(text.replace("\nsigma = 1\n", "\nsigma = t\n").replace(
            "\nkind = check_condition\n", "\nkind = feynman_kac\n"))
        code = self.run_main("run", str(path), "--out-dir", str(tmp_path / "r"),
                             "--paths", "200", "--steps", "4")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: coefficient 'B^2/(2 control_weight sigma^2)' produced a non-finite value"
            " at (0.0,)\n")

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa, code, clause, hypothesis", [
        ("identity", 1,
         "y_term_modulus_bound: FAIL witness=(0.0, 0.08333333333333333, 0.16666666666666666) ",
         "uniqueness hypothesis: NOT established"),
        ("logpower:0.3:1", 0, "y_term_modulus_bound: PASS", "uniqueness hypothesis: holds"),
    ])
    def test_y_term_reaches_the_modulus_clause(self, tmp_path, capsys, kappa, code, clause,
                                               hypothesis):
        # v = 2 + cos(x) e^(t-1) solves this driver problem, whose y-term is 0.5 y
        text = f"""
[problem]
kind = driver
mu = 0.5*sin(x)
sigma = 1
source = 1 + 0.5*sin(x)^2*exp(t-1) + 0.5*sin(x)^2*exp(2*(t-1))
z_quad = 1
y_term = 0.5*x
terminal = 2 + cos(x)
x0 = 0
T = 1

[experiment]
kind = check_condition
kappa = {kappa}
phi = 1
"""
        cfg = tmp_path / "y_term.cfg"
        cfg.write_text(text)
        assert self.run_main("check-condition", str(cfg), "--out-dir", str(tmp_path / "c")) == code
        report = (tmp_path / "c" / "condition_report.txt").read_text().splitlines()
        for line in (clause, hypothesis):
            assert any(r.startswith(line) for r in report), (line, report)
        captured = capsys.readouterr()
        assert hypothesis in captured.out and captured.err == ""

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


RECORDED_ERRORS = {   # case: (config text, override flags, every error in reporting order)
    "lqr_keys": (
        MINIMAL_LQR.replace("A = 0", "A = x").replace("B = 1", "B = 1+")
        .replace("x0 = 1", "x0 = one").replace("delta = 0", "delta = -1")
        .replace("T = 1\n", "").replace("terminal_weight = 0", "terminal_weight = heavy"), (),
        ["line 4: problem.A: may not use variable 'x'",
         "line 5: problem.B: invalid syntax (column 3 of '1+')",
         "line 7: problem.delta: must be >= 0.0, got -1.0",
         "line 10: problem.terminal_weight: expected a float, got 'heavy'",
         "line 11: problem.x0: expected a float, got 'one'",
         "missing required key problem.T"]),
    "driver_keys": (
        MINIMAL_DRIVER.replace("terminal = x^2", "terminal = t + x")
        .replace("z_quad = 0", "z_quad = x\nz_slope = exp(\ny_term = foo(x)\nvalue_floor = low")
        .replace("mu = 0", "mu = 2^^3"), (),
        ["line 4: problem.mu: invalid syntax (column 3 of '2^^3')",
         "line 9: problem.z_quad: may not use variable 'x'",
         "line 13: problem.terminal: may not use variable 't'",
         "line 10: problem.z_slope: '(' was never closed (column 4 of 'exp(')",
         "line 11: problem.y_term: unknown function 'foo' (column 1 of 'foo(x)')",
         "line 12: problem.value_floor: expected a float, got 'low'"]),
    "problem_kind": (
        MINIMAL_LQR.replace("kind = lqr", "kind = lqq"), (),
        ["line 3: problem.kind must be 'lqr' or 'driver', got 'lqq'"]),
    "spec_rejected": (
        MINIMAL_LQR.replace("T = 1", "T = 0"), (),
        ["problem: horizon must be positive"]),
    "numerics": (
        MINIMAL_LQR + "\n[numerics]\nn_paths = 0\nn_steps = ten\nn_space = 3\n"
        "pde_steps = many\nseed = 1.5\nbasis = poly:4\npde_scheme = fast\n", (),
        ["line 18: numerics.n_paths: must be >= 1, got 0",
         "line 19: numerics.n_steps: expected a int, got 'ten'",
         "line 20: numerics.n_space: must be >= 4, got 3",
         "line 21: numerics.pde_steps: expected a int, got 'many'",
         "line 22: numerics.seed: expected a int, got '1.5'",
         "line 23: numerics.basis: unknown basis 'poly:4'",
         "line 24: numerics.pde_scheme: unknown scheme 'fast'"]),
    "experiment": (
        MINIMAL_LQR.replace("kind = feynman_kac", "kind = nope\nroutes = pde,quantum\n"
                            "deltas = a,b\nseeds = 1.2\nbases = poly:1\nkappa = cubic\nphi = x"), (),
        ["line 15: experiment.kind must be one of ('feynman_kac', 'uniqueness', 'delta_sweep', "
         "'check_condition'), got 'nope'",
         "line 17: experiment.deltas: expected comma-separated numbers, got 'a,b'",
         "line 18: experiment.seeds: expected comma-separated integers, got '1.2'",
         "line 19: experiment.bases: unknown basis 'poly:1'",
         "line 16: experiment.routes: unknown route 'quantum'; expected some of ('riccati', "
         "'pde', 'direct', 'transformed', 'girsanov')",
         "line 20: experiment.kappa: unknown modulus 'cubic'",
         "line 21: experiment.phi: may not use variable 'x'"]),
    "kappa_logpower": (
        MINIMAL_LQR.replace("kind = feynman_kac",
                            "kind = check_condition\nkappa = logpower:2\nphi = 1+"), (),
        ["line 16: experiment.kappa: cutoff must be in (0, e^-exponent) = (0, 0.367879), got 2.0",
         "line 17: experiment.phi: invalid syntax (column 3 of '1+')"]),
    "input_rules": (
        MINIMAL_LQR.replace("kind = feynman_kac", "kind = uniqueness\nroutes = direct,pde\n"
                            "seeds = 1,2,1\nbases = polynomial:4\ndeltas = 0,-0.1"), (),
        ["line 16: experiment.routes: uniqueness takes distinct Monte Carlo routes from "
         "('direct', 'transformed', 'girsanov'), got ['direct', 'pde']",
         "line 17: experiment.seeds: seeds must be distinct, got [1, 2, 1]",
         "line 18: experiment.bases: uniqueness needs at least 2 bases, got 'polynomial:4'",
         "line 19: experiment.deltas: deltas must be >= 0, got -0.1"]),
    "sweep_driver": (
        MINIMAL_DRIVER.replace("kind = feynman_kac", "kind = delta_sweep\nkappa = logpower:x"), (),
        ["delta_sweep requires problem.kind = lqr",
         "line 14: experiment.kappa: could not convert string to float: 'x'"]),
    "section_reader": (
        "stray = 1\n" + MINIMAL_LQR + "just words\n[plotting]\ncolor = red\n[numerics]\n"
        "seed = 1\nseed = 2\nwarp_speed = 9\n[output]\ndir = o\nformat = csv\n[problem]\nextra = 1\n",
        (),
        ["line 1: key outside any section: 'stray = 1'",
         "line 17: expected 'key = value', got 'just words'",
         "line 18: unknown section [plotting]",
         "line 22: duplicate key 'seed'",
         "line 27: duplicate section [problem]",
         "line 28: unknown key problem.extra for kind 'lqr'",
         "line 23: unknown key numerics.warp_speed",
         "line 26: unknown key output.format"]),
    "missing_sections": (
        "[numerics]\nn_paths = 10\n", (),
        ["missing [problem] section", "missing [experiment] section"]),
    "overrides": (
        MINIMAL_LQR, ("--paths", "0", "--steps", "0", "--seed", "7"),
        ["numerics.n_paths: must be >= 1, got 0",
         "numerics.n_steps: must be >= 1, got 0"]),
    "overrides_replace_keys": (
        MINIMAL_LQR.replace("B = 1", "B = 1+") + "\n[numerics]\nn_steps = 4\n",
        ("--steps", "0", "--paths", "-1"),
        ["line 5: problem.B: invalid syntax (column 3 of '1+')",
         "numerics.n_paths: must be >= 1, got -1",
         "numerics.n_steps: must be >= 1, got 0"]),
}


@pytest.mark.parametrize("case", RECORDED_ERRORS)
def test_config_errors_match_recorded(tmp_path, capsys, case):
    # every reader's messages, in their order, byte for byte as recorded
    text, flags, errors = RECORDED_ERRORS[case]
    if not flags:
        with pytest.raises(ConfigError) as err:
            cli.parse_config(text)
        assert err.value.errors == errors
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path), *flags]) == 2
    assert capsys.readouterr().err == "".join(f"config error: {e}\n" for e in errors)


@pytest.mark.parametrize("extra, flags, error", [
    ("[numerics]\npde_scheme =", (), "line 18: numerics.pde_scheme: unknown scheme ''"),
    ("[numerics]\npde_steps = 0", (), "line 18: numerics.pde_steps: must be >= 1, got 0"),
    ("[output]\ndir =", (), "line 18: output.dir: expected a directory, got ''"),
    ("", ("--out-dir", ""), "output.dir: expected a directory, got ''"),
], ids=["pde_scheme", "pde_steps", "dir", "out_dir_flag"])
def test_empty_values_and_zero_pde_steps_exit_2(tmp_path, monkeypatch, capsys, extra, flags,
                                                error):
    # only a list key reads an empty value as something (the empty list)
    monkeypatch.chdir(tmp_path)   # where the default output.dir would land
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL_LQR + "\n" + extra + "\n")
    assert cli.main(["run", str(path), "--paths", "200", "--steps", "4", *flags]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("source", ["+".join(["0"] * 20_000), "-" * 3000 + "x",
                                    "+".join(["0"] * 2000)],
                         ids=["parsed_sum", "parsed_unary_chain", "whitelisted_sum"])
def test_deeply_nested_expression_exits_2(tmp_path, capsys, source):
    text = (CONFIG_DIR / "heat.cfg").read_text()
    assert "\nsource = 0\n" in text
    path = tmp_path / "deep.cfg"
    path.write_text(text.replace("\nsource = 0\n", f"\nsource = {source}\n"))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 10: problem.source: nested too deeply")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, old, new", [
    ("driver", "T = 1", "T = inf"),
    ("driver", "T = 1", "T = nan"),
    ("driver", "x0 = 0", "x0 = inf"),
    ("driver", "x0 = 0", "x0 = -inf"),
    ("driver", "terminal = x^2", "terminal = x^2\nvalue_floor = inf"),
    ("driver", "terminal = x^2", "terminal = x^2\nvalue_floor = nan"),
    ("lqr", "delta = 0", "delta = inf"),
    ("lqr", "delta = 0", "delta = nan"),
    ("lqr", "T = 1", "T = inf"),
    ("lqr", "x0 = 1", "x0 = nan"),
    ("lqr", "terminal_weight = 0", "terminal_weight = inf"),
], ids=lambda v: v.splitlines()[-1].replace(" = ", "="))
def test_non_finite_number_exits_2(tmp_path, capsys, kind, old, new):
    # float() reads 'inf' and 'nan'; the number reader refuses them, with the key's line
    base = {"driver": MINIMAL_DRIVER, "lqr": MINIMAL_LQR}[kind]
    text = base.replace(f"\n{old}\n", f"\n{new}\n")
    assert text != base
    bad = new.splitlines()[-1]
    key, value = bad.split(" = ")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "x"),
                     "--paths", "100", "--steps", "4"]) == 2
    assert capsys.readouterr().err == (f"config error: line {text.splitlines().index(bad) + 1}: "
                                       f"problem.{key}: must be finite, got {float(value)!r}\n")


@pytest.mark.parametrize("via", ["flag", "key"])
def test_out_dir_naming_a_file_exits_2(tmp_path, capsys, via):
    target = tmp_path / "taken"
    target.write_text("")
    text = MINIMAL_DRIVER + ("" if via == "flag" else f"\n[output]\ndir = {target}\n")
    path = tmp_path / "c.cfg"
    path.write_text(text)
    flags = ("--out-dir", str(target)) if via == "flag" else ()
    assert cli.main(["run", str(path), "--paths", "100", "--steps", "4", *flags]) == 2
    where = "" if via == "flag" else f"line {text.splitlines().index(f'dir = {target}') + 1}: "
    assert capsys.readouterr().err == (
        f"config error: {where}output.dir: {str(target)!r} exists and is not a directory\n")
    assert target.read_text() == ""
