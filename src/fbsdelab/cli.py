"""Command-line front end: declarative configs, experiment runs, artifacts.

Config files are sectioned key = value text with '#' comments; coefficients
are closed-form expressions over t and x (see docs/config.md for the full
grammar and key reference).  Experiments re-run byte-identically from the
same config: outputs carry no timestamps and all randomness is seeded.

Verbs:
    run <cfg>              execute the configured experiment
    sweep <cfg>            run the perturbation sweep regardless of [experiment] kind
    check-condition <cfg>  evaluate the driver-assumption checker only

Exit codes: 0 all criteria pass; 1 criterion failure; 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from .bsde import BasisSpec
from .errors import ConfigError, DomainError, FbsdeLabError
from .expressions import ExpressionError, parse_expression
from .harness import (LSMC_ROUTES, Numerics, ProblemSetup, input_errors, run_delta_sweep,
                      run_feynman_kac_check, run_uniqueness_check)
from .moduli import LogPowerModulus, identity_modulus
from .pde import PDE_SCHEMES
from .problem import (ControlProblemSpec, DriverSpec, ForwardSpec, SampleGrid,
                      check_driver_assumptions)

_SECTIONS = ("problem", "numerics", "experiment", "output")
_EXPERIMENTS = ("feynman_kac", "uniqueness", "delta_sweep", "check_condition")


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    setup: ProblemSetup
    control: ControlProblemSpec | None
    numerics: Numerics
    experiment: str
    routes: list | None
    deltas: list
    seeds: list
    bases: list
    kappa: object
    phi: object
    out_dir: str


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        self.errors.append(f"{where}{message}")

    def raise_if_any(self):
        if self.errors:
            raise ConfigError(self.errors)


def _read_sections(text: str, errs: _Collector) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errs.add(f"unknown section [{name}]", lineno)
                current = {}   # its keys are never read, so never reported
                continue
            if name in sections:
                errs.add(f"duplicate section [{name}]", lineno)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errs.add(f"expected 'key = value', got {line!r}", lineno)
            continue
        if current is None:
            errs.add(f"key outside any section: {line!r}", lineno)
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            errs.add(f"duplicate key {key!r}", lineno)
            continue
        current[key] = (value, lineno)
    return sections


def _take(section: dict, key: str):
    """Read a key once: it leaves the section, so what stays is unknown."""
    return section.pop(key, (None, None))


def _number(section, key, errs, path, kind=float, default=None, minimum=None):
    raw, line = _take(section, key)
    if raw is None:
        if default is None:
            errs.add(f"missing required key {path}.{key}")
        return default
    try:
        value = kind(raw)
    except ValueError:
        errs.add(f"{path}.{key}: expected a {kind.__name__}, got {raw!r}", line)
        return default
    if minimum is not None and value < minimum:
        errs.add(f"{path}.{key}: must be >= {minimum}, got {value!r}", line)
        return default
    return value


def _expression(section, key, errs, path, required=True, variables=("t", "x")):
    raw, line = _take(section, key)
    if raw is None:
        if required:
            errs.add(f"missing required key {path}.{key}")
        return None
    try:
        expr = parse_expression(raw)
    except ExpressionError as exc:
        errs.add(f"{path}.{key}: {exc}", line)
        return None
    for var in ("t", "x"):
        if var not in variables and expr.uses(var):
            errs.add(f"{path}.{key}: may not use variable {var!r}", line)
            return None
    return expr


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text; collects all errors."""
    errs = _Collector()
    return _validate(_read_sections(text, errs), errs)


def _validate(sections: dict, errs: _Collector) -> RunConfig:
    """Check every key and build the config; consumes ``sections``.

    Reading a key is what declares it: a key still in its section after all
    reads is reported as unknown, after the other errors.
    """
    problem = sections.get("problem", {})
    numerics_sec = sections.get("numerics", {})
    experiment_sec = sections.get("experiment", {})
    output_sec = sections.get("output", {})
    if "problem" not in sections:
        errs.add("missing [problem] section")
    if "experiment" not in sections:
        errs.add("missing [experiment] section")

    kind_raw, kind_line = _take(problem, "kind")
    kind = (kind_raw or "").strip()
    if kind not in ("lqr", "driver"):
        if kind_raw is not None or problem:
            errs.add(f"problem.kind must be 'lqr' or 'driver', got {kind_raw!r}", kind_line)
        kind = None

    setup = None
    control = None
    if kind == "lqr":
        A = _expression(problem, "A", errs, "problem", variables=("t",))
        B = _expression(problem, "B", errs, "problem", variables=("t",))
        sigma = _expression(problem, "sigma", errs, "problem", variables=("t",))
        target = _expression(problem, "target", errs, "problem", variables=("t",))
        k1 = _expression(problem, "control_weight", errs, "problem", variables=("t",))
        delta = _number(problem, "delta", errs, "problem", float, default=0.0, minimum=0.0)
        k2 = _number(problem, "terminal_weight", errs, "problem", float, default=0.0, minimum=0.0)
        x0 = _number(problem, "x0", errs, "problem", float)
        T = _number(problem, "T", errs, "problem", float)
        if not errs.errors and None not in (A, B, sigma, target, k1, x0, T):
            try:
                control = ControlProblemSpec(
                    A=A, B=B, sigma=sigma, delta=delta, target=target,
                    control_weight=k1, terminal_weight=k2, x0=x0, horizon=T)
                setup = ProblemSetup.from_control(control, label="lqr")
            except FbsdeLabError as exc:
                errs.add(f"problem: {exc}")
    elif kind == "driver":
        mu = _expression(problem, "mu", errs, "problem")
        sigma = _expression(problem, "sigma", errs, "problem")
        source = _expression(problem, "source", errs, "problem")
        z_quad = _expression(problem, "z_quad", errs, "problem", variables=("t",))
        terminal = _expression(problem, "terminal", errs, "problem", variables=("x",))
        z_slope = _expression(problem, "z_slope", errs, "problem", required=False)
        y_term = _expression(problem, "y_term", errs, "problem", required=False)
        floor = _number(problem, "value_floor", errs, "problem", float, default=0.0)
        x0 = _number(problem, "x0", errs, "problem", float)
        T = _number(problem, "T", errs, "problem", float)
        if not errs.errors and None not in (mu, sigma, source, z_quad, terminal, x0, T):
            try:
                fwd = ForwardSpec(mu=mu, sigma=sigma, x0=x0, horizon=T)
                drv = DriverSpec(
                    source=source, z_quad=z_quad,
                    terminal=(lambda x, _g=terminal: _g(0.0, x)),
                    z_slope=z_slope, y_term=y_term, value_floor=floor)
                setup = ProblemSetup(label="driver", forward=fwd, driver=drv)
            except FbsdeLabError as exc:
                errs.add(f"problem: {exc}")

    numerics = Numerics()
    n_paths = _number(numerics_sec, "n_paths", errs, "numerics", int,
                      default=numerics.n_paths, minimum=1)
    n_steps = _number(numerics_sec, "n_steps", errs, "numerics", int,
                      default=numerics.n_steps, minimum=1)
    n_space = _number(numerics_sec, "n_space", errs, "numerics", int,
                      default=numerics.n_space, minimum=4)
    pde_steps = _number(numerics_sec, "pde_steps", errs, "numerics", int,
                        default=0, minimum=0)
    seed = _number(numerics_sec, "seed", errs, "numerics", int, default=numerics.seed)
    basis_raw, basis_line = _take(numerics_sec, "basis")
    basis = numerics.basis
    if basis_raw is not None:
        try:
            basis = BasisSpec.from_label(basis_raw)
        except ValueError as exc:
            errs.add(f"numerics.basis: {exc}", basis_line)
    pde_raw, pde_line = _take(numerics_sec, "pde_scheme")
    pde_scheme = pde_raw or "auto"
    if pde_scheme not in PDE_SCHEMES:
        errs.add(f"numerics.pde_scheme: unknown scheme {pde_raw!r}", pde_line)
        pde_scheme = "auto"

    exp_raw, exp_line = _take(experiment_sec, "kind")
    experiment = exp_raw or ""
    if experiment not in _EXPERIMENTS:
        if experiment_sec or exp_raw is not None:
            errs.add(f"experiment.kind must be one of {_EXPERIMENTS}, got {exp_raw!r}", exp_line)
        experiment = "feynman_kac"

    lines = {}   # experiment key -> its line

    def _list(key, default, kind, noun=None):   # without a noun, an error reports kind's words
        raw, lines[key] = _take(experiment_sec, key)
        if raw is None:
            return default
        try:
            return [kind(part) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            why = str(exc) if noun is None else f"expected comma-separated {noun}, got {raw!r}"
            errs.add(f"experiment.{key}: {why}", lines[key])
            return default

    routes = _list("routes", None, str.strip)
    deltas = _list("deltas", [0.0, 0.05, 0.1], float, "numbers")
    seeds = _list("seeds", [1, 2, 3, 4, 5], int, "integers")
    bases = _list("bases", [BasisSpec("polynomial", 2), BasisSpec("piecewise_linear", n_knots=8)],
                  BasisSpec.from_label)
    for key, message in input_errors(experiment, routes=routes, seeds=seeds, bases=bases,
                                     deltas=deltas).items():
        errs.add(f"experiment.{key}: {message}", lines[key])
    if experiment == "delta_sweep" and kind == "driver":
        errs.add("delta_sweep requires problem.kind = lqr")
    kappa_raw, kappa_line = _take(experiment_sec, "kappa")
    kappa = identity_modulus
    if kappa_raw is not None and kappa_raw != "identity":
        name, _, args = kappa_raw.partition(":")
        if name != "logpower":
            errs.add(f"experiment.kappa: unknown modulus {kappa_raw!r}", kappa_line)
        else:
            try:
                cut_s, _, exp_s = args.partition(":")
                kappa = LogPowerModulus(cutoff=float(cut_s or 0.3),
                                        exponent=float(exp_s or 1.0))
            except (ValueError, DomainError) as exc:
                errs.add(f"experiment.kappa: {exc}", kappa_line)
    phi = _expression(experiment_sec, "phi", errs, "experiment",
                      required=False, variables=("t",))

    out_raw, _ = _take(output_sec, "dir")
    out_dir = out_raw or "out"

    for name, section in (("problem", problem if kind else {}), ("numerics", numerics_sec),
                          ("experiment", experiment_sec), ("output", output_sec)):
        suffix = f" for kind {kind!r}" if name == "problem" else ""
        for key, (_, line) in section.items():
            errs.add(f"unknown key {name}.{key}{suffix}", line)
    errs.raise_if_any()
    assert setup is not None
    num = Numerics(
        n_paths=n_paths, n_steps=n_steps, n_space=n_space,
        pde_steps=pde_steps or None, basis=basis, pde_scheme=pde_scheme, seed=seed)
    return RunConfig(setup=setup, control=control, numerics=num,
                     experiment=experiment, routes=routes, deltas=deltas,
                     seeds=seeds, bases=bases, kappa=kappa,
                     phi=0.0 if phi is None else phi, out_dir=out_dir)


def run(config: RunConfig) -> int:
    """Execute the configured experiment; artifacts land in config.out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)
    if config.experiment == "check_condition":
        fwd = config.setup.forward
        sgrid = config.numerics.space_grid(fwd)   # the checker samples the PDE's extent
        report = check_driver_assumptions(
            config.setup.driver, fwd, SampleGrid.regular(fwd.horizon, sgrid.x_lo, sgrid.x_hi),
            kappa_candidate=config.kappa, phi_candidate=config.phi)
        path = os.path.join(config.out_dir, "condition_report.txt")
        with open(path, "w") as fh:
            fh.write(report.summary() + "\n")
        print(report.summary())
        return 0 if report.satisfied else 1
    if config.experiment == "delta_sweep":
        result = run_delta_sweep(config.control, config.numerics, config.deltas)
    elif config.experiment == "uniqueness":
        result = run_uniqueness_check(config.setup, config.numerics,
                                      seed_list=config.seeds, basis_list=config.bases,
                                      routes=config.routes or LSMC_ROUTES)
    else:
        result = run_feynman_kac_check(config.setup, config.numerics, routes=config.routes)
    result.write(config.out_dir)
    print(result.summary())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbsdelab",
        description="Cross-checked backward-SDE / PDE / control experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "check-condition"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override numerics.seed")
        p.add_argument("--paths", type=int, default=None, help="override numerics.n_paths")
        p.add_argument("--steps", type=int, default=None, help="override numerics.n_steps")
        p.add_argument("--out-dir", default=None, help="override output.dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    errs = _Collector()
    sections = _read_sections(text, errs)
    numerics = sections.setdefault("numerics", {})
    for key, value in (("seed", args.seed), ("n_paths", args.paths), ("n_steps", args.steps)):
        if value is not None:   # validated below exactly like the config key
            numerics[key] = (str(value), None)
    verb_kind = {"sweep": "delta_sweep", "check-condition": "check_condition"}.get(args.verb)
    if verb_kind is not None and "experiment" in sections:   # validated with its own rules
        sections["experiment"]["kind"] = (verb_kind, None)
    try:
        config = _validate(sections, errs)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    if args.out_dir is not None:
        config = replace(config, out_dir=args.out_dir)

    try:
        return run(config)
    except FbsdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
