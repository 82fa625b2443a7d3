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
import math
import os
import sys
from dataclasses import dataclass

from .bsde import BasisSpec
from .errors import ConfigError, FbsdeLabError
from .expressions import parse_expression
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


_REQUIRED = object()   # the default of a key that must be given


def _read(section, key, errs, path, parse, default=_REQUIRED):
    """Read a key once: it leaves the section, so what stays is unknown.

    A missing required key, and any ``ValueError`` of ``parse``, is reported;
    then, as when the key is absent, the default stands.
    """
    raw, line = section.pop(key, (None, None))
    if raw is None:
        if default is _REQUIRED:
            errs.add(f"missing required key {path}.{key}")
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        errs.add(f"{path}.{key}: {exc}", line)
        return default


def _number(kind, minimum=None):   # the parsers below raise ValueError with the message
    def parse(raw):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"expected a {kind.__name__}, got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value!r}")
        return value
    return parse


def _expression(*variables):
    def parse(raw):
        expr = parse_expression(raw)
        for var in ("t", "x"):
            if var not in variables and expr.uses(var):
                raise ValueError(f"may not use variable {var!r}")
        return expr
    return parse


def _items(kind, noun=None):   # 'key =' is []; without a noun, an error reports kind's words
    def parse(raw):
        try:
            return [kind(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            if noun is None:
                raise
            raise ValueError(f"expected comma-separated {noun}, got {raw!r}") from None
    return parse


def _scheme(raw):
    if raw not in PDE_SCHEMES:
        raise ValueError(f"unknown scheme {raw!r}")
    return raw


def _modulus(raw):
    if raw == "identity":
        return identity_modulus
    name, _, args = raw.partition(":")
    if name != "logpower":
        raise ValueError(f"unknown modulus {raw!r}")
    cutoff, _, exponent = args.partition(":")
    return LogPowerModulus(cutoff=float(cutoff or 0.3), exponent=float(exponent or 1.0))


def _directory(raw):
    if not raw:
        raise ValueError(f"expected a directory, got {raw!r}")
    if os.path.exists(raw) and not os.path.isdir(raw):
        raise ValueError(f"{raw!r} exists and is not a directory")
    return raw


_PROBLEM_KEYS = {   # kind -> key -> (parse, default), in reporting order
    "lqr": {**dict.fromkeys(("A", "B", "sigma", "target", "control_weight"),
                            (_expression("t"), _REQUIRED)),
            "delta": (_number(float, 0.0), 0.0), "terminal_weight": (_number(float, 0.0), 0.0),
            "x0": (_number(float), _REQUIRED), "T": (_number(float), _REQUIRED)},
    "driver": {**dict.fromkeys(("mu", "sigma", "source"), (_expression("t", "x"), _REQUIRED)),
               "z_quad": (_expression("t"), _REQUIRED), "terminal": (_expression("x"), _REQUIRED),
               **dict.fromkeys(("z_slope", "y_term"), (_expression("t", "x"), None)),
               "value_floor": (_number(float), 0.0),
               "x0": (_number(float), _REQUIRED), "T": (_number(float), _REQUIRED)},
}

_NUMERICS_KEYS = {   # key -> (parse, default), in reporting order
    key: (parse, getattr(Numerics(), key)) for key, parse in (
        ("n_paths", _number(int, 1)), ("n_steps", _number(int, 1)), ("n_space", _number(int, 4)),
        ("pde_steps", _number(int, 1)), ("seed", _number(int)),
        ("basis", BasisSpec.from_label), ("pde_scheme", _scheme))}


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

    kind_raw, kind_line = problem.pop("kind", (None, None))
    kind = (kind_raw or "").strip()
    if kind not in _PROBLEM_KEYS:
        if kind_raw is not None or problem:
            errs.add(f"problem.kind must be 'lqr' or 'driver', got {kind_raw!r}", kind_line)
        kind = None

    setup = None
    control = None
    values = {key: _read(problem, key, errs, "problem", *rule)
              for key, rule in _PROBLEM_KEYS.get(kind, {}).items()}
    if kind and not errs.errors:
        try:
            if kind == "lqr":
                control = ControlProblemSpec(horizon=values.pop("T"), **values)
                setup = ProblemSetup.from_control(control, label="lqr")
            else:
                fwd = ForwardSpec(horizon=values.pop("T"),
                                  **{key: values.pop(key) for key in ("mu", "sigma", "x0")})
                terminal = values.pop("terminal")
                drv = DriverSpec(terminal=lambda x: terminal(0.0, x), **values)
                setup = ProblemSetup(label="driver", forward=fwd, driver=drv)
        except FbsdeLabError as exc:
            errs.add(f"problem: {exc}")

    numerics = {key: _read(numerics_sec, key, errs, "numerics", *rule)
                for key, rule in _NUMERICS_KEYS.items()}

    exp_raw, exp_line = experiment_sec.pop("kind", (None, None))
    experiment = exp_raw or ""
    if experiment not in _EXPERIMENTS:
        if experiment_sec or exp_raw is not None:
            errs.add(f"experiment.kind must be one of {_EXPERIMENTS}, got {exp_raw!r}", exp_line)
        experiment = "feynman_kac"

    lines = {key: line for key, (_, line) in experiment_sec.items()}
    lists = {key: _read(experiment_sec, key, errs, "experiment", *rule) for key, rule in (
        ("routes", (_items(str.strip), None)),
        ("deltas", (_items(float, "numbers"), [0.0, 0.05, 0.1])),
        ("seeds", (_items(int, "integers"), [1, 2, 3, 4, 5])),
        ("bases", (_items(BasisSpec.from_label),
                   [BasisSpec("polynomial", 2), BasisSpec("piecewise_linear", n_knots=8)])))}
    for key, message in input_errors(experiment, **lists).items():
        errs.add(f"experiment.{key}: {message}", lines.get(key))
    if experiment == "delta_sweep" and kind == "driver":
        errs.add("delta_sweep requires problem.kind = lqr")
    kappa = _read(experiment_sec, "kappa", errs, "experiment", _modulus, identity_modulus)
    phi = _read(experiment_sec, "phi", errs, "experiment", _expression("t"), 0.0)
    out_dir = _read(output_sec, "dir", errs, "output", _directory, "out")

    for name, section in (("problem", problem if kind else {}), ("numerics", numerics_sec),
                          ("experiment", experiment_sec), ("output", output_sec)):
        suffix = f" for kind {kind!r}" if name == "problem" else ""
        for key, (_, line) in section.items():
            errs.add(f"unknown key {name}.{key}{suffix}", line)
    errs.raise_if_any()
    assert setup is not None
    return RunConfig(setup=setup, control=control, numerics=Numerics(**numerics),
                     experiment=experiment, **lists, kappa=kappa, phi=phi, out_dir=out_dir)


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
    for name, key, value in (("numerics", "seed", args.seed), ("numerics", "n_paths", args.paths),
                             ("numerics", "n_steps", args.steps), ("output", "dir", args.out_dir)):
        if value is not None:   # validated below exactly like the config key
            sections.setdefault(name, {})[key] = (str(value), None)
    verb_kind = {"sweep": "delta_sweep", "check-condition": "check_condition"}.get(args.verb)
    if verb_kind is not None and "experiment" in sections:   # validated with its own rules
        sections["experiment"]["kind"] = (verb_kind, None)
    try:
        config = _validate(sections, errs)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2

    try:
        return run(config)
    except FbsdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
