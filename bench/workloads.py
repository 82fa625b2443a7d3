"""The benchmark's workloads: generated configs, set-up, experiment and checks.

Each workload is written from a shipped config in ``configs/`` into
generated files, which are all the program sees.  The Monte Carlo seeds stay
the shipped ones (``SHIPPED_SEED``, uniqueness seeds 1..5): with other seeds
the program fails some of its own statistical verdicts or aborts (see the
README), and a benchmark gate must not fail on the seed it is handed.  A
workload runs in three phases inside one fresh worker process:

    setup(cfg_dir)             read and parse the generated configs and build
                               the problems (counted in ``setup_s``)
    experiment(state, out)     the calls a user makes, up to the verdict
                               (counted in ``wall_s``)
    check(state, rc, out, ...) closed-form and property checks on the
                               artifacts the program wrote

The checks read the artifacts as a user would and compare them with values
computed here with ``math``; none of them depends on today's output.  Every
estimate the program reports and every check is one operation in a ledger,
so ``attempted`` and ``failed`` count them.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

# v(0, 1) of the unperturbed tracking problem: tanh(1) + ln cosh(1)
CLOSED_FORM = math.tanh(1.0) + math.log(math.cosh(1.0))
# numerics.seed of the shipped configs
SHIPPED_SEED = 20240801
SHIPPED_UNIQUENESS_SEEDS = "1,2,3,4,5"

ALL_ROUTES = ("riccati", "pde", "direct", "transformed", "girsanov")
LSMC_ROUTES = ("direct", "transformed", "girsanov")
SWEEP_DELTAS = (0.0, 0.05, 0.1, 0.2, 0.4)
POLICY_DELTAS = (0.0, 0.1)

# Full size is the shipped experiment; smoke size walks the same code paths
# and checks in seconds, for the benchmark's own tests.
SIZES = {
    "full": {"fk": dict(n_paths=100000, n_steps=128, n_space=401, pde_steps=400),
             "uniqueness": dict(n_paths=20000, n_steps=64),
             "pde": dict(n_space=401, pde_steps=400),
             "policy": dict(n_paths=20000, n_steps=128)},
    "smoke": {"fk": dict(n_paths=40000, n_steps=64, n_space=201, pde_steps=200),
              "uniqueness": dict(n_paths=4000, n_steps=16),
              "pde": dict(n_space=201, pde_steps=200),
              "policy": dict(n_paths=4000, n_steps=64)},
}

# Largest accepted LSMC band 3 (stat_err + disc_err) on fk_delta0, as a share
# of the value; the probes' shifts grow at the smoke run's smaller sizes.
BAND_CAP = {"full": 0.025, "smoke": 0.05}

_VERDICT = re.compile(r"^(\S+): (PASS|FAIL) ")


def edit_config(text: str, overrides: dict) -> str:
    """Apply ``{section: {key: value}}`` to config text.

    Existing keys are rewritten in place, missing keys are added right after
    their section header and missing sections at the end of the file.
    Comments and every other line are kept as they are.
    """
    lines = text.splitlines()
    present: dict = {}
    section = None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            present.setdefault(section, set())
        elif "=" in line:
            present.setdefault(section, set()).add(line.split("=", 1)[0].strip())
    out: list = []
    section = None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.append(raw)
            out.extend(f"{key} = {value}"
                       for key, value in overrides.get(section, {}).items()
                       if key not in present.get(section, ()))
            continue
        if "=" in line:
            key = line.split("=", 1)[0].strip()
            if key in overrides.get(section, {}):
                raw = f"{key} = {overrides[section][key]}"
        out.append(raw)
    for sec, keys in overrides.items():
        if sec not in present:
            out.extend(["", f"[{sec}]"] + [f"{k} = {v}" for k, v in keys.items()])
    return "\n".join(out) + "\n"


class Ledger:
    """Operations a round attempted: reported estimates and checks."""

    def __init__(self):
        self.items: list = []

    def op(self, name: str, ok: bool, detail: str = ""):
        self.items.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> list:
        return [(name, detail) for name, ok, detail in self.items if not ok]


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _read_csv(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float(row, key):
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return None


def _read_verdicts(path: Path) -> dict:
    """criterion -> passed, from the ``name: PASS|FAIL ...`` lines."""
    if not path.exists():
        return {}
    found = {}
    for line in path.read_text().splitlines():
        m = _VERDICT.match(line)
        if m:
            found[m.group(1)] = m.group(2) == "PASS"
    return found


def _parse(cfg_dir: Path, name: str):
    from fbsdelab.cli import parse_config
    return parse_config((cfg_dir / name).read_text(encoding="utf-8"))


def _run(config, out_dir: Path) -> int:
    from fbsdelab.cli import run
    return run(replace(config, out_dir=str(out_dir)))


class FkDelta0:
    """The shipped ``lqr_delta0`` feynman_kac run: all five routes."""

    name = "fk_delta0"

    def configs(self, root: Path, scale: str) -> dict:
        text = (root / "configs" / "lqr_delta0.cfg").read_text(encoding="utf-8")
        numerics = dict(SIZES[scale]["fk"], seed=SHIPPED_SEED, basis="polynomial:4")
        return {"fk_delta0.cfg": edit_config(text, {"numerics": numerics,
                                                   "output": {"dir": "out"}})}

    def setup(self, cfg_dir: Path):
        return _parse(cfg_dir, "fk_delta0.cfg")

    def experiment(self, config, out_dir: Path) -> int:
        return _run(config, out_dir)

    def check(self, config, rc, out_dir: Path, ledger: Ledger, scale: str):
        rows = {r.get("route"): r for r in _read_csv(out_dir / "routes.csv")}
        # girsanov duplicates direct when mu = 0; a program that reports it
        # as skipped is not wrong, so it is checked only when reported
        routes = [r for r in ALL_ROUTES if r != "girsanov" or r in rows]
        values = {}
        for route in routes:
            row = rows.get(route, {})
            v, se, de = (_float(row, k) for k in ("value", "stat_err", "disc_err"))
            ok = _finite(v, se, de)
            ledger.op(f"estimate:{route}", ok)
            values[route] = (v, se, de) if ok else None
        ric = values.get("riccati")
        ledger.op("riccati~closed_form",
                  ric is not None and abs(ric[0] - CLOSED_FORM) <= 1e-8,
                  f"{ric and ric[0]!r} vs {CLOSED_FORM!r}")
        pde = values.get("pde")
        ledger.op("pde~closed_form",
                  pde is not None and abs(pde[0] - CLOSED_FORM) <= 5e-3,
                  f"{pde and pde[0]!r} vs {CLOSED_FORM!r}")
        for route in (r for r in routes if r in LSMC_ROUTES):
            est = values.get(route)
            ok = False
            if est is not None:
                band = 3.0 * (est[1] + est[2])
                ok = abs(est[0] - CLOSED_FORM) <= band and band <= BAND_CAP[scale] * CLOSED_FORM
            ledger.op(f"{route}~closed_form", ok, f"{est!r}")
        verdicts = _read_verdicts(out_dir / "verdicts.txt")
        for a, b in itertools.combinations(routes, 2):
            ledger.op(f"agree:{a}~{b}", verdicts.get(f"agree:{a}~{b}", False))
        ledger.op("exit_code", rc == 0, f"rc={rc}")

    def reported_estimates(self, out_dir: Path) -> int:
        return len(_read_csv(out_dir / "routes.csv"))


class UniquenessBand:
    """The shipped ``lqr_uniqueness`` run: 5 seeds x 2 bases x 3 routes."""

    name = "uniqueness_band"

    def configs(self, root: Path, scale: str) -> dict:
        text = (root / "configs" / "lqr_uniqueness.cfg").read_text(encoding="utf-8")
        # run_uniqueness_check reads experiment.seeds, not numerics.seed
        return {"uniqueness.cfg": edit_config(text, {
            "numerics": dict(SIZES[scale]["uniqueness"], seed=SHIPPED_SEED),
            "experiment": {"seeds": SHIPPED_UNIQUENESS_SEEDS,
                           "bases": "polynomial:4,piecewise_linear:10"},
            "output": {"dir": "out"}})}

    def setup(self, cfg_dir: Path):
        return _parse(cfg_dir, "uniqueness.cfg")

    def experiment(self, config, out_dir: Path) -> int:
        return _run(config, out_dir)

    def check(self, config, rc, out_dir: Path, ledger: Ledger, scale: str):
        rows = {(r.get("route"), r.get("basis"), r.get("seed")): r
                for r in _read_csv(out_dir / "table.csv")}
        expected = [(route, basis.label(), str(seed)) for route in LSMC_ROUTES
                    for basis in config.bases for seed in config.seeds]
        ledger.op("table_rows", len(rows) == len(expected) == 30,
                  f"{len(rows)} rows")
        for key in expected:
            row = rows.get(key, {})
            y0, err = _float(row, "y0"), _float(row, "err")
            ok = _finite(y0, err) and abs(y0 - CLOSED_FORM) <= 3.0 * err
            ledger.op("estimate:" + "/".join(key), ok, f"y0={y0!r} err={err!r}")
        verdicts = _read_verdicts(out_dir / "verdicts.txt")
        ledger.op("single_band", verdicts.get("single_band", False))
        ledger.op("exit_code", rc == 0, f"rc={rc}")

    def reported_estimates(self, out_dir: Path) -> int:
        return len(_read_csv(out_dir / "table.csv"))


class ControlPipeline:
    """The control-problem side: condition check, PDE sweeps, policy ranking."""

    name = "control_pipeline"

    def configs(self, root: Path, scale: str) -> dict:
        shipped = root / "configs"
        cond = (shipped / "lqr_condition.cfg").read_text(encoding="utf-8")
        sweep = (shipped / "lqr_sweep.cfg").read_text(encoding="utf-8")
        deltas = ",".join(f"{d:g}" for d in SWEEP_DELTAS)
        out = {"condition.cfg": edit_config(cond, {
            "experiment": {"kappa": "logpower:0.3:1"}, "output": {"dir": "out"}})}
        for scheme in ("auto", "newton_implicit"):
            out[f"sweep_{scheme}.cfg"] = edit_config(sweep, {
                "numerics": dict(SIZES[scale]["pde"], pde_scheme=scheme),
                "experiment": {"deltas": deltas}, "output": {"dir": "out"}})
        for delta, source in zip(POLICY_DELTAS, ("lqr_delta0.cfg", "lqr_delta01.cfg")):
            text = (shipped / source).read_text(encoding="utf-8")
            out[f"policy_delta{delta:g}.cfg"] = edit_config(text, {
                "problem": {"delta": f"{delta:g}"},
                "numerics": dict(SIZES[scale]["pde"], **SIZES[scale]["policy"],
                                 seed=SHIPPED_SEED),
                "output": {"dir": "out"}})
        return out

    def setup(self, cfg_dir: Path):
        from fbsdelab.harness import ProblemSetup
        from fbsdelab.sde import TimeGrid
        state = {"condition": _parse(cfg_dir, "condition.cfg"),
                 "sweeps": {s: _parse(cfg_dir, f"sweep_{s}.cfg")
                            for s in ("auto", "newton_implicit")},
                 "policies": []}
        for delta in POLICY_DELTAS:
            cfg = _parse(cfg_dir, f"policy_delta{delta:g}.cfg")
            setup = ProblemSetup.from_control(cfg.control, label=f"delta={delta:g}")
            fwd = setup.forward
            num = cfg.numerics
            state["policies"].append(dict(
                delta=delta, setup=setup, numerics=num,
                sgrid=num.space_grid(fwd), pde_tgrid=num.pde_time_grid(fwd),
                mc_tgrid=TimeGrid(0.0, fwd.horizon, num.n_steps)))
        return state

    def experiment(self, state, out_dir: Path) -> int:
        from fbsdelab.control import ControlPolicy, compare_policies
        from fbsdelab.pde import extract_feedback, solve_pde
        rc = _run(state["condition"], out_dir / "condition")
        for scheme, config in state["sweeps"].items():
            rc |= _run(config, out_dir / f"sweep_{scheme}")
        for p in state["policies"]:
            setup, num = p["setup"], p["numerics"]
            sol = solve_pde(setup.forward, setup.driver, p["sgrid"], p["pde_tgrid"],
                            scheme=num.pde_scheme, boundary=num.boundary)
            policies = [extract_feedback(sol, setup.control), ControlPolicy.zero(),
                        ControlPolicy.constant(0.5), ControlPolicy.constant(-0.5)]
            ranking = compare_policies(setup.control, policies, p["mc_tgrid"],
                                       num.n_paths, num.seed)
            ranking.to_csv(out_dir / f"policies_delta{p['delta']:g}.csv")
        return rc

    def check(self, state, rc, out_dir: Path, ledger: Ledger, scale: str):
        report = out_dir / "condition" / "condition_report.txt"
        text = report.read_text() if report.exists() else ""
        ledger.op("condition_satisfied", "uniqueness hypothesis: holds" in text)
        tables = {}
        for scheme in state["sweeps"]:
            sub = out_dir / f"sweep_{scheme}"
            table = {}
            for row in _read_csv(sub / "table.csv"):
                d, v, e = (_float(row, k) for k in ("delta", "value", "disc_err"))
                if _finite(d, v, e):
                    table[d] = (v, e)
            for d in SWEEP_DELTAS:
                ledger.op(f"sweep_point:{scheme}:{d:g}", d in table)
            zero = table.get(0.0)
            ledger.op(f"sweep_anchor:{scheme}",
                      zero is not None and abs(zero[0] - CLOSED_FORM) <= 5e-3,
                      f"{zero!r} vs {CLOSED_FORM!r}")
            verdicts = _read_verdicts(sub / "verdicts.txt")
            ledger.op(f"sweep_verdicts:{scheme}",
                      bool(verdicts) and all(verdicts.values()), f"{verdicts}")
            tables[scheme] = table
        auto, newton = tables["auto"], tables["newton_implicit"]
        for d in SWEEP_DELTAS:
            a, b = auto.get(d), newton.get(d)
            ledger.op(f"schemes_agree:{d:g}",
                      a is not None and b is not None
                      and abs(a[0] - b[0]) <= 3.0 * (a[1] + b[1]),
                      f"{a!r} vs {b!r}")
        for p in state["policies"]:
            delta = p["delta"]
            rows = _read_csv(out_dir / f"policies_delta{delta:g}.csv")
            for row in rows:
                ledger.op(f"policy_cost:{delta:g}:{row.get('policy')}",
                          _finite(_float(row, "mean_cost"), _float(row, "stderr")))
            names = [row.get("policy") for row in rows]
            ledger.op(f"policy_count:{delta:g}", len(rows) == 4, f"{names}")
            ledger.op(f"feedback_first:{delta:g}",
                      bool(rows) and rows[0].get("policy") == "pde_feedback", f"{names}")
            for row in rows[1:]:
                diff, dse = _float(row, "paired_diff_vs_best"), _float(row, "paired_stderr_vs_best")
                ledger.op(f"paired_gap:{delta:g}:{row.get('policy')}",
                          _finite(diff, dse) and diff > 3.0 * dse, f"{diff!r} vs 3*{dse!r}")
            if delta == 0.0:
                ustar = next((r for r in rows if r.get("policy") == "pde_feedback"), {})
                mean, se = _float(ustar, "mean_cost"), _float(ustar, "stderr")
                ledger.op("feedback_cost~closed_form",
                          _finite(mean, se) and abs(mean - CLOSED_FORM) <= 3.0 * se,
                          f"J={mean!r} se={se!r} vs {CLOSED_FORM!r}")
        ledger.op("exit_code", rc == 0, f"rc={rc}")

    def reported_estimates(self, out_dir: Path) -> int:
        return sum(len(_read_csv(out_dir / f"sweep_{s}" / "table.csv"))
                   for s in ("auto", "newton_implicit"))


WORKLOADS = {w.name: w for w in (FkDelta0(), UniquenessBand(), ControlPipeline())}
