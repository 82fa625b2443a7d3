"""Steadiness check: repeat each workload and compare spreads with the bounds.

    python3 bench/steady.py

For every workload of ``BENCHMARK.json`` it runs ``bench/run.py`` for
``run_seconds`` once per seed 1..10 with tracing off, once more on seed 1
(whose artifacts must be byte-identical to the first run's), and twice with
tracing on.  It prints, for every metric, the median and quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median against
the metric's bound in ``BENCHMARK.json``, ``setup_s`` included.  Counts must repeat exactly: the share of failed
operations across the untraced runs and every count metric across the
traced runs.  Raw results go to ``.bench_out/steady/<workload>.json``.
The exit code is 1 when a run failed, a check failed, a count differed or
a spread exceeded its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next((l.split("sha256=")[1] for l in lines if "sha256=" in l), None)
    result["stderr"] = proc.stderr
    return result


def report(workload: str, spec: dict, plain: list, again: dict, traced: list) -> list:
    """Print the spread table; return the problems found."""
    problems = []
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n== {workload}: {len(plain)} untraced runs, {len(traced)} traced runs")
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in plain]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        mark = "" if spread <= bound / 3 else (" (above bound/3)" if spread <= bound
                                                 else " (ABOVE BOUND)")
        if spread > bound:
            problems.append(f"{workload}: {name} spread {spread:.3f} > bound {bound}")
        print(f"{name:28s} {plain[0]['metrics'][name]['unit']:6s} {med:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {spread:8.4f} {bound:6.2f}{mark}")
    shares = {r["failed"] / r["attempted"] for r in plain + [again]}
    print(f"attempted per run: {sorted({r['attempted'] for r in plain + [again]})}; "
          f"failed share: {sorted(shares)}")
    if len(shares) != 1:
        problems.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
    for r in plain + [again] + traced:
        if not r["correct"]:
            problems.append(f"{workload}: a run was not correct:\n{r['stderr']}")
    if traced:
        print(f"{'per-layer metric':28s} {'unit':6s} {'median':>12s} {'min':>12s} {'max':>12s}")
        for m in spec["per_layer"]:
            vals = [r["metrics"][m["name"]]["value"] for r in traced]
            print(f"{m['name']:28s} {m['unit']:6s} {statistics.median(vals):12.4f} "
                  f"{min(vals):12.4f} {max(vals):12.4f}")
            if m["unit"] in ("count", "ratio") and len(set(vals)) != 1:
                problems.append(f"{workload}: count {m['name']} differs: {vals}")
        traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
        plain_wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
        print(f"traced wall_s median {traced_wall:.4f} - untraced median {plain_wall:.4f} "
              f"= {traced_wall - plain_wall:+.4f} s (machine drift included)")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out_dir = ROOT / ".bench_out" / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run_once(workload, s, seconds, 0) for s in SEEDS]
        again = run_once(workload, SEEDS[0], seconds, 0)
        if again["digest"] != plain[0]["digest"]:
            problems.append(f"{workload}: seed {SEEDS[0]} artifacts differ between runs")
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        (out_dir / f"{workload}.json").write_text(json.dumps(
            {"seeds": SEEDS, "untraced": plain, "repeat": again, "traced": traced},
            indent=1))
        problems += report(workload, spec, plain, again, traced)
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
