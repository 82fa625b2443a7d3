"""Time-to-verdict benchmark for fbsdelab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale full|smoke]

Run from anywhere; paths resolve from this file.  The run writes the
workload's configs from the shipped ones (the program's inputs are the same
for every ``--seed``; ``bench/workloads.py`` says why), then starts fresh
worker processes (``bench/worker.py``) one after another:

* one warm-up set-up (byte-compiles the package; not counted);
* whole rounds of the workload until ``--seconds`` have passed (at least
  one), each in its own process, under the outside-in tracer with
  ``--trace 1``;
* with ``--trace 0``, ``SETUP_SAMPLES`` set-up-only processes, half before
  the rounds and half after them, each timed from process start to the
  experiment call.

Every round's outputs are checked (``bench/workloads.py``), and every round
after the first must write byte-identical artifacts; with ``--trace 1``,
every count and ratio metric must also repeat exactly.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of ``BENCHMARK.json`` for ``--trace 0``
and its per-layer metrics for ``--trace 1``, each the median over the
rounds.
The exit code is 0 when a result was printed, 2 when the tree or the
arguments are unusable and 3 when a worker died or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402

BLAS_THREADS = 1          # fixed at launch; at most nproc
SETUP_SAMPLES = 4         # half before the rounds, half after
RUN_LIMIT_S = 170.0       # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(name: str, scale: str, cfg_dir: Path, round_dir: Path, deadline: float,
           trace: int = 0, setup_only: bool = False) -> dict:
    """Run one worker process to its end and return its result."""
    round_dir.mkdir(parents=True)
    result = round_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--config-dir", str(cfg_dir), "--out-dir", str(round_dir / "artifacts"),
           "--result", str(result), "--scale", scale, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    log_path = round_dir / "worker.log"
    with open(log_path, "w") as log:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--launched", repr(launched)], stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{round_dir.name} ran past the run's time limit")
        finally:   # also on SIGTERM (see main): never leave a worker behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not result.exists():
        raise BenchError(f"{round_dir.name} exited with {rc}; see {log_path}")
    out = json.loads(result.read_text())
    src = str(ROOT / "src" / "fbsdelab")
    if os.path.realpath(out["fbsdelab"]) != os.path.realpath(src):
        raise BenchError(f"worker imported fbsdelab from {out['fbsdelab']}, not {src}")
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: int, scale: str,
            exact: frozenset) -> dict:
    """One run; ``exact`` names the per-layer metrics that must repeat across rounds."""
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-{scale}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True)
    for fname, text in workload.configs(ROOT, scale).items():
        (cfg_dir / fname).write_text(text, encoding="utf-8")

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    launch(name, scale, cfg_dir, run_dir / "warmup", deadline, setup_only=True)

    def sample_setups(first: int, last: int) -> list:
        return [] if trace else [
            launch(name, scale, cfg_dir, run_dir / f"setup-{i}", deadline,
                   setup_only=True)["setup_s"] for i in range(first, last)]

    setups = sample_setups(0, SETUP_SAMPLES // 2)
    rounds: list = []
    longest = 0.0
    while not rounds or time.perf_counter() - start < seconds:
        if rounds and time.perf_counter() + 1.2 * longest > deadline:
            break
        t0 = time.perf_counter()
        rounds.append(launch(name, scale, cfg_dir, run_dir / f"round-{len(rounds)}",
                             deadline, trace=trace))
        longest = max(longest, time.perf_counter() - t0)
    setups += sample_setups(SETUP_SAMPLES // 2, SETUP_SAMPLES)

    failures = [f"round {i}: {op}: {detail}"
                for i, r in enumerate(rounds) for op, detail in r["failed"]]
    failures += [f"round {i}: {r['error']}" for i, r in enumerate(rounds) if r["error"]]
    # every later round must reproduce the first round's bytes
    differ = [i for i, r in enumerate(rounds) if r["digest"] != rounds[0]["digest"]]
    failures += [f"round {i}: artifacts differ from round 0" for i in differ]
    attempted = sum(r["attempted"] for r in rounds) + len(rounds) - 1
    failed = sum(len(r["failed"]) for r in rounds) + len(differ)

    if trace:
        # counts and ratios must repeat exactly; each later round is one check each
        attempted += len(exact) * (len(rounds) - 1)
        for k in sorted(exact):
            seen = [r["layers"][k] for r in rounds]
            off = [i for i, v in enumerate(seen) if v != seen[0]]
            failures += [f"round {i}: {k} = {seen[i]}, round 0 had {seen[0]}" for i in off]
            failed += len(off)
        values = {k: statistics.median_low(r["layers"][k] for r in rounds)
                  for k in rounds[0]["layers"]}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    return {"rounds": len(rounds), "digest": rounds[0]["digest"],
            "correct": not failures, "attempted": attempted, "failed": failed,
            "failures": failures, "values": values,
            "elapsed_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fbsdelab time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=sorted(SIZES),
                        help="'smoke' runs reduced sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    missing = [p for p in (ROOT / "src" / "fbsdelab" / "__init__.py", ROOT / "configs",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"error: not an fbsdelab checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace, args.scale,
                      frozenset(m["name"] for m in wanted if m["unit"] in ("count", "ratio")))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    values = res["values"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json names "
              f"{sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 2
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} "
          f"rounds={res['rounds']} blas_threads={min(BLAS_THREADS, os.cpu_count() or 1)} "
          f"nproc={os.cpu_count()} elapsed_s={res['elapsed_s']:.1f}")
    print(f"# artifacts sha256={res['digest']}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
