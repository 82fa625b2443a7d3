"""Smoke run of the benchmark: every workload's code paths and checks, small.

    python3 -m pytest bench/test_smoke.py -q

Not part of the repository's test suite (``testpaths = ["tests"]``): it
runs ``bench/run.py --scale smoke`` for each workload, traced and
untraced, and checks the result line against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, edit_config  # noqa: E402


# time metrics of the layers each workload runs: a lost wrapper reads 0
BUSY = {
    "fk_delta0": ("sde.noise_s", "sde.march_s", "bsde.solve_s", "problem.eval_driver_s",
                  "expressions.eval_s", "pde.march_s", "control.riccati_s",
                  "harness.self_s", "cli.parse_s"),
    "uniqueness_band": ("sde.noise_s", "sde.march_s", "bsde.solve_s",
                        "problem.eval_driver_s", "expressions.eval_s", "harness.self_s",
                        "cli.parse_s"),
    "control_pipeline": ("sde.noise_s", "sde.march_s", "problem.eval_driver_s",
                         "problem.condition_s", "expressions.eval_s", "pde.march_s",
                         "control.riccati_s", "control.policy_cost_s", "harness.self_s",
                         "cli.parse_s"),
}


def bench(workload: str, trace: int, seed: int = 0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_smoke(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        # time outside every wrapped call is untraced; a wrapper that no longer
        # reaches its function leaves its layer at 0 (BUSY)
        assert 0 <= layers["trace.untraced_s"] < 0.05 * layers["trace.wall_s"]
        assert all(layers[m["name"]] >= 0 for m in wanted)
        assert [k for k in BUSY[workload] if layers[k] <= 0] == []
        assert layers["expressions.evals"] > 0 and layers["harness.route_estimates"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_unknown_seed_is_refused():
    proc = bench("fk_delta0", 0, seed=-1)
    assert proc.returncode == 2 and not proc.stdout


def test_edit_config_rewrites_and_adds_keys():
    text = "# c\n[numerics]\nn_paths = 5  # note\n\n[output]\ndir = x\n"
    out = edit_config(text, {"numerics": {"n_paths": 7, "seed": 3},
                             "experiment": {"kind": "uniqueness"}})
    assert out == ("# c\n[numerics]\nseed = 3\nn_paths = 7\n\n[output]\ndir = x\n"
                   "\n[experiment]\nkind = uniqueness\n")
