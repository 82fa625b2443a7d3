"""One round of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --config-dir DIR --out-dir DIR
        --result FILE --launched T [--scale full|smoke] [--trace 0|1]
        [--setup-only]

``--launched`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is system-wide, so ``setup_s``
runs from process start through ``import fbsdelab``, config parsing and
problem construction to the experiment call.  The experiment's wall time
runs from that call to its verdict.  The result, with the checks' ledger,
goes to ``--result`` as JSON; the program's own stdout is left as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every artifact the round wrote, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config-dir", required=True, type=Path)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--launched", required=True, type=float)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        print("trace: patched " + ", ".join(tracer.install()), file=sys.stderr)
    import fbsdelab
    from workloads import WORKLOADS, Ledger
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.config_dir)
    t_call = time.perf_counter()
    result = {"setup_s": t_call - args.launched,
              "fbsdelab": os.path.dirname(fbsdelab.__file__)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    args.out_dir.mkdir(parents=True)
    error = None
    try:
        rc = workload.experiment(state, args.out_dir)
    except Exception:   # the round's checks then fail; the run reports it
        rc = None
        error = traceback.format_exc()
    t_verdict = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ledger = Ledger()
    workload.check(state, rc, args.out_dir, ledger, args.scale)
    result.update({
        "wall_s": t_verdict - t_call,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error": error,
        "digest": artifact_digest(args.out_dir),
    })
    if tracer is not None:
        from tracer import layer_metrics, wrapper_cost
        result["layers"] = layer_metrics(
            tracer.spans, t_call, t_verdict,
            workload.reported_estimates(args.out_dir), wrapper_cost())
        tracer.write(args.result.with_name("spans.json"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
