"""Outside-in span tracer for fbsdelab's public functions.

The tracer replaces each public function named in ``TARGETS`` by a wrapper
that records one span per call: name, start, end, parent span and the work
the call did.  It patches every name under which a function is reachable in
the ``fbsdelab`` modules, because the modules import each other's functions
by name (``harness`` calls its own ``simulate`` and ``solve_lsmc``, ``bsde``
and ``pde`` call their own ``eval_driver``).  ``Expr.__call__`` is patched
on the class.  Nothing under ``src/`` changes; spans stay in memory until
``write`` is called.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Summed over every span inside a
window, self times plus the time no span covers equal the window.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

# (module, function, time metric that takes the span's self time)
TARGETS = (
    ("sde", "brownian_increments", "sde.noise_s"),
    ("sde", "simulate", "sde.march_s"),
    ("sde", "controlled_simulate", "sde.march_s"),
    ("bsde", "solve_lsmc", "bsde.solve_s"),
    ("bsde", "solve_transformed", "bsde.solve_s"),
    ("bsde", "solve_girsanov", "bsde.solve_s"),
    ("bsde", "martingale_residual", "bsde.residual_s"),
    ("problem", "eval_driver", "problem.eval_driver_s"),
    ("problem", "check_driver_assumptions", "problem.condition_s"),
    ("expressions", "Expr.__call__", "expressions.eval_s"),
    ("pde", "solve_pde", "pde.march_s"),
    ("control", "solve_riccati", "control.riccati_s"),
    ("control", "compare_policies", "control.policy_cost_s"),
    ("control", "estimate_cost", "control.policy_cost_s"),
    ("harness", "run_feynman_kac_check", "harness.self_s"),
    ("harness", "run_uniqueness_check", "harness.self_s"),
    ("harness", "run_delta_sweep", "harness.self_s"),
    ("cli", "parse_config", "cli.parse_s"),
)
FINGERPRINT = "trace.fingerprint"
ENSEMBLE_SPANS = ("sde.simulate", "sde.controlled_simulate")
BSDE_SPANS = ("bsde.solve_lsmc", "bsde.solve_transformed", "bsde.solve_girsanov")

TIME_METRICS = sorted({metric for _, _, metric in TARGETS} - {"cli.parse_s"}) + [
    "trace.fingerprint_s"]
COUNT_METRICS = ("sde.ensembles", "bsde.solves", "bsde.solve_errors",
                 "problem.eval_driver_calls",
                 "expressions.evals", "pde.solves", "pde.newton_steps",
                 "harness.route_estimates", "trace.spans")


def _ensemble_work(args, kwargs, ens):
    return {"path_steps": ens.n_paths * ens.n_steps}


def _solve_work(args, kwargs, sol):
    return {"path_steps": sol.n_paths * sol.n_steps}


def _pde_work(args, kwargs, sol):
    return {"node_steps": sol.tgrid.n_steps * sol.sgrid.n_points,
            "newton_steps": sol.newton_steps}


def _ensemble_key(ens) -> str:
    """Content fingerprint of a path ensemble (states and increments)."""
    h = hashlib.sha256()
    for arr in (ens.states, ens.dW):
        h.update(str(arr.shape).encode())
        h.update(memoryview(arr if arr.flags.c_contiguous else arr.copy()).cast("B"))
    return h.hexdigest()


WORK = {
    "sde.simulate": _ensemble_work, "sde.controlled_simulate": _ensemble_work,
    "bsde.solve_lsmc": _solve_work, "bsde.solve_transformed": _solve_work,
    "bsde.solve_girsanov": _solve_work, "pde.solve_pde": _pde_work,
}
FINGERPRINTED = {"sde.simulate": _ensemble_key, "sde.controlled_simulate": _ensemble_key}


class Tracer:
    """Records spans ``[name, start, end, parent, work]`` in call order."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, work=None, fingerprint=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            if fingerprint is not None:
                # its own span, so the caller's self time does not absorb it
                key_span = [FINGERPRINT, clock(), 0.0, parent, None]
                spans.append(key_span)
                key_span[4] = {"key": fingerprint(result)}
                key_span[2] = clock()
            return result

        return traced

    def install(self) -> list:
        """Patch every alias of every target; returns the patched names.

        A target the package no longer has is skipped with a note on stderr,
        so its metrics read 0 instead of the trace failing.
        """
        for m in sorted({m for m, _, _ in TARGETS}):
            importlib.import_module(f"fbsdelab.{m}")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "fbsdelab" or key.startswith("fbsdelab.")]
        patched = []
        for modname, attr, _ in TARGETS:
            name = f"{modname}.{attr}"
            module = importlib.import_module(f"fbsdelab.{modname}")
            if attr == "Expr.__call__":
                cls = getattr(module, "Expr", None)
                if cls is None:
                    print(f"trace: fbsdelab.{modname}.Expr is gone", file=sys.stderr)
                    continue
                cls.__call__ = self.wrap(name, cls.__call__)
                patched.append(f"fbsdelab.{name}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: fbsdelab.{modname}.{attr} is gone", file=sys.stderr)
                continue
            wrapper = self.wrap(name, original, WORK.get(name), FINGERPRINTED.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append(f"{mod.__name__}.{key}")
        return patched

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    best = []
    for fn in (noop, wrapped):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter() - t0)
        best.append(min(runs))
    return max(0.0, (best[1] - best[0]) / calls)


def self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list, t_call: float, t_verdict: float,
                  route_estimates: int, call_cost: float) -> dict:
    """Per-layer metrics of the spans inside ``[t_call, t_verdict]``.

    ``cli.parse_s`` is taken from the spans before ``t_call``: parsing is
    set-up, not part of the experiment's wall time.  ``trace.overhead_s``
    is the time tracing added to the window: the ensemble hashing plus
    ``call_cost`` (see ``wrapper_cost``) for every wrapped call.
    """
    metric_of = {f"{m}.{a}": metric for m, a, metric in TARGETS}
    metric_of[FINGERPRINT] = "trace.fingerprint_s"
    selfs = self_times(spans)
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    out["cli.parse_s"] = 0.0
    inside = []
    for i, span in enumerate(spans):
        name, start, end, parent, _ = span
        if end <= t_call:
            if name == "cli.parse_config":
                out["cli.parse_s"] += selfs[i]
            continue
        if start >= t_call and end <= t_verdict:
            inside.append(i)
            out[metric_of[name]] += selfs[i]
    names = [spans[i][0] for i in inside]
    keys = [spans[i][4]["key"] for i in inside if spans[i][0] == FINGERPRINT]
    ensembles = sum(n in ENSEMBLE_SPANS for n in names)
    top_bsde = [i for i in inside if spans[i][0] in BSDE_SPANS
                and not (spans[i][3] >= 0 and spans[spans[i][3]][0] in BSDE_SPANS)]
    # throughputs count the solves that returned; those that raised are counted apart
    raised = [i for i in top_bsde if "raised" in (spans[i][4] or {})]
    done_bsde = [i for i in top_bsde if i not in raised]
    bsde_busy = sum(spans[i][2] - spans[i][1] for i in done_bsde)
    pde_all = [i for i in inside if spans[i][0] == "pde.solve_pde"]
    pde = [i for i in pde_all if "raised" not in (spans[i][4] or {})]
    pde_busy = sum(spans[i][2] - spans[i][1] for i in pde)
    node_steps = sum(spans[i][4]["node_steps"] for i in pde)
    inside_set = set(inside)
    covered = sum(spans[i][2] - spans[i][1] for i in inside
                  if spans[i][3] not in inside_set)
    out.update({
        "sde.ensembles": ensembles,
        "sde.distinct_ratio": len(set(keys)) / ensembles if ensembles else 0.0,
        "bsde.solves": len(top_bsde),
        "bsde.solve_errors": len(raised),
        "bsde.path_steps_per_s": (sum(spans[i][4]["path_steps"] for i in done_bsde)
                                  / bsde_busy if bsde_busy > 0 else 0.0),
        "problem.eval_driver_calls": names.count("problem.eval_driver"),
        "expressions.evals": names.count("expressions.Expr.__call__"),
        "pde.solves": len(pde_all),
        "pde.newton_steps": sum(spans[i][4]["newton_steps"] for i in pde),
        "pde.node_steps_per_s": node_steps / pde_busy if pde_busy > 0 else 0.0,
        "harness.route_estimates": route_estimates,
        "trace.spans": len(inside),
        "trace.wall_s": t_verdict - t_call,
        "trace.untraced_s": (t_verdict - t_call) - covered,
    })
    calls = len(inside) - len(keys)
    out["trace.overhead_s"] = out["trace.fingerprint_s"] + calls * call_cost
    return out
