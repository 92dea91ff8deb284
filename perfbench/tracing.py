"""Per-layer spans taken from outside the package.

The traced pass rebinds, for its duration only, the module attributes
through which the package's callers reach each layer's public functions
(``expriccati.integrators.assemble_phi_sum``, ``expriccati.lowrank.compress``,
``scipy.linalg.expm`` and so on).  Each call records a span with name,
start, end and parent span; spans stay in memory and are written once at
the end.  Self times and counters are derived from the spans, and no
argument or result is touched, so the traced trajectories are bitwise
equal to untraced ones.
"""

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import SCHEMES, Result, final_arrays, rel_error, run_pass, warm_up


def _expm_attrs(args, result):
    return {"n": int(np.shape(args[0])[0])}


def _compress_attrs(args, result):
    return {"cols_in": int(np.shape(args[0])[1]), "cols_out": int(result[0].shape[1])}


def _basis_attrs(args, result):
    return {"cols": int(result.size), "dim": int(result.dim)}


# (module, attribute path its callers look up, span name, attribute
# recorder).  A path the package no longer has is skipped, so the trace
# keeps working across refactors and reports the route as unused.
HOOKS = (
    ("expriccati.integrators", "linearize", "sylvop.linearize", None),
    ("expriccati.integrators", "phi1_action_augmented", "sylvop.phi1_action_augmented", None),
    ("expriccati.integrators", "phi_action_augmented", "sylvop.phi_action_augmented", None),
    ("expriccati.sylvop", "SylvesterOperator.exp_action", "sylvop.SylvesterOperator.exp_action", None),
    ("expriccati.integrators", "phi_action_quadrature", "phifun.phi_action_quadrature", None),
    ("expriccati.integrators", "solve_sylvester", "densecore.solve_sylvester", None),
    ("expriccati.integrators", "expm_actions", "densecore.expm_actions", None),
    ("expriccati.krylov", "expm_actions", "densecore.expm_actions", None),
    ("scipy.linalg", "expm", "densecore.expm", _expm_attrs),
    ("expriccati.lowrank", "compress", "densecore.compress", _compress_attrs),
    ("expriccati.integrators", "build_basis", "krylov.build_basis", _basis_attrs),
    ("expriccati.integrators", "exp_actions_krylov", "krylov.exp_actions_krylov", None),
    ("expriccati.integrators", "assemble_rhs", "lowrank.assemble_rhs", None),
    ("expriccati.integrators", "assemble_phi_sum", "lowrank.assemble_phi_sum", None),
    ("expriccati.integrators", "assemble_remainder_diff", "lowrank.assemble_remainder_diff", None),
    ("expriccati.integrators", "concat_update", "lowrank.concat_update", None),
)


def _resolve(module, path):
    """(owner, attribute name) for a hook, or None when the path is gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return (owner, attr) if hasattr(owner, attr) else None


# Sizes of the full exponentials the three workloads request: n and the
# augmented 2n (GExpEuler, reference) and n + 3n (Erow3Dense at n = 64).
EXPM_SIZES = (64, 100, 128, 200, 256, 400, 800)

TIMED = (
    "sylvop.linearize", "sylvop.phi1_action_augmented", "sylvop.phi_action_augmented",
    "sylvop.SylvesterOperator.exp_action", "phifun.phi_action_quadrature",
    "densecore.solve_sylvester", "densecore.expm_actions", "densecore.expm",
    "densecore.compress",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return traced

    @contextmanager
    def hooked(self):
        """Rebind every hook to its traced wrapper; restore on exit."""
        saved = []
        try:
            for module, path, name, attrs in HOOKS:
                target = _resolve(module, path)
                if target is None:
                    continue
                owner, attr = target
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, saved[-1][2], attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))


def span_totals(spans):
    """Inclusive time, self time and call count per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
    return inclusive, own, calls


def layer_metrics(spans, runs):
    """Per-layer metrics of one traced pass plus its reference solve."""
    inclusive, own, calls = span_totals(spans)
    m = {}
    for name in TIMED:
        m[f"{name}.s"] = (inclusive[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")

    solve = {run.scheme: run.seconds for run in runs}
    for scheme in SCHEMES:
        m[f"integrators.{scheme}.solve_s"] = (solve.get(scheme, 0.0), "s")
    diagnostics = [d for run in runs for d in run.trajectory.diagnostics]
    step_s = sum(d.wall_time for d in diagnostics)
    m["integrators.step_s"] = (step_s, "s")
    m["integrators.driver_s"] = (sum(solve.values()) - step_s, "s")
    m["integrators.steps"] = (len(diagnostics), "count")

    # An expm_actions call is a fallback when a full exponential ran inside it.
    fallbacks = {
        parent for name, _, _, parent, _ in spans
        if name == "densecore.expm" and parent is not None
        and spans[parent][0] == "densecore.expm_actions"
    }
    actions = calls["densecore.expm_actions"]
    m["densecore.expm_actions.fallback_calls"] = (len(fallbacks), "count")
    m["densecore.expm_actions.chain_calls"] = (actions - len(fallbacks), "count")
    m["densecore.expm_actions.chain_ratio"] = (
        (actions - len(fallbacks)) / actions if actions else 0.0, "ratio"
    )
    sizes = Counter(a["n"] for name, _, _, _, a in spans if name == "densecore.expm")
    for n in EXPM_SIZES:
        m[f"densecore.expm.calls.n{n}"] = (sizes.pop(n, 0), "count")
    m["densecore.expm.calls.other"] = (sum(sizes.values()), "count")

    compressions = [a for name, _, _, _, a in spans if name == "densecore.compress"]
    cols_in = sum(a["cols_in"] for a in compressions)
    cols_out = sum(a["cols_out"] for a in compressions)
    m["densecore.compress.cols_in"] = (cols_in, "count")
    m["densecore.compress.cols_out"] = (cols_out, "count")
    m["densecore.compress.keep_ratio"] = (cols_out / cols_in if cols_in else 0.0, "ratio")

    # A basis is clamped when it spans the whole space: no reduction.
    bases = [a for name, _, _, _, a in spans if name == "krylov.build_basis"]
    clamped = sum(1 for a in bases if a["cols"] >= a["dim"])
    residuals = [d.krylov_residual for d in diagnostics if d.krylov_residual is not None]
    m["krylov.build_basis.s"] = (inclusive["krylov.build_basis"], "s")
    m["krylov.bases_built"] = (len(bases), "count")
    m["krylov.bases_clamped"] = (clamped, "count")
    m["krylov.real_basis_ratio"] = ((len(bases) - clamped) / len(bases) if bases else 0.0, "ratio")
    m["krylov.basis_cols_mean"] = (
        sum(a["cols"] for a in bases) / len(bases) if bases else 0.0, "count"
    )
    m["krylov.exp_actions_krylov.s"] = (inclusive["krylov.exp_actions_krylov"], "s")
    m["krylov.residual_max"] = (max(residuals, default=0.0), "norm")

    ranks = [d.rank for d in diagnostics if d.rank is not None]
    finals = [run.trajectory.final.rank for run in runs if run.error is None
              and run.scheme in ("LrExpEuler", "Erow3LowRank")]
    m["lowrank.assemble_rhs.s"] = (inclusive["lowrank.assemble_rhs"], "s")
    m["lowrank.assemble_phi_sum.self_s"] = (own["lowrank.assemble_phi_sum"], "s")
    m["lowrank.assemble_remainder_diff.s"] = (inclusive["lowrank.assemble_remainder_diff"], "s")
    m["lowrank.concat_update.self_s"] = (own["lowrank.concat_update"], "s")
    m["lowrank.rank_max"] = (max(ranks, default=0), "count")
    m["lowrank.rank_final"] = (max(finals, default=0), "count")
    m["lowrank.dropped_total"] = (sum(d.dropped or 0 for d in diagnostics), "count")

    m["oracle.radon_solve.s"] = (inclusive["oracle.radon_solve"], "s")
    return m


def measure_traced(workload, seed, trace_path=None, t_end=None):
    """Per-layer metrics from one traced pass between two untraced ones.

    A traced trajectory fails when it misses the workload's accuracy gate
    or its final state differs in any bit from the untraced pass.
    """
    problem = workload.problem(seed)
    warm_up(problem, workload)
    untraced = run_pass(problem, workload, t_end)
    tracer = Tracer()
    with tracer.hooked():
        traced = run_pass(problem, workload, t_end)
        reference = tracer.wrap("oracle.radon_solve", workload.reference)(problem, t_end)
    # A second untraced pass after the traced one halves the drift of the
    # machine in trace.overhead_s.
    untraced_s = sum(r.seconds for r in untraced + run_pass(problem, workload, t_end)) / 2
    if trace_path is not None:
        tracer.write(trace_path)

    same = [
        a.error is None and b.error is None
        and all(np.array_equal(x, y) for x, y in zip(final_arrays(a), final_arrays(b)))
        for a, b in zip(untraced, traced)
    ]
    ok = [s and rel_error(b, reference) <= workload.gate for s, b in zip(same, traced)]
    metrics = layer_metrics(tracer.spans, traced)
    metrics["trace.overhead_s"] = (sum(r.seconds for r in traced) - untraced_s, "s")
    note = (
        f"{workload.name} seed {seed}: traced pass, {len(tracer.spans)} spans, "
        f"{same.count(False)} final states differ from the untraced pass, "
        f"{ok.count(False)}/{len(ok)} failed (gate {workload.gate:g})"
    )
    return Result(
        attempted=len(ok),
        failed=ok.count(False),
        metrics=metrics,
        note=note,
        correct=all(ok),
        mismatched=same.count(False),
        runs=traced,
    )
