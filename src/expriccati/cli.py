"""Command-line experiment harness.

Subcommands produce CSV: ``table`` (one row per problem/scheme/step-size
cell with final relative error, wall time and final rank), ``trajectory``
(F-norm history of one run against the reference) and ``order``
(convergence study with fitted slopes).  ``show-config`` prints the
resolved configuration in the config-file format.  Exit codes: 0
success, 2 usage error, 1 numerical failure.

Configuration comes from an optional flat key=value file plus flag
overrides, so a run is reproducible from a single small text file:

    problem = fdm-sym:k=8
    schemes = GExpEuler,Erow3Dense
    h = 0.01
    t_end = 1.0
    seed = 20240
"""

import argparse
import csv
import ctypes
import glob
import importlib.util
import io
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import wraps

import numpy as np

from .densecore import fro
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FiniteEscapeError,
    IntegrationError,
    MatrixFormatError,
    SolvabilityError,
    UsageError,
)
from .integrators import (
    EXP_ACTIONS, GAUSS_NODES, SCHEMES, IntegratorConfig, QuadratureRule, integrate,
)
from .oracle import radon_solve, radon_trajectory
from .problems import problem_from_spec

__all__ = ["ExperimentConfig", "run_table", "run_trajectory", "run_order_study", "main"]

TABLE_SCHEMA = "table/v1"
TRAJECTORY_SCHEMA = "trajectory/v1"
ORDER_SCHEMA = "order/v1"


def _optional(parse):
    """``parse``, except that "none" (any case) reads as None."""

    @wraps(parse)  # argparse names the parser in its error message
    def optional(raw):
        return None if raw.strip().lower() == "none" else parse(raw)

    return optional


def _listed(parse):
    """Comma-separated items, each read by ``parse``; blank items dropped."""

    @wraps(parse)
    def listed(raw):
        return [parse(s.strip()) for s in raw.split(",") if s.strip()]

    return listed


def _setting(default, parse, flag=None, **argparse_kwargs):
    """A CLI setting: its default, the parser of its text (the same for the
    config file and the flag), its flag (``--name`` unless given) and the
    flag's other ``add_argument`` keywords."""
    metadata = {"parse": parse, "flag": flag, "argparse": argparse_kwargs}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Everything a CLI run needs, with reproducible defaults.

    Each field is one setting of the config file and of the flags.
    """

    problem: str = _setting("fdm-sym:k=8", str, help="problem spec, e.g. fdm-sym:k=8 or tanh")
    schemes: list = _setting(["GExpEuler"], _listed(str), flag="--scheme", metavar="NAME",
                             help="scheme name (repeatable or comma-separated)")
    h: list = _setting([0.01], _listed(float), metavar="H",
                       help="step size (repeatable or comma-separated)")
    t_end: float = _setting(1.0, float)
    nodes: int = _setting(GAUSS_NODES, int, help="quadrature node count")
    tol: float = _setting(None, _optional(float), help="compression tolerance")
    krylov_m: int = _setting(IntegratorConfig.krylov_m, int)
    exp_action: str = _setting(IntegratorConfig.exp_action, str, choices=EXP_ACTIONS)
    seed: int = _setting(20240, int)
    oracle_cond: float = _setting(
        1e4, float, help="bound on the condition estimate of every LU in the reference (>= 1)"
    )
    repeat: int = _setting(1, int, help="timing repetitions (median reported)")
    out: str = _setting(None, _optional(str), help="output directory (default: stdout)")

    def integrator_config(self, scheme, h):
        return IntegratorConfig(
            scheme=scheme,
            h=h,
            t_end=self.t_end,
            rule=QuadratureRule.gauss_legendre(self.nodes),
            compression_tol=self.tol,
            krylov_m=self.krylov_m,
            exp_action=self.exp_action,
        )


def load_config_file(path):
    """Parse a flat key=value experiment file (``#`` starts a comment)."""
    values = {}
    parsers = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in parsers:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = parsers[key](raw)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def _validate(cfg):
    if not cfg.schemes:
        raise UsageError("at least one scheme is required")
    if not cfg.h:
        raise UsageError("at least one step size is required")
    unknown = [s for s in cfg.schemes if s not in SCHEMES]
    if unknown:
        raise UsageError(
            f"unknown scheme(s) {', '.join(unknown)}; valid: {', '.join(SCHEMES)}"
        )
    if cfg.repeat < 1:
        raise UsageError("repeat must be >= 1")


def _timed(fn, repeat):
    """Run ``fn`` ``repeat`` times; return (last result, median seconds)."""
    laps = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        laps.append(time.perf_counter() - start)
    return result, float(np.median(laps))


def _csv_lines(schema, header, rows):
    """Schema comment, header and rows as CSV lines.  A field with a comma,
    such as the problem spec fdm-sym:k=3,rank=3, is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + rows)
    return [f"# schema {schema}"] + out.getvalue().split("\n")[:-1]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def run_table(cfg):
    """Error/cost table: one CSV row per (problem, scheme, h) cell.

    Relative F-norm error at the final time is measured against the
    linearized-flow reference; rows are sorted, and identical inputs
    reproduce identical bytes except for the wall-time column.
    """
    _validate(cfg)
    # Built, and so validated, before the reference is solved.
    cells = [(s, h) for s in sorted(cfg.schemes) for h in sorted(cfg.h)]
    configs = [cfg.integrator_config(s, h) for s, h in cells]
    problem = problem_from_spec(cfg.problem, seed=cfg.seed)
    reference = radon_solve(problem, cfg.t_end, cond_max=cfg.oracle_cond)
    ref_norm = max(fro(reference), 1e-300)
    rows = []
    for (scheme, h), config in zip(cells, configs):
        traj, seconds = _timed(lambda c=config: integrate(problem, c), cfg.repeat)
        err = fro(traj.final_dense() - reference) / ref_norm
        rank = traj.diagnostics[-1].rank if traj.diagnostics else None
        rows.append([cfg.problem, scheme, _fmt(h), _fmt(err), _fmt(rank), _fmt(seconds)])
    header = ["problem", "scheme", "h", "rel_error", "final_rank", "wall_time_s"]
    return _csv_lines(TABLE_SCHEMA, header, rows)


def run_trajectory(cfg):
    """F-norm history of a single run against the reference."""
    _validate(cfg)
    if len(cfg.schemes) != 1 or len(cfg.h) != 1:
        raise UsageError("trajectory runs need exactly one scheme and one step size")
    problem = problem_from_spec(cfg.problem, seed=cfg.seed)
    traj = integrate(problem, cfg.integrator_config(cfg.schemes[0], cfg.h[0]))
    refs = radon_trajectory(problem, traj.times, cond_max=cfg.oracle_cond)
    rows = []
    for idx, (t, ref) in enumerate(zip(traj.times, refs)):
        state = traj.dense_state(idx)
        ref_norm = max(fro(ref), 1e-300)
        rank = traj.diagnostics[idx - 1].rank if idx > 0 else None
        rows.append(
            [
                _fmt(float(t)),
                _fmt(fro(state)),
                _fmt(fro(ref)),
                _fmt(fro(state - ref) / ref_norm),
                _fmt(rank),
            ]
        )
    header = ["t", "x_fnorm", "ref_fnorm", "rel_error", "rank"]
    return _csv_lines(TRAJECTORY_SCHEMA, header, rows)


def run_order_study(cfg):
    """Convergence study over a geometric ladder of distinct step sizes."""
    _validate(cfg)
    if len(cfg.h) < 3:
        raise UsageError("order studies need at least three step sizes")
    hs = sorted(cfg.h, reverse=True)
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    # Equal step sizes (ratio 1) would leave the slope fit without a spread.
    if not ratios[0] > 1.0 or any(abs(r - ratios[0]) > 1e-12 * ratios[0] for r in ratios):
        raise UsageError("step sizes must form a geometric progression of distinct values")
    ladders = {s: [cfg.integrator_config(s, h) for h in hs] for s in sorted(cfg.schemes)}
    problem = problem_from_spec(cfg.problem, seed=cfg.seed)
    reference = radon_solve(problem, cfg.t_end, cond_max=cfg.oracle_cond)
    ref_norm = max(fro(reference), 1e-300)
    rows = []
    for scheme, configs in ladders.items():
        errors = [fro(integrate(problem, c).final_dense() - reference) / ref_norm for c in configs]
        slope = float(np.polyfit(np.log(hs), np.log(np.maximum(errors, 1e-300)), 1)[0])
        for h, err in zip(hs, errors):
            rows.append([cfg.problem, scheme, _fmt(h), _fmt(err), _fmt(slope)])
    header = ["problem", "scheme", "h", "rel_error", "fitted_slope"]
    return _csv_lines(ORDER_SCHEMA, header, rows)


def show_config(cfg):
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return lines


_COMMANDS = {
    "table": (run_table, "table.csv"),
    "trajectory": (run_trajectory, "trajectory.csv"),
    "order": (run_order_study, "order.csv"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="expriccati",
        description="Benchmark harness for exponential matrix-Riccati integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table", "error/time table over problem x scheme x step size"),
        ("trajectory", "F-norm history of a single run"),
        ("order", "convergence-order study over a step-size ladder"),
        ("show-config", "print the resolved configuration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value experiment file")
        for f in fields(ExperimentConfig):
            meta = f.metadata
            p.add_argument(meta["flag"] or "--" + f.name.replace("_", "-"), dest=f.name,
                           type=meta["parse"], action="extend" if f.type is list else "store",
                           **meta["argparse"])
    return parser


def _config_from_args(args):
    values = load_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return replace(ExperimentConfig(), **values)


def _emit(lines, cfg, filename):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


# The thread setter of the OpenBLAS that NumPy and SciPy each bundle in
# ``<package>.libs``: two pools.  On 2 cores their default two threads
# made a 1000-step n = 400 run take 54 s instead of 8 s.
_OPENBLAS_POOLS = (
    ("numpy", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy_openblas_set_num_threads"),
)


def _cap_blas_threads():
    """One thread in each bundled OpenBLAS pool unless OPENBLAS_NUM_THREADS is set.

    A build without the library or its setter is left as it is.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for package, setter in _OPENBLAS_POOLS:
        spec = importlib.util.find_spec(package)
        root = os.path.dirname(os.path.dirname(spec.origin))
        for path in glob.glob(os.path.join(root, f"{package}.libs", "*openblas*")):
            try:
                set_threads = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv=None):
    _cap_blas_threads()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "show-config":
            _emit(show_config(cfg), replace(cfg, out=None), "")
            return 0
        runner, filename = _COMMANDS[args.command]
        _emit(runner(cfg), cfg, filename)
        return 0
    except (UsageError, ConfigurationError, MatrixFormatError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, SolvabilityError, FiniteEscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
