"""Command-line experiment harness.

Subcommands produce CSV: ``table`` (one row per problem/scheme/step-size
cell with final relative error, wall time and final rank), ``trajectory``
(F-norm history of one run against the reference) and ``order``
(convergence study with fitted slopes).  ``show-config`` prints the
resolved configuration.  Exit codes: 0 success, 2 usage error, 1
numerical failure.

Configuration comes from an optional flat key=value file plus flag
overrides, so a run is reproducible from a single small text file:

    problem = fdm-sym:k=8
    schemes = GExpEuler,Erow3Dense
    h = 0.01
    t_end = 1.0
    seed = 20240
"""

import argparse
import sys
import time
from dataclasses import dataclass, field, fields, replace

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
from .integrators import SCHEMES, IntegratorConfig, integrate
from .oracle import radon_solve, radon_trajectory
from .phifun import QuadratureRule
from .problems import problem_from_spec

__all__ = ["ExperimentConfig", "run_table", "run_trajectory", "run_order_study", "main"]

TABLE_SCHEMA = "table/v1"
TRAJECTORY_SCHEMA = "trajectory/v1"
ORDER_SCHEMA = "order/v1"


@dataclass
class ExperimentConfig:
    """Everything a CLI run needs, with reproducible defaults."""

    problem: str = "fdm-sym:k=8"
    schemes: list = field(default_factory=lambda: ["GExpEuler"])
    h: list = field(default_factory=lambda: [0.01])
    t_end: float = 1.0
    nodes: int = 7
    tol: float = None
    krylov_m: int = 30
    exp_action: str = "dense"
    seed: int = 20240
    oracle_cond: float = 1e4
    repeat: int = 1
    out: str = None

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


_LIST_KEYS = {"schemes", "h"}
_FLOAT_KEYS = {"t_end", "tol", "oracle_cond"}
_INT_KEYS = {"nodes", "krylov_m", "seed", "repeat"}


def _coerce(key, raw):
    if key in _LIST_KEYS:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        return [float(s) for s in items] if key == "h" else items
    if key in _FLOAT_KEYS:
        return None if raw.lower() == "none" else float(raw)
    if key in _INT_KEYS:
        return int(raw)
    return raw


def load_config_file(path):
    """Parse a flat key=value experiment file (``#`` starts a comment)."""
    values = {}
    valid = {f.name for f in fields(ExperimentConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in valid:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, raw)
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
    problem = problem_from_spec(cfg.problem, seed=cfg.seed)
    reference = radon_solve(problem, cfg.t_end, cond_max=cfg.oracle_cond)
    ref_norm = max(fro(reference), 1e-300)
    rows = []
    for scheme in sorted(cfg.schemes):
        for h in sorted(cfg.h):
            traj, seconds = _timed(
                lambda s=scheme, hh=h: integrate(problem, cfg.integrator_config(s, hh)),
                cfg.repeat,
            )
            err = fro(traj.final_dense() - reference) / ref_norm
            rank = traj.diagnostics[-1].rank if traj.diagnostics else None
            rows.append([cfg.problem, scheme, _fmt(h), _fmt(err), _fmt(rank), _fmt(seconds)])
    header = ["problem", "scheme", "h", "rel_error", "final_rank", "wall_time_s"]
    return [f"# schema {TABLE_SCHEMA}", ",".join(header)] + [",".join(r) for r in rows]


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
        rank = None
        if idx > 0 and traj.diagnostics:
            rank = traj.diagnostics[min(idx, len(traj.diagnostics)) - 1].rank
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
    return [f"# schema {TRAJECTORY_SCHEMA}", ",".join(header)] + [",".join(r) for r in rows]


def run_order_study(cfg):
    """Convergence study over a geometric ladder of step sizes."""
    _validate(cfg)
    if len(cfg.h) < 3:
        raise UsageError("order studies need at least three step sizes")
    hs = sorted(cfg.h, reverse=True)
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(abs(r - ratios[0]) > 1e-12 * ratios[0] for r in ratios):
        raise UsageError("step sizes must form a geometric progression")
    problem = problem_from_spec(cfg.problem, seed=cfg.seed)
    reference = radon_solve(problem, cfg.t_end, cond_max=cfg.oracle_cond)
    ref_norm = max(fro(reference), 1e-300)
    rows = []
    for scheme in sorted(cfg.schemes):
        errors = []
        for h in hs:
            traj = integrate(problem, cfg.integrator_config(scheme, h))
            errors.append(fro(traj.final_dense() - reference) / ref_norm)
        slope = float(np.polyfit(np.log(hs), np.log(np.maximum(errors, 1e-300)), 1)[0])
        for h, err in zip(hs, errors):
            rows.append([cfg.problem, scheme, _fmt(h), _fmt(err), _fmt(slope)])
    header = ["problem", "scheme", "h", "rel_error", "fitted_slope"]
    return [f"# schema {ORDER_SCHEMA}", ",".join(header)] + [",".join(r) for r in rows]


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
        p.add_argument("--problem", help="problem spec, e.g. fdm-sym:k=8 or tanh")
        p.add_argument("--scheme", action="append", dest="schemes", metavar="NAME",
                       help="scheme name (repeatable or comma-separated)")
        p.add_argument("--h", action="append", dest="h", metavar="H",
                       help="step size (repeatable or comma-separated)")
        p.add_argument("--t-end", type=float, dest="t_end")
        p.add_argument("--nodes", type=int, help="quadrature node count")
        p.add_argument("--tol", type=float, help="compression tolerance")
        p.add_argument("--krylov-m", type=int, dest="krylov_m")
        p.add_argument("--exp-action", choices=("dense", "krylov"), dest="exp_action")
        p.add_argument("--seed", type=int)
        p.add_argument("--oracle-cond", type=float, dest="oracle_cond")
        p.add_argument("--repeat", type=int, help="timing repetitions (median reported)")
        p.add_argument("--out", help="output directory (default: stdout)")
    return parser


def _config_from_args(args):
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in ("problem", "t_end", "nodes", "tol", "krylov_m", "exp_action",
                "seed", "oracle_cond", "repeat", "out"):
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    if args.schemes:
        values["schemes"] = [s for part in args.schemes for s in part.split(",") if s]
    if args.h:
        try:
            values["h"] = [float(s) for part in args.h for s in part.split(",") if s]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return replace(ExperimentConfig(), **values)


def _emit(lines, cfg, filename):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        import os

        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def main(argv=None):
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
