"""The benchmark's workloads and their untraced, timed measurement.

Every workload goes through the public API in the order the CLI's
``table`` command uses it: ``problem_from_spec`` -> ``integrate`` per
scheme -> ``radon_solve`` at the final time.  Each trajectory is checked
against the reference with the acceptance-suite bound of its workload.
"""

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from expriccati import (
    IntegrationError,
    IntegratorConfig,
    LdlFactor,
    QuadratureRule,
    integrate,
    problem_from_spec,
    radon_solve,
)

# (least calls, least seconds) of each burst of cold problem builds and
# of reference solves.  Build bursts run before the warm-up and before
# every pass, reference bursts before every trajectory; the medians over
# the run are setup_s and reference_s.
SETUP_REPEATS = (11, 0.2)
REFERENCE_REPEATS = (2, 0.25)
# On a shared host the speed of one core drifts by up to half within
# minutes (other tenants on the same physical core or memory, clock
# frequency), and every timing drifts with it: a pure-Python loop and
# 100 x 100 products moved by 46% and 54% over 100 s together with the
# n = 100 passes.  So the benchmark times a fixed calibration loop, which
# runs no package code, after every measured call or burst of calls, and
# scales every time of a run by CALIBRATION_REF_S over the run's median
# loop time.  The loop mixes five kinds of work of about 5 ms each (Python
# arithmetic, small products, streaming over 4 MB, LAPACK calls, small
# NumPy calls); over 200 s of 1 s passes at n = 64 it cut the range of
# 20 s medians from 44% to 7%, better than any one or two kinds alone.
# Reported times are seconds at the host speed at which the loop takes
# CALIBRATION_REF_S (about its fastest time on the 2-vCPU host where the
# benchmark was defined); the raw wall-clock medians go on the note line.
CALIBRATION_REF_S = 0.023
CALIBRATION_SAMPLES = 3
_CALIBRATION_RNG = np.random.default_rng(0)
_CALIBRATION_SMALL = _CALIBRATION_RNG.standard_normal((100, 100))
_CALIBRATION_SQUARE = _CALIBRATION_RNG.standard_normal((200, 200))
_CALIBRATION_STREAM = (np.ones(500_000), np.empty(500_000))
# Timed passes per run at least, so that solve_s is a median of three.
MIN_PASSES = 3
# Length of the untimed warm-up trajectory per scheme.  The first repeat
# in a process runs about 9% slower than the next ones at n = 64.
WARMUP_STEPS = 3
# The five schemes of the source paper, fixed here so that the workloads
# do not change when the package's scheme list does.
SCHEMES = ("GExpEuler", "BrExpEuler", "LrExpEuler", "Erow3Dense", "Erow3LowRank")
# Every run must pool at least this many step samples, so that ten or
# more lie beyond the 90th percentile.
MIN_STEP_SAMPLES = 100
# Timed pass j of a run integrates the problem drawn from seed
# seed + j * INSTANCE_STRIDE.  The cost of a step depends on the draw
# (block widths after compression differ by a fifth between seeds at
# n = 400), so a run samples several problems instead of one.
INSTANCE_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    """One problem, the schemes run on it, and the accuracy each must meet.

    ``gate`` bounds the final relative Frobenius error of every trajectory
    against ``radon_solve`` (criterion 3 for the h = 0.01 fdm runs,
    criterion 8 for the n = 400 Krylov run).
    """

    name: str
    spec: str
    schemes: tuple
    h: float
    t_end: float
    gate: float
    exp_action: str = "dense"
    oracle_cond: float = 1e4

    def config(self, scheme, t_end=None):
        return IntegratorConfig(
            scheme,
            self.h,
            self.t_end if t_end is None else t_end,
            rule=QuadratureRule.gauss_legendre(7),
            krylov_m=30,
            exp_action=self.exp_action,
        )

    def problem(self, seed):
        return problem_from_spec(self.spec, seed=seed)

    def reference(self, problem, t_end=None):
        return radon_solve(
            problem, self.t_end if t_end is None else t_end, cond_max=self.oracle_cond
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 8 cut to 100 steps: t = 0.1 is the first horizon at
        # which the error meets 1e-5 (50 steps give 3.7e-5).  The only
        # workload on the Krylov path and at n >= 400.
        Workload(
            "lr-krylov-n400", "fdm-sym:k=20", ("LrExpEuler",), h=0.001, t_end=0.1,
            gate=1e-5, exp_action="krylov", oracle_cond=1e8,
        ),
        # Where the dense layers work: Sylvester solves, the quadrature
        # phi_3 path (M N > 4096) and full-expm fallbacks of expm_actions.
        Workload("all-schemes-nonsym-n100", "fdm-nonsym:k=10", SCHEMES, 0.01, 1.0, 1e-10),
        # The same layers used differently: Taylor chains, the exact
        # augmented phi_3 path, and per-call validation as a large share.
        Workload("all-schemes-sym-n64", "fdm-sym:k=8", SCHEMES, 0.01, 1.0, 1e-10),
    )
}


@dataclass
class Run:
    """One integrate call: its trajectory (partial on failure) and wall time."""

    scheme: str
    trajectory: object
    seconds: float
    error: Exception = None

    @property
    def step_times(self):
        return [d.wall_time for d in self.trajectory.diagnostics]


def run_pass(problem, workload, t_end=None, before_each=None, after_each=None):
    """Integrate every scheme of the workload once, in order.

    ``before_each`` and ``after_each``, if given, are called untimed
    before and after every scheme.
    """
    runs = []
    for scheme in workload.schemes:
        if before_each is not None:
            before_each()
        cfg = workload.config(scheme, t_end)
        started = time.perf_counter()
        try:
            trajectory = integrate(problem, cfg)
        except IntegrationError as exc:
            runs.append(Run(scheme, exc.trajectory, time.perf_counter() - started, exc))
        else:
            runs.append(Run(scheme, trajectory, time.perf_counter() - started))
        if after_each is not None:
            after_each()
    return runs


def warm_up(problem, workload):
    for scheme in workload.schemes:
        integrate(problem, workload.config(scheme, WARMUP_STEPS * workload.h))


def rel_error(run, reference):
    """Final relative Frobenius error, or inf for a failed trajectory."""
    if run.error is not None:
        return math.inf
    diff = np.linalg.norm(run.trajectory.final_dense() - reference)
    return float(diff / np.linalg.norm(reference))


def final_arrays(run):
    """The final state as arrays, for bitwise comparison."""
    state = run.trajectory.final
    return (state.L, state.core) if isinstance(state, LdlFactor) else (state,)


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """What one benchmark run prints: counts, metrics and a readable note.

    ``mismatched`` counts traced trajectories whose final state is not
    bitwise equal to the untraced one; ``runs`` holds the traced pass.
    """

    attempted: int
    failed: int
    metrics: dict
    note: str
    correct: bool = True
    mismatched: int = 0
    runs: list = None


def calibration_loop():
    """Fixed work of five kinds that runs no package code."""
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(150):
        _CALIBRATION_SMALL @ _CALIBRATION_SMALL
    source, target = _CALIBRATION_STREAM
    for _ in range(10):
        np.copyto(target, source)
        np.multiply(target, 1.0001, out=target)
    scipy.linalg.expm(0.01 * _CALIBRATION_SMALL)
    scipy.linalg.solve(_CALIBRATION_SQUARE, _CALIBRATION_SQUARE)
    np.linalg.qr(_CALIBRATION_SQUARE)
    x = np.ones(10)
    for _ in range(2000):
        x = np.add(x, 1.0)
        total += float(np.linalg.norm(x))
    return total


class HostClock:
    """Calibration loop times taken between the measured calls of a run."""

    def __init__(self):
        self.loops = []
        self.tick()

    def tick(self):
        """Time the calibration loop now (median of a few repeats)."""
        times = []
        for _ in range(CALIBRATION_SAMPLES):
            started = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - started)
        self.loops.append(statistics.median(times))

    def scale(self):
        """Factor from wall time to time at the reference host speed."""
        return CALIBRATION_REF_S / statistics.median(self.loops)


def repeat_timed(fn, min_calls, min_seconds):
    """Call ``fn`` until both limits are reached; return its last result and the call times."""
    times = []
    started = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, times


def measure(workload, seed, seconds, t_end=None):
    """Untraced end-to-end metrics of one workload.

    Timed passes repeat while less than ``seconds`` has elapsed since the
    first one started, and at least ``MIN_PASSES`` times; ``solve_s`` is
    the median of their times.  The calibration loop runs after every
    burst of problem builds or reference solves and after every
    trajectory, and every time of the run is scaled by its median loop
    time.  Each pass integrates its own problem instance.  Only each
    pass's times and errors are kept, so peak memory does not grow with
    the number of passes.
    """
    clock = HostClock()
    setup, references, ref_times, pass_seconds, samples, errors = [], [], [], [], [], []

    def burst(fn, repeats, times):
        """Last result of a burst of calls to ``fn``; its call times go to ``times``."""
        result, burst_times = repeat_timed(fn, *repeats)
        clock.tick()
        times.extend(burst_times)
        return result

    problem = burst(lambda: workload.problem(seed), SETUP_REPEATS, setup)
    warm_up(problem, workload)
    clock.tick()

    started = time.perf_counter()
    while len(pass_seconds) < MIN_PASSES or time.perf_counter() - started < seconds:
        instance = seed + len(pass_seconds) * INSTANCE_STRIDE
        problem = burst(lambda: workload.problem(instance), SETUP_REPEATS, setup)

        def time_reference():
            references.append(burst(
                lambda: workload.reference(problem, t_end), REFERENCE_REPEATS, ref_times
            ))

        runs = run_pass(problem, workload, t_end, before_each=time_reference, after_each=clock.tick)
        pass_seconds.append(sum(run.seconds for run in runs))
        samples += [t for run in runs for t in run.step_times]
        errors += [rel_error(run, reference) for run, reference in zip(runs, references)]
        references.clear()
        del runs

    scale = clock.scale()
    failed = sum(1 for err in errors if not err <= workload.gate)
    p50, p90 = np.percentile(samples, [50, 90])
    worst = max(errors)
    metrics = {
        "setup_s": (scale * statistics.median(setup), "s"),
        "solve_s": (scale * statistics.median(pass_seconds), "s"),
        "step_p50_ms": (scale * 1e3 * float(p50), "ms"),
        "step_p90_ms": (scale * 1e3 * float(p90), "ms"),
        "reference_s": (scale * statistics.median(ref_times), "s"),
        "accuracy_digits": (-math.log10(worst) if 0 < worst < math.inf else 0.0, "digits"),
        "peak_rss_mb": (max_rss_mb(), "MB"),
    }
    note = (
        f"{workload.name} seed {seed}: {len(pass_seconds)} passes "
        f"({' '.join(f'{t:.3f}' for t in pass_seconds)} s wall), {len(samples)} step samples, "
        f"worst rel_error {worst:.3e} (gate {workload.gate:g}), {failed}/{len(errors)} failed; "
        f"host scale {scale:.4f} from {len(clock.loops)} calibrations; wall medians: "
        f"setup {statistics.median(setup):.6f} s, solve {statistics.median(pass_seconds):.3f} s, "
        f"reference {statistics.median(ref_times):.5f} s"
    )
    return Result(
        attempted=len(errors),
        failed=failed,
        metrics=metrics,
        note=note,
        correct=failed == 0 and len(samples) >= MIN_STEP_SAMPLES,
    )
