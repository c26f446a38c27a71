"""seqphoton benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client calls the library in a closed
loop: the next op starts when the previous one has returned and been
checked.  The loop stops once the timed ops add up to S seconds (at the
reference speed, below).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced ops and reports
the per-layer metrics from the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object.

Times are reported at a fixed reference machine speed.  The host the
benchmark was defined on (README.md, environment record) is shared, and
its speed drifts by +-30% within seconds.  So every op is bracketed by a
short calibration kernel that runs no seqphoton code, and its wall-clock
latency is scaled by CAL_REF_S over the mean of the two bracketing kernel
times.  The unscaled figures are printed on the summary lines.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys

# BLAS threads are pinned before numpy loads: one thread, below the core
# count, so that run-to-run timing does not depend on thread scheduling.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
TAIL_BEYOND = 10     # samples required above the reported tail percentile
# Calibration kernel time at the reference speed: its median on the machine
# the benchmark was defined on (see README.md, environment record).
CAL_REF_S = 0.010
WALL_CAP = 1.25      # the timed loop ends after WALL_CAP x S of wall time
MIN_OPS = 2 * TAIL_BEYOND + 1   # so that op_s_tail is at or above the median


class Calibration:
    """A fixed mix of the kinds of work the ops do: small complex matrix
    products and a stacked product (BLAS), a Hermitian eigensolve (LAPACK),
    small-array numpy calls and a plain Python loop (interpreter overhead),
    and passes over a 4 MB array (memory traffic).  Host contention slows
    these kinds by different factors, so the kernel mixes them.  It runs no
    seqphoton code, so no change to the library moves it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.np = np
        self.m = cplx(48, 48)
        self.stack, self.h = cplx(16, 28, 28), cplx(28, 28)
        a = cplx(96, 96)
        self.herm = a + a.conj().T
        self.v = rng.standard_normal(16)
        self.big = rng.standard_normal(500_000)
        self.samples: list[float] = []

    def _work(self) -> None:
        np, m, v = self.np, self.m, self.v
        for _ in range(100):
            m @ m
        for _ in range(10):
            self.stack @ self.h
        np.linalg.eigh(self.herm)
        for _ in range(1000):
            np.dot(v, v) + float(v[0])
        x = 0
        for i in range(30000):
            x += i * i
        for _ in range(4):
            self.big.sum()

    def __call__(self) -> float:
        self.m @ self.m           # untimed: bring the small operands into cache
        t = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """`seconds` measured between two kernel runs, at reference speed."""
        return seconds * CAL_REF_S / (0.5 * (before + after))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(config) -> str:
        try:
            return config["Build Dependencies"]["blas"]["openblas configuration"]
        except (KeyError, TypeError):
            return "unknown"

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(np.__config__.CONFIG),
            "scipy_blas": blas(scipy.__config__.CONFIG)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the maximum when the run has too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "seqphoton")):
        print(f"seqphoton sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import warnings

    import numpy as np

    import tracing
    import workloads as wl
    # fit_xi warns when a curve is not a clean exponential; random pulses
    # often give such curves and the warning carries no check.
    warnings.filterwarnings("ignore", message=r"-ln F_ph vs n")
    import_s = time.perf_counter() - T_START

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    def prepare():
        with open(os.path.join(HERE, "reference.json")) as fh:
            recorded = json.load(fh)["workloads"][workload.name]
        pool, refs, work = (recorded["pool"], recorded["reference"],
                            recorded["work"])
        # the warm-up input is the one of least recorded work, which keeps
        # set-up short and steady; it is kept out of the timed loop
        warm = min(range(len(pool)), key=lambda i: (work[i], i))
        rest = [i for i in range(len(pool)) if i != warm]
        groups = wl.strata([pool[i] for i in rest], [work[i] for i in rest],
                           workload.strata_per_group)
        schedule = wl.sequence([[rest[i] for i in g] for g in groups], args.seed)
        return pool, refs, workload.problems(), schedule, warm

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        pool, refs, problems, schedule, warm = prepare()
        prepare_s.append(time.perf_counter() - t)

    attempted = failed = 0

    def run_op(index: int):
        """Run and check one op; returns (latency, output, errors)."""
        entry = pool[index]
        t = time.perf_counter()
        try:
            out = workload.op(entry, problems)
        except Exception as exc:   # a raising op is a failed op
            return time.perf_counter() - t, None, [repr(exc)]
        latency = time.perf_counter() - t
        return latency, out, workload.check(out, refs[index])

    def record(index: int, errors: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if errors:
            failed += 1
            print(f"op on pool entry {index} failed: {'; '.join(errors)}",
                  file=sys.stderr)

    calibrate = Calibration()
    # set-up is scaled per segment, by the median of three kernel runs at
    # its end: one op's kernels are too few for a one-off interval
    cal_ready = statistics.median(calibrate() for _ in range(3))
    warmup_s, _, errors = run_op(warm)
    record(warm, errors)
    cal_prev = statistics.median(calibrate() for _ in range(3))
    setup_raw = import_s + statistics.median(prepare_s) + warmup_s
    setup_s = (Calibration.scale(setup_raw - warmup_s, cal_ready, cal_ready)
               + Calibration.scale(warmup_s, cal_ready, cal_prev))

    tracer = tracing.Tracer() if args.trace else None
    raw, latencies, results = [], [], []
    kind_time = {False: 0.0, True: 0.0}      # scaled op time, untraced/traced
    kind_ops = {False: 0, True: 0}
    t0 = time.perf_counter()
    for index in schedule:
        traced = bool(tracer) and len(latencies) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op(len(latencies))
        try:
            latency, out, errors = run_op(index)
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        cal_next = calibrate()
        raw.append(latency)
        latencies.append(Calibration.scale(latency, cal_prev, cal_next))
        cal_prev = cal_next
        kind_time[traced] += latencies[-1]
        kind_ops[traced] += 1
        record(index, errors)
        if workload.spot_check and out is not None and not errors:
            results.append((len(latencies) - 1, pool[index], out))
        # a traced run ends after a traced op; on a machine much slower
        # than the reference, wall time caps the run
        if ((sum(latencies) >= args.seconds
             or time.perf_counter() - t0 >= WALL_CAP * args.seconds)
                and len(latencies) >= MIN_OPS and (not tracer or traced)):
            break
    elapsed = time.perf_counter() - t0

    if workload.spot_check:
        op, errors = workload.spot_check(results, problems,
                                         np.random.default_rng(args.seed))
        if errors:
            failed += 1
            print(f"spot check on op {op} failed: {'; '.join(errors)}",
                  file=sys.stderr)

    env = environment()
    print("env " + json.dumps(env))
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    print(f"workload {workload.name}: seed {args.seed}, {n} timed ops over "
          f"{elapsed:.2f} s, one closed-loop client")
    print(f"op_s_tail is p{tail_pct:.1f} of {n} ops")
    print(f"failed_frac {failed / attempted:.6g} (of {attempted} ops "
          "attempted, warm-up included)")
    print(f"unscaled: op_s_p50 {statistics.median(raw):.4f} s, "
          f"op_s_tail {tail(raw)[0]:.4f} s, ops_per_s {n / sum(raw):.4f} 1/s, "
          f"setup_s {setup_raw:.4f} s (imports {import_s:.4f} s, prepare "
          f"{statistics.median(prepare_s):.4f} s, warm-up op {warmup_s:.4f} s); "
          f"calibration kernel median "
          f"{statistics.median(calibrate.samples) * 1e3:.3f} ms "
          f"(reference {CAL_REF_S * 1e3:g} ms)")

    if tracer:
        untraced = kind_ops[False] / kind_time[False]
        traced_rate = kind_ops[True] / kind_time[True]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in tracer.metrics().items()}
        metrics["trace.ops_per_s_untraced"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.ops_per_s_traced"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead"] = {"value": 1.0 - traced_rate / untraced,
                                     "unit": "ratio"}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload.name}-{args.seed}.json.gz")
        tracer.write(path)
        print(f"spans: {len(tracer.name)} written to {os.path.relpath(path, ROOT)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": n / sum(latencies), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric.endswith("rhs_evals"):
        return "count/op"
    if metric.endswith(".self_s"):
        return "s/op"
    if metric.endswith(".dup_ratio"):
        return "ratio"
    return "B"     # lindblad.stack_bytes


if __name__ == "__main__":
    sys.exit(main())
