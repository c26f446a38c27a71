"""Record the benchmark's input pools, the library's outputs for them and
the solver work (right-hand-side evaluations) each entry took.  Retrieval
runs no solver, so its entries record instead their fastest of three op
times in seconds; the schedule uses work only to order entries by cost.

    python3 perfbench/make_reference.py

run from the repository root, writes perfbench/reference.json.  The pools
come from workloads.POOL_SEED, so rerunning at the same commit reproduces
the file.  Retrieval references are the shipped tables in
src/seqphoton/data, after checking that the library reproduces them.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def shipped_table(profile: str) -> dict:
    path = os.path.join(ROOT, "src", "seqphoton", "data",
                        f"retrieval_{profile}.csv")
    with open(path) as fh:
        return {(r["scheme"], int(r["L_v"]), int(r["L_z"])): float(r["error"])
                for r in csv.DictReader(fh)}


def op_seconds(w, entry: dict, problems: dict) -> float:
    start = time.perf_counter()
    w.op(entry, problems)
    return time.perf_counter() - start


def main() -> int:
    # one BLAS thread, as in run.py, so that recorded op times rank entries
    # as the benchmark runs them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    import tracing
    import workloads as wl
    warnings.filterwarnings("ignore", message=r"-ln F_ph vs n")
    tables = {p: shipped_table(p) for p in ("optimal", "gaussian")}
    out = {"pool_seed": wl.POOL_SEED, "workloads": {}}
    for k, (name, w) in enumerate(wl.WORKLOADS.items()):
        rng = np.random.default_rng([wl.POOL_SEED, k])
        pool = w.make_pool(rng)
        problems = w.problems()
        refs, work = [], []
        start = time.perf_counter()
        for entry in pool:
            with tracing.Tracer() as tracer:
                tracer.begin_op(0)
                result = w.op(entry, problems)
                tracer.end_op()
            work.append(sum(tracer.counters[c] for c in tracing.RHS_COUNTERS))
            if name == "retrieval-scan":
                work[-1] = min(op_seconds(w, entry, problems) for _ in range(3))
                key = (entry["scheme"], entry["L_v"], entry["L_z"])
                shipped = {"eps": tables[entry["profile"]][key]}
                errors = w.check(result, shipped)
                if errors:
                    raise SystemExit(f"{name} {entry}: {errors}")
                result = shipped
            refs.append(result)
        print(f"{name}: {len(pool)} entries in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        out["workloads"][name] = {"pool": pool, "reference": refs,
                                  "work": work}
    path = os.path.join(HERE, "reference.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
