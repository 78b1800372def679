#!/usr/bin/env python3
"""modlie benchmark: one workload per invocation, one worker process per workload.

    python3 perfbench/run.py --workload {ledger,module,irreducible} --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` it starts two set-up-only
workers and one measuring worker, one after another, and prints every
end-to-end metric; with ``--trace 1`` it starts one traced worker and prints
the per-layer metrics.  Human-readable lines come first; the last stdout line
is the JSON result.  A run record (git SHA, versions, nproc, load average,
per-op times) is written to perfbench/out/.

Exits 2 when the checkout has no modlie sources, and 1 when a worker fails or
the run overruns its time limit; no result line is printed in either case.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ledger", "module", "irreducible")
SETUP_REPEATS = 3  # set-up samples per run; setup_s is their median
TIME_LIMIT_S = 170.0

# name -> unit; must match BENCHMARK.json (selftest.py checks it)
END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "conclusive_ratio": "ratio",
}
PER_LAYER = {
    "pbw.gen_into_mono.calls": "count",
    "pbw.gen_into_mono.self_s": "s",
    "pbw.gen_into_mono.repeat_ratio": "ratio",
    "pbw.multiply.calls": "count",
    "pbw.multiply.self_s": "s",
    "redenv.baby_verma.self_s": "s",
    "redenv.evaluate.calls": "count",
    "redenv.evaluate.self_s": "s",
    "redenv.invertible_in_rep.self_s": "s",
    "redenv.is_irreducible.self_s": "s",
    "linalg.rank_mod_p.calls": "count",
    "linalg.rank_mod_p.self_s": "s",
    "linalg.rank_mod_p.cells": "count",
    "linalg.SparseEchelon.insert.calls": "count",
    "linalg.SparseEchelon.insert.self_s": "s",
    "linalg.DenseEchelon.insert.calls": "count",
    "linalg.DenseEchelon.insert.self_s": "s",
    "linalg.kernel_mod_p.self_s": "s",
    "leebasis.solve_signs.self_s": "s",
    "leebasis.gen_Bi.self_s": "s",
    "leebasis.verify_independence_truncated.self_s": "s",
    "leebasis.verification_report.self_s": "s",
    "expr.to_ue.self_s": "s",
    "chevalley.build_chevalley.self_s": "s",
    "cli.run.self_s": "s",
    "roots.build_root_system.self_s": "s",
    "other.self_s": "s",
    "tracing.ops_per_s_ratio": "ratio",
}


class RunFailed(Exception):
    pass


def run_record(args) -> dict:
    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RunFailed(f"{mode} worker overran the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[dict], main: dict) -> dict:
    durations = main["durations"]
    completed = main["attempted"] - main["failed"]
    verdicts = main["verdicts"]
    return {
        "ops_per_s": completed / sum(durations),
        "op_s.p50": statistics.median(durations),
        "setup_s": statistics.median([r["setup_s"] for r in setups]),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": completed / main["attempted"],
        "conclusive_ratio": (verdicts - main["inconclusive"]) / verdicts if verdicts else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "modlie" / "__init__.py").is_file():
        print(f"no modlie sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # single-threaded numerics and a fixed hash seed in every worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    record = run_record(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            main_result = worker(args, "trace", deadline)
            workers = [main_result]
            metrics = {k: main_result["layers"].get(k, 0.0) for k in PER_LAYER}
            units = PER_LAYER
        else:
            setups = [worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
            main_result = worker(args, "measure", deadline)
            workers = setups + [main_result]
            metrics = end_to_end(workers, main_result)
            units = END_TO_END
            record["setup_samples_s"] = [r["setup_s"] for r in workers]
    except RunFailed as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    # every worker's checked warm-up op counts, besides the timed ops
    attempted = main_result["attempted"] + len(workers)
    failed = main_result["failed"] + sum(r["warmup_failed"] for r in workers)

    record["worker"] = main_result
    record["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" sha={record['git_sha']} python={record['python']} numpy={record['numpy']}"
        f" scipy={record['scipy']} nproc={record['nproc']} load={record['loadavg_at_start']}"
    )
    for err in [e for r in workers for e in r["errors"]]:
        print(f"# check failed: {err}")
    if args.trace:
        print(f"# traced ops {main_result['traced_ops']}, spans {main_result['spans']},"
              f" missing targets {main_result['missing_targets'] or 'none'}")
    else:
        print(f"# timed ops {main_result['attempted']};"
              f" fail_ratio {1 - metrics['ok_ratio']:.4f};"
              f" inconclusive_ratio {1 - metrics['conclusive_ratio']:.4f}")
    for name, value in metrics.items():
        print(f"{name:<48s} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
