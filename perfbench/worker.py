"""One benchmark process for one workload; run by run.py, not by hand.

    worker.py --workload W --seed N --seconds S --mode {setup,measure,trace} --spawned T

`setup`    builds the inputs and runs the untimed warm-up op, then stops.
`measure`  does the same, then runs timed ops in a closed loop (one caller,
           the next op starts when the previous one has been checked) for S
           seconds of wall time.
`trace`    installs the tracer before set-up, measures traced ops for S/2
           seconds, removes the tracer, proves every binding is restored and
           measures untraced ops for S/4 seconds (at least 2) to give the
           tracing overhead.

T is the parent's time.monotonic() just before it started this process, so
set-up time covers interpreter start and imports.  The last stdout line is a
JSON object with the raw measurements.  A traced run also writes all its
spans to out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import modlie  # noqa: E402

from tracer import OP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_ops(wl, seconds: float, tracer: Tracer | None = None, min_ops: int = 1):
    """Closed loop of timed ops; each op's answers are checked after its clock stops."""
    durations, errors, op_ranges, counter_deltas = [], [], [], []
    attempted = failed = verdicts = inconclusive = 0
    start = time.perf_counter()
    # the wall clock, checks included, ends the loop, so a much faster op
    # cannot stretch a run through its untimed checks
    while time.perf_counter() - start < seconds or attempted < min_ops:
        gc.collect()  # free the previous op's cyclic garbage outside the clock
        attempted += 1
        before = dict(tracer.counters) if tracer else None
        root = tracer.open_span() if tracer else None
        t0 = time.perf_counter()
        try:
            answers, errs = wl.op(), None
        except Exception:  # an op that raises is a failed op; keep measuring
            answers, errs = None, [traceback.format_exc(limit=3)]
        durations.append(time.perf_counter() - t0)
        if tracer:
            tracer.close_span(root)
        if errs is None:
            if tracer:
                op_ranges.append((root, len(tracer.ends)))
                counter_deltas.append({k: tracer.counters[k] - before[k] for k in before})
            errs = wl.check(answers)
            n, inc = wl.verdicts(answers)
            verdicts += n
            inconclusive += inc
        if errs:
            failed += 1
            errors.extend(errs)
    return {
        "durations": durations,
        "attempted": attempted,
        "failed": failed,
        "verdicts": verdicts,
        "inconclusive": inconclusive,
        "errors": errors[:20],
        "op_ranges": op_ranges,
        "counter_deltas": counter_deltas,
    }


def ops_per_s(r: dict) -> float:
    return (r["attempted"] - r["failed"]) / sum(r["durations"])


def layer_metrics(tracer: Tracer, traced: dict) -> dict:
    ops = len(traced["op_ranges"])
    totals = tracer.layer_totals(traced["op_ranges"])
    out = {}
    for name, (calls, self_s) in totals.items():
        short = name.replace("pbw.EnvelopingAlgebra.", "pbw.")
        key = "other" if name == OP else short
        out[f"{key}.calls"] = calls / ops if ops else 0.0
        out[f"{key}.self_s"] = self_s / ops if ops else 0.0
    for k in tracer.counters:
        out[k] = sum(d[k] for d in traced["counter_deltas"]) / ops if ops else 0.0
    calls = out.get("pbw.gen_into_mono.calls", 0.0)
    out["pbw.gen_into_mono.repeat_ratio"] = (
        out.pop("pbw.gen_into_mono.repeats") / calls if calls else 0.0
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(modlie.__file__).resolve().parents:
        raise SystemExit(f"modlie imported from {modlie.__file__}, not from {src}")
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()

    wl = WORKLOADS[args.workload](args.seed, ref)
    warm = run_ops(wl, 0.0)  # untimed warm-up op, checked like any other
    setup_s = time.monotonic() - args.spawned
    result = {
        "setup_s": setup_s,
        "warmup_failed": warm["failed"],
        "errors": warm["errors"],
    }
    if args.mode == "measure":
        timed = run_ops(wl, args.seconds)
        result["errors"] += timed.pop("errors")
        result.update(timed)
    elif args.mode == "trace":
        traced = run_ops(wl, args.seconds / 2, tracer)
        tracer.uninstall()
        still_patched = tracer.verify_restored()
        if still_patched:
            raise SystemExit(f"tracer left wrappers in place: {still_patched}")
        plain = run_ops(wl, args.seconds / 4, min_ops=2)
        metrics = layer_metrics(tracer, traced)
        plain_rate = ops_per_s(plain)
        metrics["tracing.ops_per_s_ratio"] = ops_per_s(traced) / plain_rate if plain_rate else 0.0
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")
        result.update(
            {
                "attempted": traced["attempted"] + plain["attempted"],
                "failed": traced["failed"] + plain["failed"],
                "errors": result["errors"] + traced["errors"] + plain["errors"],
                "layers": metrics,
                "missing_targets": tracer.missing,
                "patched_bindings": tracer.patched_bindings,
                "spans": len(tracer.ends),
                "calls_total": {
                    n: c for n, (c, _) in tracer.layer_totals([(0, len(tracer.ends))]).items()
                },
                "traced_ops": len(traced["op_ranges"]),
            }
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
