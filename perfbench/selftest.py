#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of modlie).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

- BENCHMARK.json names exactly the metrics, units and workloads run.py reports;
- every wrapped function records at least one call on the workloads it is
  meant to measure (one traced op per workload, in a worker process);
- after uninstalling, every module and class attribute the tracer touched is
  the original object again, and no modlie namespace still holds a wrapper,
  so untraced runs measure unpatched code.

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# span name -> workloads whose run (set-up included) must call it; this is
# the layer-to-workload map in README.md
EXPECTED = {
    "roots.build_root_system": ["ledger"],
    "chevalley.build_chevalley": ["ledger"],
    "expr.to_ue": ["ledger"],
    "pbw.EnvelopingAlgebra.gen_into_mono": ["ledger", "module"],
    "pbw.multiply": ["ledger", "module"],
    "redenv.baby_verma": ["ledger", "module"],
    "redenv.evaluate": ["ledger", "module"],
    "redenv.invertible_in_rep": ["module"],
    "redenv.is_irreducible": ["irreducible"],
    "linalg.rank_mod_p": ["ledger", "module"],
    "linalg.kernel_mod_p": ["irreducible"],
    "linalg.DenseEchelon.insert": ["irreducible"],
    "linalg.SparseEchelon.insert": ["module"],
    "leebasis.solve_signs": ["ledger", "module"],
    "leebasis.gen_Bi": ["ledger", "module"],
    "leebasis.verify_independence_truncated": ["module"],
    "leebasis.verification_report": ["ledger"],
    "cli.run": ["ledger"],
}


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            errors.append(f"BENCHMARK.json {key} {listed} != run.py {table}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    return errors


def check_calls() -> list[str]:
    errors = []
    if set(EXPECTED) != {f"{m}.{p}" for m, p in TARGETS}:
        errors.append("EXPECTED and tracer.TARGETS name different functions")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for workload in run.WORKLOADS:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "0",
               "--seconds", "0", "--mode", "trace", "--spawned", repr(time.monotonic())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, timeout=170)
        if proc.returncode != 0:
            errors.append(f"{workload}: traced worker exited with code {proc.returncode}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        errors += [f"{workload}: target missing from the program: {n}" for n in result["missing_targets"]]
        if result["failed"]:
            errors.append(f"{workload}: {result['failed']} failed op(s): {result['errors']}")
        for name, workloads in EXPECTED.items():
            if workload in workloads and result["calls_total"].get(name, 0) < 1:
                errors.append(f"{workload}: {name} recorded no call")
        print(f"{workload}: {sum(result['calls_total'].values())} spans,"
              f" {result['patched_bindings']} bindings patched and restored")
    return errors


def _from_tracer(obj) -> bool:
    code = getattr(obj, "__code__", None)
    return code is not None and pathlib.Path(code.co_filename).name == "tracer.py"


def check_restore() -> list[str]:
    import modlie.cli  # noqa: F401  loads every modlie module

    tracer = Tracer()
    tracer.install()
    rebound = tracer.patched_bindings > len(TARGETS)
    tracer.uninstall()
    errors = [] if rebound else ["no name imported by another module was rebound"]
    errors += [f"still wrapped after uninstall: {n}" for n in tracer.verify_restored()]
    for name, mod in sorted(sys.modules.items()):
        if name != "modlie" and not name.startswith("modlie."):
            continue
        for key, val in vars(mod).items():
            owners = [(key, val)] + (
                [(f"{key}.{k}", v) for k, v in vars(val).items()] if isinstance(val, type) else []
            )
            errors += [f"{name}.{k} is still a wrapper" for k, v in owners if _from_tracer(v)]
    return errors


def main() -> int:
    errors = check_benchmark_json() + check_restore() + check_calls()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
