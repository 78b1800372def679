#!/usr/bin/env python3
"""Record the reference answers in perfbench/reference.json.

    python3 perfbench/record.py

Run from the repository root on the commit whose answers are the reference.
The ledger reports are hashed for seeds 0..SEEDS-1 exactly as `verify-lee` writes
them; other seeds are checked by their summary counts and by byte identity
across the ops of a run.
"""

import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import Irreducible, Ledger, Module  # noqa: E402

SEEDS = 32


def main() -> int:
    sha256, summary = {}, {}
    for seed in range(SEEDS):
        answers = Ledger(seed, {}).op()
        sha256[str(seed)] = [hashlib.sha256(text.encode()).hexdigest() for _, text in answers]
        for (rank, case), (code, text) in zip(Ledger.runs, answers):
            s = json.loads(text)["summary"]
            if code != 0 or summary.setdefault(f"B{rank}_{case}", s) != s:
                raise SystemExit(f"seed {seed}: B{rank} case {case} exit {code}, summary {s}")

    singular, count, rank = Module(0, {}).op()
    if singular["I"] != singular["II"]:
        raise SystemExit(f"singular sets differ between the case roots: {singular}")

    ref = {
        "ledger": {"summary": summary, "sha256": sha256},
        "module": {"singular": singular["I"], "count": count, "rank": rank},
        "irreducible": {
            "known": {
                label: "irreducible" if regular else "reducible"
                for label, _, regular in Irreducible(0, {}).cases
            },
        },
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in ref.items() if k != "ledger"}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
