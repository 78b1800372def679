#!/usr/bin/env python3
"""Build the p^4-dimensional B2 baby Verma module and time its checks.

The module has 2401 dimensions at the default p = 7, 14641 at p = 11 and
28561 at p = 13.

Covers: construction, bracket compatibility, restrictedness, the shifted
Casimir invertibility scan over all central constants, and the truncated
independence rank of the solvable case-I candidate.

Usage:
    python scripts/b2_verma_scale.py [--p 7] [--bound 2] [--seed 0]
"""

import argparse
import sys
import time

from modlie.chevalley import build_chevalley
from modlie.leebasis import (
    case_alpha,
    solved_candidate,
    verify_independence_truncated,
)
from modlie.redenv import (
    Character,
    baby_verma,
    rep_check_brackets,
    rep_check_restrictedness,
    singular_constants,
)
from modlie.roots import build_root_system


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"{label:<42s} {time.time()-t0:7.2f}s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--p", type=int, default=7)
    ap.add_argument("--bound", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    p = args.p

    L = build_chevalley(build_root_system("B", 2), p, allow_small=p < 7)
    alpha = case_alpha(L, "I")
    chi = Character(L, {L.xpos(-alpha): 1})
    rep = timed("baby Verma construction", lambda: baby_verma(L, chi, {1: 0, 2: 0}))
    print(f"{'dimension':<42s} {rep.dim}")
    ok1 = timed("bracket compatibility (all pairs)", lambda: rep_check_brackets(rep))
    ok2 = timed("restrictedness (all generators)", lambda: rep_check_restrictedness(rep))

    U = L.enveloping()
    e, h, f = (U.from_lie(x) for x in L.sl2_triple(alpha))
    w = (h + 1) ** 2 + 4 * f * e
    singular = timed(
        "Casimir invertibility scan (all c)",
        lambda: singular_constants(w, rep),
    )
    print(f"{'singular constants':<42s} {singular}")

    cand = solved_candidate(L, "I", seed=args.seed)
    rpt = timed(
        f"truncated independence (bound {args.bound})",
        lambda: verify_independence_truncated(cand, rep, args.bound),
    )
    print(f"{'elements / rank':<42s} {rpt.count} / {rpt.rank}")
    return 0 if (ok1 and ok2 and rpt.full_rank) else 1


if __name__ == "__main__":
    sys.exit(main())
