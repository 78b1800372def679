"""The three benchmark workloads, driven through modlie's public Python API.

Each workload builds its inputs in ``__init__`` from the seed, runs one op in
``op()`` and checks an op's answers in ``check()``; the worker times ``op()``
only.  Calls go through module attributes (``redenv.baby_verma``, not a name
bound at import), so a traced run sees them.

`ledger`       verify-lee for B2 and B3 at p = 7, cases I and II, with fresh
               algebras in every op (cold PBW memo, as in one CLI call).
`module`       the 2401-dimensional B2 baby Verma module at p = 7: the shifted
               Casimir invertibility scan over all c for both case roots, and
               the case-I truncated independence check at bound 2.
`irreducible`  is_irreducible on four A1 baby Verma modules, p = 31 and 67,
               chi(x(-e1)) = 1 and chi = 0, lambda = 0.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from modlie import chevalley, cli, leebasis, redenv, roots

P = 7


class Ledger:
    runs = [(rank, case) for rank in (2, 3) for case in ("I", "II")]

    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref
        self.first: list[str] | None = None

    def op(self):
        out = []
        for rank, case in self.runs:
            cfg = cli.RunConfig(family="B", rank=rank, p=P, case=case, seed=self.seed)
            code, payload = cli.run("verify-lee", cfg)
            # the bytes the CLI writes for --out
            out.append((code, json.dumps(payload["report"], sort_keys=True, indent=2) + "\n"))
        return out

    def check(self, answers) -> list[str]:
        errors = []
        texts = [text for _, text in answers]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            errors.append("report bytes differ from the first op of this run")
        hashes = self.ref["sha256"].get(str(self.seed), [None] * len(self.runs))
        for (rank, case), (code, text), want in zip(self.runs, answers, hashes):
            got = hashlib.sha256(text.encode()).hexdigest()
            if want is not None and got != want:
                errors.append(f"B{rank} case {case}: report sha256 {got} != reference {want}")
            summary = json.loads(text)["summary"]
            if code != 0:
                errors.append(f"B{rank} case {case}: exit code {code}")
            if summary != self.ref["summary"][f"B{rank}_{case}"]:
                errors.append(f"B{rank} case {case}: summary {summary} differs from reference")
        return errors

    def verdicts(self, answers) -> tuple[int, int]:
        return len(answers), 0


class Module:
    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref
        L = chevalley.build_chevalley(roots.build_root_system("B", 2), P)
        alpha = leebasis.case_alpha(L, "I")
        chi = redenv.Character(L, {L.xpos(-alpha): 1})
        self.L = L
        self.rep = redenv.baby_verma(L, chi, {1: 0, 2: 0})

    def op(self):
        L, rep = self.L, self.rep
        U = L.enveloping()
        singular = {}
        for case in ("I", "II"):
            e, h, f = (U.from_lie(x) for x in L.sl2_triple(leebasis.case_alpha(L, case)))
            w = (h + 1) ** 2 + 4 * f * e
            singular[case] = [c for c in range(P) if not redenv.invertible_in_rep(w + c, rep)]
        specs = leebasis.build_case_I(L)
        results = [leebasis.solve_signs(s, L) for s in specs]
        solved = [(s, r) for s, r in zip(specs, results) if r.status == "solved"]
        alpha = leebasis.case_alpha(L, "I")
        bi = leebasis.gen_Bi(L, alpha, seed=self.seed, count=len(solved))
        cand = leebasis.assemble([s for s, _ in solved], bi, [r.solved[0] for _, r in solved])
        indep = leebasis.verify_independence_truncated(cand, rep, 2)
        return singular, indep.count, indep.rank

    def check(self, answers) -> list[str]:
        singular, count, rank = answers
        errors = []
        for case, got in singular.items():
            if got != self.ref["singular"]:
                errors.append(f"case {case}: singular set {got} != {self.ref['singular']}")
        if (count, rank) != (self.ref["count"], self.ref["rank"]):
            errors.append(f"independence count/rank {count}/{rank} != {self.ref['count']}/{self.ref['rank']}")
        return errors

    def verdicts(self, answers) -> tuple[int, int]:
        return 3, 0  # two scans and one independence check, all definite


class Irreducible:
    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref
        self.witness_checked = False
        self.cases = []  # (label, rep, chi nonzero)
        for p in (31, 67):
            L = chevalley.build_chevalley(roots.build_root_system("A", 1), p)
            for regular in (True, False):
                chi = redenv.Character(L, {L.xpos(-L.rs.base[0]): 1} if regular else {})
                label = f"p{p}_{'chi1' if regular else 'chi0'}"
                self.cases.append((label, redenv.baby_verma(L, chi, {1: 0}), regular))

    def op(self):
        return [redenv.is_irreducible(rep, seed=self.seed) for _, rep, _ in self.cases]

    def check(self, answers) -> list[str]:
        errors = []
        for (label, rep, _), verdict in zip(self.cases, answers):
            status = verdict.status
            wrong = "submodule" if self.ref["known"][label] == "irreducible" else "irreducible"
            if status not in ("irreducible", "submodule", "inconclusive"):
                errors.append(f"{label}: unknown status {status!r}")
            elif status == wrong:
                errors.append(f"{label}: {status} contradicts the known answer")
            elif status == "submodule" and not self.witness_checked:
                errors += [f"{label}: {e}" for e in _witness_errors(rep, verdict.witness)]
        self.witness_checked = True
        return errors

    def verdicts(self, answers) -> tuple[int, int]:
        return len(answers), sum(v.status == "inconclusive" for v in answers)


def _rank(rows: np.ndarray, p: int) -> int:
    """Rank over F_p, independent of the program's own elimination code."""
    M = np.array(rows, dtype=np.int64) % p
    r = 0
    for c in range(M.shape[1]):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        M = (M - np.outer(M[:, c], M[r]) * (np.arange(len(M)) != r)[:, None]) % p
        r += 1
        if r == len(M):
            break
    return r


def _witness_errors(rep, witness) -> list[str]:
    """A submodule witness must span a proper nonzero subspace that every
    generator maps into itself."""
    if not witness:
        return ["submodule verdict without a witness"]
    p, d = rep.p, rep.dim
    W = np.array(witness, dtype=np.int64) % p
    k = _rank(W, p)
    if not 0 < k < d:
        return [f"witness spans dimension {k}, not strictly between 0 and {d}"]
    for pos, G in rep.generators.items():
        images = (G @ W.T).T % p
        if _rank(np.vstack([W, images]), p) != k:
            return [f"witness is not invariant under generator {pos}"]
    return []


WORKLOADS = {"ledger": Ledger, "module": Module, "irreducible": Irreducible}
