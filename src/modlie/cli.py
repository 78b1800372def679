"""Command-line front end: expression calculator, batch verification, reports.

Commands
    roots             root system summary (counts, base, orbits)
    struct-table      deterministic structure-constant export
    normalform EXPR   PBW normal form of an expression
    central EXPR      centrality test (exit 1 with a witness when false)
    verify-lee        template/sign/coefficient verification ledger
    baby-verma        construct a baby Verma module and run its invariants
    irreducible       irreducibility verdict for a baby Verma module
    independence      truncated-independence rank report for a candidate
    check-subalgebra  closure verdict for a span (with optional Cartan extension)

Exit codes: 0 all asserted checks passed; 1 a check produced a counterexample
(with certificate); 2 usage or configuration error: an InputError, raised
where its check is made (a p too large for int64 arithmetic, a key that is
not an element of L, a lambda index beyond the rank, an independence order
past the stack limit, a config file that is not UTF-8), or an --out file that
cannot be written; 3 inconclusive verdicts present.  Warnings, such
as running at a small characteristic, are written as one `warning:` line.  Reports are JSON with sorted keys: identical config and seed give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

from . import expr as xp
from .chevalley import (
    LieAlgebra,
    SmallCharacteristic,
    build_chevalley,
    check_subalgebra,
    extend_by_cartan,
)
from .errors import InputError
from .leebasis import (
    case_alpha,
    solved_candidate,
    verification_report,
    verify_independence_truncated,
)
from .pbw import commutator, to_string
from .redenv import (
    Character,
    baby_verma,
    is_irreducible,
    rep_check_brackets,
    rep_check_restrictedness,
)
from .roots import build_root_system, weyl_orbit


class ConfigError(InputError):
    pass


@dataclass
class RunConfig:
    family: str = "B"
    rank: int = 2
    p: int = 7
    case: str = "I"
    chi: dict[str, int] = field(default_factory=dict)
    lam: dict[str, int] = field(default_factory=dict)
    c: int = 0
    bound: int = 2
    seed: int = 0
    out: str | None = None
    trials: int = 50
    allow_small: bool = False
    span: str | None = None
    extend_h: str | None = None
    expr: str | None = None

    def validate(self):
        if self.family not in ("A", "B", "C", "D"):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.p < 0:
            raise ConfigError("p must be 0 or a prime")
        if self.case not in ("I", "II"):
            raise ConfigError(f"case must be I or II, got {self.case!r}")
        if self.bound < 0 or self.seed < 0 or self.trials < 0:
            raise ConfigError("bound, seed and trials must be nonnegative")


def _config_key(name: str) -> str:
    """The config-file key of a RunConfig field (or of the argparse dest)."""
    return "lambda" if name == "lam" else name


CONFIG_FIELDS = {_config_key(f.name): f for f in fields(RunConfig)}
BOOL_WORDS = dict.fromkeys(("1", "true", "yes"), True) | dict.fromkeys(("0", "false", "no"), False)


def _parse_assignments(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad assignment {piece!r}, expected key=value")
        k, v = piece.rsplit("=", 1)
        try:
            out[k.strip()] = int(v)
        except ValueError:
            raise ConfigError(f"bad value in {piece!r}") from None
    return out


def load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as ex:
        raise ConfigError(f"cannot read {path}: {ex.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _build_algebra(cfg: RunConfig) -> LieAlgebra:
    rs = build_root_system(cfg.family, cfg.rank)
    try:
        return build_chevalley(rs, cfg.p, allow_small=cfg.allow_small)
    except SmallCharacteristic:
        raise SmallCharacteristic(
            f"p = {cfg.p} < 7; pass --allow-small for small-prime experiments"
        ) from None


def _character(L: LieAlgebra, cfg: RunConfig) -> Character:
    values: dict[int, int] = {}
    for key, v in cfg.chi.items():
        pos = _basis_position(L, key)
        values[pos] = v
    return Character(L, values)


def _lambda(L: LieAlgebra, cfg: RunConfig) -> dict[int, int]:
    out: dict[int, int] = {}
    for key, v in cfg.lam.items():
        if xp.is_digits(key):
            out[int(key)] = v
            continue
        pos = _basis_position(L, key)
        b = L.basis[pos]
        if b.kind != "h":
            raise ConfigError(f"lambda key {key!r} is not a simple coroot")
        out[b.coroot] = v
    return out


def _basis_position(L: LieAlgebra, token: str) -> int:
    try:
        node = xp.parse(token, L.rs)
    except (xp.ParseError, xp.UnknownRoot) as ex:
        raise ConfigError(f"bad basis token {token!r}: {ex}") from None
    elem = xp.to_lie(node, L)
    if len(elem.coeffs) != 1 or set(elem.coeffs.values()) != {1}:
        raise ConfigError(f"{token!r} does not name a single basis element")
    return next(iter(elem.coeffs))


def _report(kind: str, cfg: RunConfig, fields: dict) -> dict:
    """A command's report: the shared header, then the command's own fields."""
    return {"schema": 1, "kind": kind, "family": cfg.family, "rank": cfg.rank, "p": cfg.p} | fields


def _emit(report: dict, cfg: RunConfig, human: str) -> None:
    """Print the human line and the report, or write the report to cfg.out
    first, so that a file that cannot be written leaves stdout empty."""
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    print(human)
    if not cfg.out:
        print(payload, end="")


# -- commands --------------------------------------------------------------


def _cmd_roots(cfg: RunConfig) -> tuple[int, dict]:
    rs = build_root_system(cfg.family, cfg.rank)
    orbits = []
    seen: set = set()
    for r in rs.roots:
        if r in seen:
            continue
        orb = weyl_orbit(r, rs)
        seen |= orb
        orbits.append(sorted(x.label for x in orb))
    report = {
        "schema": 1,
        "kind": "roots",
        "family": cfg.family,
        "rank": cfg.rank,
        "count": len(rs.roots),
        "base": [r.plain_label for r in rs.base],
        "roots": [r.label for r in rs.roots],
        "orbits": orbits,
    }
    human = (
        f"{cfg.family}{cfg.rank}: {len(rs.roots)} roots, base"
        f" [{', '.join(r.plain_label for r in rs.base)}], {len(orbits)} orbit(s)"
    )
    return 0, {"report": report, "human": human}


def _cmd_struct_table(cfg: RunConfig) -> tuple[int, dict]:
    L = _build_algebra(cfg)
    brackets = []
    for i in range(L.n):
        for j in range(i + 1, L.n):
            entry = L.table_entry(i, j)
            if entry:
                brackets.append(
                    [
                        L.basis[i].label,
                        L.basis[j].label,
                        {L.basis[k].label: entry[k] for k in sorted(entry)},
                    ]
                )
    report = _report("struct-table", cfg, {
        "basis": [b.label for b in L.basis],
        "brackets": brackets,
    })
    human = f"{cfg.family}{cfg.rank} (p={cfg.p}): dim {L.n}, {len(brackets)} nonzero bracket pairs"
    return 0, {"report": report, "human": human}


def _cmd_normalform(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.expr:
        raise ConfigError("normalform requires an expression")
    L = _build_algebra(cfg)
    node = xp.parse(cfg.expr, L.rs)
    u = xp.to_ue(node, L.enveloping())
    text = to_string(u)
    report = _report("normalform", cfg, {
        "input": cfg.expr,
        "normalform": text,
    })
    return 0, {"report": report, "human": text}


def _cmd_central(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.expr:
        raise ConfigError("central requires an expression")
    L = _build_algebra(cfg)
    node = xp.parse(cfg.expr, L.rs)
    u = xp.to_ue(node, L.enveloping())
    witness = None
    for pos in range(L.n):
        g = L.enveloping().gen(pos)
        comm = commutator(g, u)
        if not comm.is_zero:
            witness = {"generator": L.basis[pos].label, "commutator": to_string(comm)}
            break
    central = witness is None
    report = _report("central", cfg, {
        "input": cfg.expr,
        "central": central,
        "witness": witness,
    })
    human = "true" if central else f"false (fails against {witness['generator']})"
    return (0 if central else 1), {"report": report, "human": human}


def _cmd_verify_lee(cfg: RunConfig) -> tuple[int, dict]:
    L = _build_algebra(cfg)
    report = verification_report(L, cfg.case, seed=cfg.seed)
    s = report["summary"]
    human = (
        f"case {cfg.case} on {cfg.family}{cfg.rank} (p={cfg.p}): "
        f"{s['solved']}/{s['slots']} solved, {s['nosolution']} without commuting signs, "
        f"{s['impossible_for_rank']} impossible at this rank; oracle "
        f"{'consistent' if s['oracle_consistent'] else 'INCONSISTENT'}"
    )
    code = 0 if s["oracle_consistent"] else 1
    return code, {"report": report, "human": human}


def _cmd_baby_verma(cfg: RunConfig) -> tuple[int, dict]:
    L = _build_algebra(cfg)
    chi = _character(L, cfg)
    rep = baby_verma(L, chi, _lambda(L, cfg))
    brackets_ok = rep_check_brackets(rep)
    restricted_ok = rep_check_restrictedness(rep)
    report = _report("baby-verma", cfg, {
        "chi": dict(sorted(cfg.chi.items())),
        "lambda": dict(sorted(cfg.lam.items())),
        "dim": rep.dim,
        "bracket_compatibility": brackets_ok,
        "restrictedness": restricted_ok,
    })
    human = (
        f"baby Verma over {cfg.family}{cfg.rank} (p={cfg.p}): dim {rep.dim},"
        f" brackets {'ok' if brackets_ok else 'FAIL'},"
        f" restrictedness {'ok' if restricted_ok else 'FAIL'}"
    )
    return (0 if brackets_ok and restricted_ok else 1), {"report": report, "human": human}


def _cmd_irreducible(cfg: RunConfig) -> tuple[int, dict]:
    L = _build_algebra(cfg)
    chi = _character(L, cfg)
    rep = baby_verma(L, chi, _lambda(L, cfg))
    verdict = is_irreducible(rep, seed=cfg.seed, trials=cfg.trials)
    report = _report("irreducible", cfg, {
        "dim": rep.dim,
        "status": verdict.status,
        "span_dim": verdict.span_dim,
        "witness_dim": len(verdict.witness) if verdict.witness is not None else None,
        "certificate": verdict.certificate,
    })
    human = f"dim {rep.dim}: {verdict.status}"
    code = {"irreducible": 0, "submodule": 0, "inconclusive": 3}[verdict.status]
    return code, {"report": report, "human": human}


def _cmd_independence(cfg: RunConfig) -> tuple[int, dict]:
    L = _build_algebra(cfg)
    cand = solved_candidate(L, cfg.case, seed=cfg.seed, c_value=cfg.c)
    chi = _character(L, cfg) if cfg.chi else Character(L, {L.xpos(-case_alpha(L, cfg.case)): 1})
    rep = baby_verma(L, chi, _lambda(L, cfg))
    rpt = verify_independence_truncated(cand, rep, cfg.bound)
    report = _report("independence", cfg, {
        "case": cfg.case,
        "seed": cfg.seed,
        "bound": cfg.bound,
        "pairs": [t.label for t in cand.targets],
        "count": rpt.count,
        "rank": rpt.rank,  # the matrix rank, which replaces the header's Lie rank
        "full_rank": rpt.full_rank,
        "witnesses": [
            {str(k): v for k, v in w.items()} for w in rpt.witnesses
        ],
    })
    human = f"bound {cfg.bound}: {rpt.count} elements, rank {rpt.rank}" + (
        "" if rpt.full_rank else f", {len(rpt.witnesses)} dependencies"
    )
    return (0 if rpt.full_rank else 1), {"report": report, "human": human}


def _cmd_check_subalgebra(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.span:
        raise ConfigError("check-subalgebra requires --span")
    L = _build_algebra(cfg)
    span = []
    for piece in cfg.span.split(";"):
        piece = piece.strip()
        if piece:
            span.append(xp.to_lie(xp.parse(piece, L.rs), L))
    if cfg.extend_h:
        h_extra = xp.to_lie(xp.parse(cfg.extend_h, L.rs), L)
        span, verdict = extend_by_cartan(span, h_extra, L)
    else:
        verdict = check_subalgebra(span, L)
    witness = None
    if not verdict.closed:
        i, j, w = verdict.witness
        witness = {"pair": [i, j], "bracket": repr(w)}
    report = _report("check-subalgebra", cfg, {
        "span_size": len(span),
        "closed": verdict.closed,
        "witness": witness,
    })
    human = "closed" if verdict.closed else f"not closed: witness pair {witness['pair']}"
    return (0 if verdict.closed else 1), {"report": report, "human": human}


COMMANDS = {
    "roots": _cmd_roots,
    "struct-table": _cmd_struct_table,
    "normalform": _cmd_normalform,
    "central": _cmd_central,
    "verify-lee": _cmd_verify_lee,
    "baby-verma": _cmd_baby_verma,
    "irreducible": _cmd_irreducible,
    "independence": _cmd_independence,
    "check-subalgebra": _cmd_check_subalgebra,
}


def run(command: str, cfg: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit code, {'report':..., 'human':...})."""
    cfg.validate()
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return COMMANDS[command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modlie", description=__doc__.split("\n")[0])
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("expr", nargs="?", help="expression for normalform/central")
    ap.add_argument("--family", default=None)
    ap.add_argument("--rank", type=int, default=None)
    ap.add_argument("--p", type=int, default=None)
    ap.add_argument("--case", default=None, choices=("I", "II"))
    ap.add_argument("--chi", default=None, help="comma list like x(-e1)=1")
    ap.add_argument("--lambda", dest="lam", default=None, help="comma list like 1=0,2=3")
    ap.add_argument("--c", type=int, default=None, help="central constant value")
    ap.add_argument("--bound", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the JSON report here")
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--allow-small", action="store_true", default=None)
    ap.add_argument("--span", default=None, help="semicolon-separated span elements")
    ap.add_argument("--extend-h", default=None, help="Cartan element to adjoin")
    ap.add_argument("--config", default=None, help="key=value config file")
    return ap


def _merge_config(args) -> RunConfig:
    raw = load_config_file(args.config) if args.config else {}
    for name, v in vars(args).items():
        if _config_key(name) in CONFIG_FIELDS and v is not None:
            raw[_config_key(name)] = v
    cfg = RunConfig()
    for key, val in raw.items():
        f = CONFIG_FIELDS[key]
        if f.type == "int":
            try:
                val = int(val)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {val!r}") from None
        elif f.type == "bool" and isinstance(val, str):
            if val.lower() not in BOOL_WORDS:
                raise ConfigError(f"{key} must be 1/true/yes or 0/false/no, got {val!r}")
            val = BOOL_WORDS[val.lower()]
        elif isinstance(val, str) and f.type.startswith("dict"):
            val = _parse_assignments(val)
        setattr(cfg, f.name, val)
    return cfg


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_intermixed_args(argv)
    warnings.formatwarning, default_format = _warning_line, warnings.formatwarning
    try:
        cfg = _merge_config(args)
        code, payload = run(args.command, cfg)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except (xp.ParseError, xp.UnknownRoot) as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: maximum recursion depth exceeded: the input nests or straightens too deeply", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format
    try:
        _emit(payload["report"], cfg, payload["human"])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (| head): the answer stands, and
        # pointing stdout at devnull keeps the exit-time flush from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as ex:
        print(f"error: cannot write {ex.filename or 'stdout'}: {ex.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
