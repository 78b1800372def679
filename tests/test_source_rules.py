"""Rules on the source of src/modlie, read from its syntax trees; the table of
guarded names covers scripts too.  A failure names each file and line."""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
         for folder in ("src/modlie", "scripts") for path in sorted((ROOT / folder).glob("*.py"))}
SRC = {path: tree for path, tree in TREES.items() if path.parts[0] == "src"}

# Each guarded name and the scopes that may reference it: a module ("linalg",
# or a script) or a function in one ("redenv.is_irreducible").
ALLOWED = {
    # evaluate forms every product of generator matrices but those of the matrix-side checks,
    # which compare against it, and of the independence check, which forms no PBW product
    "matmul": {"redenv._monomial_matrix", "redenv.rep_check_brackets", "redenv.rep_check_restrictedness",
               "leebasis._rep_cross_check", "leebasis.verify_independence_truncated"},
    "gen_into_mono": {"pbw.gen_into_mono", "pbw._gen_into_terms"},
    "_diagonal": {"redenv._monomial_matrix"},  # diagonality is decided once per memo entry
    # the invertibility scan reads _split, and a c-scan calls singular_constants
    "evaluate": {"redenv.rep_check_brackets", "redenv.rep_check_restrictedness", "redenv.is_irreducible",
                 "leebasis", "__init__"},
    "invertible_in_rep": {"redenv", "__init__"},
    "_echelon": {"linalg"},  # F_p elimination stays in one kernel
    "np.outer": {"linalg"},
}


def _names(node):
    """The names a node references; an attribute of numpy is also np.<attr>."""
    if isinstance(node, ast.Attribute):
        return [node.attr] + [f"np.{node.attr}"] * (getattr(node.value, "id", None) in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names] + [f"np.{a.name}" for a in node.names if node.module == "numpy"]
    return [node.id] if isinstance(node, ast.Name) else []


def _walk(path, node, scopes):
    for name in _names(node):
        yield path, scopes, node, name
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scopes = scopes + (f"{path.stem}.{node.name}",)
    for child in ast.iter_child_nodes(node):
        yield from _walk(path, child, scopes)


# (file, scopes enclosing the node, node, name) for every name referenced
REFS = [ref for path, tree in TREES.items() for ref in _walk(path, tree, (path.stem,))]
IMPORTS = [(path, node) for path, tree in SRC.items() for node in ast.walk(tree)
           if isinstance(node, (ast.Import, ast.ImportFrom))]


def _bound(imp):
    return [(a.asname or a.name).split(".")[0] for a in imp.names]


def guarded_names():
    return [(path, node, f"{name} outside {', '.join(sorted(ALLOWED[name]))}")
            for path, scopes, node, name in REFS if name in ALLOWED and not ALLOWED[name].intersection(scopes)]


def asserts():  # python -O strips them
    return [(path, node, "assert") for path, tree in SRC.items() for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def unused_imports():  # __init__.py imports to re-export
    used = {(path, name) for path, _, node, name in REFS if isinstance(node, ast.Name)}
    return [(path, node, f"{name} imported but unused") for path, node in IMPORTS
            if path.name != "__init__.py" and getattr(node, "module", None) != "__future__"
            for name in _bound(node) if (path, name) not in used]


def scipy_modules():  # scipy.sparse.csgraph loads scipy.linalg, about 11 MB
    for path, node in IMPORTS:
        module = getattr(node, "module", None) or ""
        # each module imported, and each name imported from scipy that is a submodule
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [module] + [
            f"{module}.{a.name}" for a in node.names
            if module.split(".")[0] == "scipy" and importlib.util.find_spec(f"{module}.{a.name}")]
        yield from ((path, node, f"imports {name}") for name in names
                    if name.split(".")[0] == "scipy" and name not in ("scipy", "scipy.sparse"))


def unreferenced_private_names():
    used = {name for path, _, node, name in REFS
            if path in SRC and not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))}
    for path, tree in SRC.items():
        for node in tree.body:  # the names bound by imports, assignments, defs and classes
            targets = getattr(node, "targets", []) + ([node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            names += _bound(node) if isinstance(node, (ast.Import, ast.ImportFrom)) else [getattr(node, "name", "")]
            yield from ((path, node, f"{name} is referenced nowhere in src/modlie") for name in names
                        if name.startswith("_") and not name.startswith("__") and name not in used)


@pytest.mark.parametrize("rule", [guarded_names, asserts, unused_imports, scipy_modules, unreferenced_private_names])
def test_source_rule(rule):
    bad = [f"{path}:{node.lineno}: {what}" for path, node, what in rule()]
    assert not bad, "\n".join(bad)
