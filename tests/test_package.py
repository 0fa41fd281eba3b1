"""The library ships only what is reached, and draws only through ``rng``.

Every top-level function and class in ``src/qrandlab`` must be named, on
some chain of references, from ``cli.main``, from module-level code or
from a name that ``qrandlab/__init__.py`` imports.  A name is resolved
bare, by name or attribute, against every module's definitions at once;
that over-approximates what is reached, so a name collision can hide a
dead definition but never fail the test.  No module but ``rng`` reads
a ``SeededRng``'s numpy ``generator``, so the stream contract has one home,
and no module imports scipy: numpy is the one runtime dependency.
"""

import ast
from pathlib import Path

import qrandlab

PACKAGE = Path(qrandlab.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
# reached only from outside the package: CI's replays import it
OUTSIDE_ENTRIES = {"cli.strip_timing_fields"}


def referenced(node: ast.AST) -> set[str]:
    """Every bare name and attribute name read under ``node``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_reached():
    defined = {}  # "module.name" -> its definition
    roots = {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, DEFINITIONS):
                defined[f"{path.stem}.{stmt.name}"] = stmt
            elif isinstance(stmt, ast.ImportFrom):
                if path.stem == "__init__":  # the package's exports
                    roots |= {alias.asname or alias.name for alias in stmt.names}
            elif not isinstance(stmt, ast.Import):  # an import alone reads nothing
                roots |= referenced(stmt)
    reads = {}  # bare name -> the names its definitions read, in any module
    for key, stmt in defined.items():
        reads.setdefault(key.rpartition(".")[2], set()).update(referenced(stmt))

    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += reads.get(name, ())

    assert OUTSIDE_ENTRIES <= defined.keys()
    stale = sorted(key for key in OUTSIDE_ENTRIES if key.rpartition(".")[2] in reached)
    assert not stale, f"reached inside the package, so no longer an outside entry: {stale}"
    unreached = sorted(key for key in defined.keys() - OUTSIDE_ENTRIES if key.rpartition(".")[2] not in reached)
    assert not unreached, f"reached from no CLI command, module-level code or package export: {unreached}"


def test_only_rng_reads_the_numpy_generator():
    readers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "rng"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "generator"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert not readers, f"modules reading .generator past SeededRng: {readers}"


def test_no_module_imports_scipy():
    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy"
    )
    assert not importers, f"modules importing scipy, which only the test extra installs: {importers}"
