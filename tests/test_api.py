"""Every public name that a src/ module defines at module level, exported by antoine or not, has a caller
outside tests/: in a src/ module other than __init__.py, in scripts/, in perfbench/ or in a README python
block (which CI runs). A use inside the definition of a name that has no caller does not count, so a chain
of names that only call each other fails too."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antoine"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def public_names() -> set[str]:
    """The names without a leading underscore that a def, a class or an assignment binds at the top level of
    a src/ module other than __init__.py."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names |= {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def references(source: str, owned: bool):
    """(owner, identifier) for every name, attribute and identifier string the source reads. The owner is the
    top-level def or class the read sits in when owned is set (package modules), else None. Strings count
    because perfbench looks the functions it wraps up by name."""
    for stmt in ast.parse(source).body:
        owner = stmt.name if owned and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):  # a binding is no read
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                yield owner, node.value


def all_references() -> list[tuple[str | None, str]]:
    refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            refs += references(path.read_text(), owned=True)
    for path in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        refs += references(path.read_text(), owned=False)
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        refs += references(block, owned=False)
    return refs


def uncalled(names: set[str], refs: list[tuple[str | None, str]]) -> set[str]:
    """The names with no reference from outside their own definition or from a name that is itself uncalled."""
    dead: set[str] = set()
    while True:
        live = {name for owner, name in refs if owner not in dead and owner != name}
        grown = names - live
        if grown == dead:
            return dead
        dead = grown


def test_every_public_name_has_a_caller():
    names = public_names()
    assert exported_names() <= names  # so the exported names are among those checked
    dead = uncalled(names, all_references())
    assert not dead, f"public with no caller outside tests/: {sorted(dead)}"


def test_a_chain_of_uncalled_names_is_uncalled():
    refs = [("a", "b"), ("b", "c"), (None, "d"), ("d", "d")]
    assert uncalled({"a", "b", "c", "d"}, refs) == {"a", "b", "c"}
