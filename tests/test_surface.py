"""The package's surface: every name in src/ has a caller outside the tests.

A top-level name of a dyckwalk module, public or private, must be
reached, through the names the package's own code refers to, from one of
three roots: the command line (the console script cli.main, and
python -m dyckwalk), the public names of dyckwalk.__all__, or a span of
perfbench/traced.py's TRACED table, which wraps functions by name.
Helpers that only the tests call live in tests/references.py.  The
modules are read with ast, not imported, and so is traced.py.
"""

import ast
from pathlib import Path

import dyckwalk

PACKAGE = Path(dyckwalk.__file__).resolve().parent
TRACED_PY = PACKAGE.parents[1] / "perfbench" / "traced.py"
# The dyckwalk console script.
COMMAND = ("cli", "main")

Ref = tuple[str, str]  # (module, top-level name)


def definitions(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines, if it is a definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class Module:
    """One module's top-level names, and what its code refers to."""

    def __init__(self, name: str, tree: ast.Module) -> None:
        self.tree = tree
        defined = {d for node in tree.body for d in definitions(node)}
        self.names: dict[str, Ref] = {d: (name, d) for d in defined}  # local name -> ref
        self.modules: dict[str, str] = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:  # from .poly import mul
                        self.names[local] = (node.module, alias.name)
                    else:  # from . import walk
                        self.modules[local] = alias.name

    def references(self, node: ast.AST) -> set[Ref]:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.names:
                found.add(self.names[sub.id])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in self.modules:
                    found.add((self.modules[sub.value.id], sub.attr))
        return found


def traced_spans() -> set[Ref]:
    """The (module, function) pairs of traced.py's TRACED table."""
    for node in ast.parse(TRACED_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return {(value.elts[0].id, value.elts[1].value) for value in node.value.values}
    raise AssertionError(f"no TRACED table in {TRACED_PY}")


def resolve(modules: dict[str, Module], ref: Ref) -> Ref:
    """The definition that a module's name stands for, own or imported;
    a name the module does not hold stands for itself."""
    module, name = ref
    return modules[module].names.get(name, ref) if module in modules else ref


def surface() -> tuple[set[Ref], set[Ref]]:
    """Every top-level name of the package, and those reached from a root."""
    modules = {path.stem: Module(path.stem, ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[Ref, set[Ref]] = {}
    roots = {COMMAND} | {resolve(modules, span) for span in traced_spans()}
    for stem, module in modules.items():
        for node in module.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = definitions(node)
            if not names:  # code run on import, such as __main__'s call of main
                roots |= module.references(node)
            for name in names:
                uses[(stem, name)] = module.references(node)
                if is_dunder(name):  # called by Python itself, such as __getattr__
                    roots.add((stem, name))
    for name in dyckwalk.__all__:  # __getattr__ loads the walk names on first use
        roots.add(modules["__init__"].names.get(name, ("walk", name)))
    reached, todo = set(), list(roots)
    while todo:
        ref = todo.pop()
        if ref not in reached:
            reached.add(ref)
            todo.extend(uses.get(ref, ()))
    return set(uses), reached


def test_every_name_in_src_has_a_caller_outside_the_tests():
    defined, reached = surface()
    assert sorted(defined - reached) == []
    # and every root is defined: a TRACED span that names nothing would
    # break every traced benchmark run
    assert sorted(reached - defined) == []


def test_walk_imports_only_heightpoly_and_the_fork_helpers():
    # The tests check walk's exact routes against genfunc's closed form, so
    # walk takes none of its counting code: from genfunc only the process
    # helpers that split a run of many pools between two CPUs.
    tree = ast.parse((PACKAGE / "walk.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert {module for module, _ in imported} == {"heightpoly", "genfunc"}
    assert {name for module, name in imported if module == "genfunc"} == {"_in_child"}


# What forks, pipes, reaps or kills a child, or decides whether one runs.
FORK_POINTS = {"os.fork", "os.pipe", "os.waitpid", "os.kill", "_second_cpu"}


def spellings(node: ast.AST):
    """Each name and module.attribute that a statement writes or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield f"{sub.value.id}.{sub.attr}"
        elif isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.ImportFrom):  # from os import fork
            for alias in sub.names:
                yield from (alias.name, f"{sub.module}.{alias.name}")


def test_only_the_fork_helpers_fork_or_decide_to():
    # A third forking caller goes through _in_child, as count_table and
    # walk.simulate do, and so gets its CPU test and every fallback.
    found = {
        ((path.stem, getattr(node, "name", None)), spelled)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        for spelled in spellings(node)
        if spelled in FORK_POINTS
    }
    assert {owner for owner, _ in found} == {("genfunc", "_in_child"), ("genfunc", "_from_child")}
    assert {spelled for _, spelled in found} == FORK_POINTS
