"""Every definition in the library has a caller in the library or perfbench.

A top-level function or class of `src/quantales/*.py`, or a public method
of such a class, that only its own tests call is surface to maintain with
no use.  This test parses the modules with `ast` and requires each such
name to be referenced from `src/` or `perfbench/` outside its own
definition: as a Name, an Attribute or an import alias.  The dotted
strings by which `perfbench/tracing.py` patches functions bind a name
without calling it, so they do not count.  `__init__.py` is left out,
since its re-exports would count every exported name as used.  A name
without such a reference must be on `ALLOWED` with its reason.

The check is by name, so a reference to any definition of the same name
counts: it can miss an unused name, but it never flags a used one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantales"

ALLOWED = {
    "tensor.induced_from_bimorphism":
        "the tensor acceptance test checks the universal property with it",
    "nucleus.quotient_by_relation":
        "the nucleus acceptance test and the README quick tour use it",
    "suplattice.right_adjoint":
        "perfbench/tracing.py binds it, and nothing calls it",
    "quantale.ensure_left_adjoint":
        "perfbench/tracing.py binds it, and nothing calls it",
}


def _sources():
    src = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return src, src + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(path):
    """(qualified name, first line, last line) of each checked definition."""
    module = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        out.append((f"{module}.{node.name}", node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}",
                                item.lineno, item.end_lineno))
    return out


def _references(path):
    """name -> lines of `path` that refer to it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    refs = {}

    def add(name, line):
        refs.setdefault(name, []).append(line)

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            add(node.id, node.lineno)
        elif isinstance(node, ast.Attribute):
            add(node.attr, node.lineno)
        elif isinstance(node, ast.alias):
            add(node.name, node.lineno)
    return refs


def unreferenced():
    """Qualified names of definitions that nothing outside them refers to."""
    defined, readers = _sources()
    refs = {path: _references(path) for path in readers}
    out = []
    for path in defined:
        for qualname, first, last in _definitions(path):
            name = qualname.rsplit(".", 1)[1]
            if not any(line < first or line > last or other != path
                       for other, by_name in refs.items()
                       for line in by_name.get(name, ())):
                out.append(qualname)
    return out


def test_every_definition_has_a_caller_or_a_reason():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_unreferenced():
    assert sorted(set(ALLOWED) - set(unreferenced())) == []
