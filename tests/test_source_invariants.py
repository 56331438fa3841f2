"""The library's invariants survive `python -O` and name what they catch.

`python -O` strips `assert` statements, so no library check may be one;
a bare `except:` or an `except Exception` (or `BaseException`) would
swallow the errors that the checks raise.  This test parses
`src/quantales/*.py` with `ast` and fails on any of them.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quantales"

BROAD = {"Exception", "BaseException"}


def _caught_names(handler):
    """The names an except clause catches; None for a bare `except:`."""
    if handler.type is None:
        return None
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)
            for k in kinds}


def offences(source, filename="<source>"):
    """(line, what) of each assert, bare except and broad except."""
    out = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        elif isinstance(node, ast.ExceptHandler):
            names = _caught_names(node)
            if names is None:
                out.append((node.lineno, "bare except"))
            elif names & BROAD:
                out.append((node.lineno, f"except {sorted(names & BROAD)}"))
    return out


def test_the_checker_finds_each_offence():
    source = ("assert x\n"
              "try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept Exception:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, builtins.BaseException):\n"
              "    pass\n"
              "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n")
    assert offences(source) == [
        (1, "assert"), (4, "bare except"), (8, "except ['Exception']"),
        (12, "except ['BaseException']")]


def test_the_library_has_no_assert_and_no_broad_except():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {what}" for path in paths
             for line, what in offences(path.read_text(), str(path))]
    assert found == []
