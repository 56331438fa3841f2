"""The library's invariants survive `python -O` and name what they catch,
and its import generates no code.

`python -O` strips `assert` statements, so no library check may be one;
a bare `except:` or an `except Exception` (or `BaseException`) would
swallow the errors that the checks raise.  The records are plain slotted
classes (`records`), so the package imports neither `dataclasses` nor,
through it, `inspect`.  This test parses `src/quantales/*.py` with `ast`
and fails on any of them, and checks the modules that a fresh
interpreter loads.
"""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quantales"
UNUSED_MODULES = ("dataclasses", "inspect")

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
    """(line, what) of each assert, bare except, broad except and import
    of `dataclasses`."""
    out = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, "import dataclasses") for alias in node.names
                    if alias.name.split(".")[0] == "dataclasses"]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "dataclasses"):
            out.append((node.lineno, "from dataclasses"))
        elif isinstance(node, ast.ExceptHandler):
            names = _caught_names(node)
            if names is None:
                out.append((node.lineno, "bare except"))
            elif names & BROAD:
                out.append((node.lineno, f"except {sorted(names & BROAD)}"))
    return sorted(out)


def test_the_checker_finds_each_offence():
    source = ("assert x\n"
              "try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept Exception:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, builtins.BaseException):\n"
              "    pass\n"
              "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n"
              "import os, dataclasses\n"
              "from dataclasses import dataclass\n"
              "import dataclasses_json\n")
    assert offences(source) == [
        (1, "assert"), (4, "bare except"), (8, "except ['Exception']"),
        (12, "except ['BaseException']"), (18, "import dataclasses"),
        (19, "from dataclasses")]


def test_the_library_has_no_assert_and_no_broad_except():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {what}" for path in paths
             for line, what in offences(path.read_text(), str(path))]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site packages, so that only the
    # package's own imports load modules; this checks what is loaded, not
    # how long it takes
    code = ("import sys\n"
            f"before = {{m for m in {UNUSED_MODULES!r} if m in sys.modules}}\n"
            "import quantales.cli\n"
            f"print(sorted(before), [m for m in {UNUSED_MODULES!r} "
            "if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split("\n") == ["[] []", ""]
