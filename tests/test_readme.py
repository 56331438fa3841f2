"""The README's library quick tour runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs_and_prints_what_it_says():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    # a comment right after a print line is the output the README promises
    lines = code.splitlines()
    promised = [nxt[2:] for line, nxt in zip(lines, lines[1:])
                if line.startswith("print(") and nxt.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert promised and out.getvalue().splitlines() == promised
