"""The README's library quick tour and command-line session run as written."""

import contextlib
import io
import pathlib
import re
import shlex

from quantales.cli import main

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


def test_readme_session_runs(tmp_path, monkeypatch, capsys):
    # the fenced block of `quantales` commands that starts with an example
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(quantales example .*?)```", text, re.S).group(1)
    steps = [shlex.split(line)
             for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in steps] == [
        ["quantales", "example"], ["quantales", "example"],
        ["quantales", "pullback-verify"], ["quantales", "report-verify"]]
    monkeypatch.chdir(tmp_path)
    for argv in steps:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr())
