"""The README's command-line examples run and exit with the codes it documents."""

import pathlib
import re
import shlex

from shockcop.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, expected exit code) for each ``shockcop`` line of the Command line block,
    with ``\\`` continuations joined; a line marked ``# exit 1`` expects 1, any other 0."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [
        (shlex.split(line, comments=True)[1:], 1 if re.search(r"#\s*exit 1\b", line) else 0)
        for line in block.splitlines()
        if line.startswith("shockcop ")
    ]


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the lines write and read files such as pairs.csv
    commands = readme_commands()
    assert len(commands) >= 10
    got = []
    for argv, _ in commands:
        got.append(main(argv))
        capsys.readouterr()
    assert got == [code for _, code in commands], [" ".join(argv) for argv, _ in commands]
