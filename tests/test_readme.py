"""The README's examples run as written and give the values they state."""

import ast
import re
import shlex
from pathlib import Path

from micdof import cli
from test_cli import _PINNED

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    # The first ```lang fenced block under the README's "## heading".
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.setenv("MICDOF_OUTPUT_DIR", str(tmp_path))
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("micdof ")]
    assert len(commands) == 10
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "sweep.csv").is_file() and (tmp_path / "sweep.csv.json").is_file()


def test_readme_library_example_gives_its_stated_values():
    code, namespace, stated = _block("Library", "python"), {}, []
    exec(compile(code, "README.md", "exec"), namespace)
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):  # prose, or no comment
            continue
        assert eval(expression, namespace) == value, line
        stated.append(value)
    assert stated == [3, 3, True, (), True]
    channel, batch = namespace["channel"], namespace["channels"][7]
    for link in ("h31", "h32", "h41", "h42"):
        assert getattr(batch, link).tobytes() == getattr(channel, link).tobytes()


def test_readme_counts_the_pinned_command_lines():
    # The README states how many command lines the CLI pins hash.
    stated = re.search(r"each of (\d+) command lines", README)
    assert stated and int(stated.group(1)) == len(_PINNED)
