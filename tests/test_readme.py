"""README examples stay in step with the package: every `netcomplexity`
command in an `sh` block parses with the real parser, and none of them is
run; the library example in the `python` block runs and prints what its
comments say."""

import re
import shlex
from pathlib import Path

import pytest

from netcomplexity.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def readme_commands():
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "netcomplexity":
                commands.append(words[1:])
    return commands


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"usage error (exit {exc.code}) for: netcomplexity {' '.join(argv)}")


def test_readme_library_example_runs(capsys):
    (block,) = readme_blocks("python")
    namespace = {}
    exec(block, namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1.4309526058794129", "3"]
    cells = namespace["profile"].cells
    assert len(cells) == 5
    assert lines[2:] == [f"{c.scale} {c.size} {c.deviation}" for c in cells]
