"""The README's examples: each value its comments state is what the code returns."""

import json
import re
import shlex
from pathlib import Path

import dyckwalk
from dyckwalk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# the results field that holds the values a command's comment states
STATED_FIELD = {"table": "counts", "hpoly": "coeffs"}


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_python_example_returns_the_commented_values():
    (block,) = code_blocks("python")
    namespace = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        # "value" or "value, remark": a remark starts with a word, and
        # "equals expr" in one is checked too
        value, remark = re.fullmatch(r"(.*?)(?:, ([a-z].*))?", comment.strip()).groups()
        got = eval(code, namespace)
        assert got == eval(value, namespace), line
        if remark and remark.startswith("equals "):
            assert got == eval(remark.removeprefix("equals "), vars(dyckwalk)), line
        checked.append(code.strip())
    assert len(checked) == 5


def test_commands_print_the_commented_values(capsys):
    checked = []
    for block in code_blocks("sh"):
        lines = block.splitlines()
        for comment, command in zip(lines, lines[1:]):
            stated = re.fullmatch(r"# .*: (-?\d+(?: -?\d+)*)", comment)
            if stated and command.startswith("dyckwalk "):
                argv = shlex.split(command)[1:]
                assert main(argv) == 0
                results = json.loads(capsys.readouterr().out)["results"]
                assert results[STATED_FIELD[argv[0]]] == stated.group(1).split(), command
                checked.append(argv[0])
    assert sorted(checked) == ["hpoly", "table"]
