"""The README's examples and names: each value its comments state is what
the code returns, each package name it cites exists, and it names every
ceiling of the CLI."""

import importlib
import itertools
import json
import re
import shlex
from pathlib import Path

import dyckwalk
from dyckwalk import cli
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


def test_named_module_attributes_exist():
    # a backticked `module.name` of a dyckwalk module must still be there
    package = Path(dyckwalk.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    named = re.findall(r"`(\w+)\.(\w+)`", README.read_text())
    checked = [(module, name) for module, name in named if module in modules]
    for module, name in checked:
        assert hasattr(importlib.import_module(f"dyckwalk.{module}"), name), f"{module}.{name}"
    assert checked


def test_every_ceiling_is_named():
    # a MAX_* constant of the CLI is an input ceiling, documented with the
    # others, and a ceiling the README names is one of the CLI's
    ceilings = [name for name in vars(cli) if name.startswith("MAX_")]
    text = README.read_text()
    assert [name for name in ceilings if f"`{name}`" not in text] == []
    assert [name for name in re.findall(r"`(MAX_\w+)`", text) if not hasattr(cli, name)] == []
    assert ceilings


def test_exit_code_table_is_the_clis():
    # the rows under "Exit codes:", code and status, against cli's own
    after = README.read_text().split("\nExit codes:\n", 1)[1].lstrip("\n")
    lines = itertools.takewhile(lambda line: line.startswith("|"), after.splitlines())
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]
    assert rows[0][:2] == ["code", "status"]
    documented = {int(code): status for code, status, _ in rows[2:]}
    assert documented == {code: status for status, code in cli._EXIT_CODES.items()} | {
        cli.EXIT_BROKEN_PIPE: "none"
    }
