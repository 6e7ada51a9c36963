import re
import shlex
from pathlib import Path

from idletune.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["solution"].timeout_s == 86.95746775431698


def console_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, lines shown after it) for each ``$`` line of the console blocks, in order."""
    examples: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"^```console\n(.*?)^```$", TEXT, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("$ "):
                examples.append((shlex.split(line[2:]), []))
            else:
                examples[-1][1].append(line)
    return examples


def assert_shown(argv: list[str], shown: list[str], printed: list[str]) -> None:
    # a last line "..." elides the lines after it; ", ...}" elides the rest of a line
    if shown and shown[-1] == "...":
        shown = shown[:-1]
        printed = printed[: len(shown)]
    assert len(printed) == len(shown), (argv, printed)
    for want, got in zip(shown, printed):
        if want.endswith(", ...}"):
            assert got.startswith(want[: -len("...}")]), (argv, got)
        else:
            assert got == want, argv


def test_console_examples_print_what_they_show(capsys, tmp_path, monkeypatch):
    # in order, in one directory: tune reads the events.jsonl that gen-log writes
    monkeypatch.chdir(tmp_path)
    examples = console_examples()
    for argv, shown in examples:
        if argv[0] == "idletune":
            main(argv[1:])
            printed = capsys.readouterr().out.splitlines()
        elif argv[:2] == ["head", "-2"]:
            printed = Path(argv[2]).read_text(encoding="utf-8").splitlines()[:2]
        else:
            # the acceptance suite's own run; starting it from here would recurse
            assert argv[:3] == ["python3", "-m", "pytest"], argv
            continue
        assert_shown(argv, shown, printed)
    assert sum(argv[0] == "idletune" for argv, _ in examples) >= 8


def test_every_flag_named_is_one_the_command_line_takes():
    parser = build_parser()
    commands = next(action.choices for action in parser._actions if isinstance(action.choices, dict))
    taken = {flag for p in [parser, *commands.values()] for action in p._actions for flag in action.option_strings}
    # pip's own flag, in the install instructions
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", TEXT)) - {"--no-build-isolation"}
    assert named and named <= taken, sorted(named - taken)
