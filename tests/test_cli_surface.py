"""The command-line surface, pinned: every verb, flag and default.

``cli_surface.json`` was captured from ``build_parser()`` before the
fleet-scenario verbs started deriving their options from the scenario
config dataclasses; deriving must not add, drop or re-default a flag.
A deliberate CLI change regenerates the file (``surface`` below) and
shows up in review as a diff of it.

Every flag is also named where it is used (CI, the docs, the
benchmarks, the examples or ``tests/checks.py``): a flag with one value
in use is a constant, not an option.  And every command line the docs
and CI show still parses.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")
ROOT = GOLDEN.parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"


def surface(parser, verb=""):
    """``{verb: {flag: default}}`` over ``parser`` and its subparsers."""
    flags, out = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(surface(sub, f"{verb} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            name = "/".join(action.option_strings) or action.dest
            flags[name] = action.default
    out[verb] = flags
    return out


def test_every_verb_flag_and_default_matches_the_golden_map():
    # Through JSON, as the golden map went: tuples compare as lists.
    now = json.loads(json.dumps(surface(build_parser())))
    golden = json.loads(GOLDEN.read_text())
    assert sorted(now) == sorted(golden)
    for verb in golden:
        assert now[verb] == golden[verb], verb


def test_every_flag_is_named_where_it_is_used():
    readers = [
        CI,
        ROOT / "README.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / "tests" / "checks.py",
        *(ROOT / "docs").glob("*.md"),
        *(ROOT / "benchmarks").rglob("*"),
        *(ROOT / "examples").rglob("*"),
    ]
    text = "\n".join(
        path.read_text(errors="replace") for path in readers if path.is_file()
    )
    golden = json.loads(GOLDEN.read_text())
    unread = [
        f"{verb} {flag}"
        for verb, flags in golden.items()
        for flag in flags
        if flag.startswith("-")
        and not re.search(re.escape(flag) + r"(?![\w-])", text)
    ]
    assert unread == []


def joined(lines):
    """``lines`` with each backslash continuation folded into one line."""
    out, pending = [], ""
    for line in lines:
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
        else:
            out.append(line)
            pending = ""
    return out


def markdown_commands(path):
    """The lines of ``path``'s fenced code blocks, ``$ `` prompts cut."""
    lines, fenced = [], False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            lines.append(line.strip().removeprefix("$ "))
    return joined(lines)


def ci_commands():
    """The lines of ci.yml's ``run:`` steps, one- and many-line."""
    lines, block = [], None
    for line in CI.read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if block is not None and (indent > block or not line.strip()):
            lines.append(line)
            continue
        block = None
        key, run, value = line.strip().removeprefix("- ").partition("run:")
        if key or not run:
            continue
        if value.strip() == "|":
            block = indent
        else:
            lines.append(value)
    return joined(lines)


# A line with any of these names something only a shell or a reader
# fills in: a variable, a glob, a brace list, a <placeholder> or "...".
UNFILLED = re.compile(r"[$*?\[\]{}<>`]|\.\.\.")
RUNS_REPRO = re.compile(r"(^|\s-m\s+)repro(\s|$)")
SHELL_OPERATORS = {"&", "&&", "|", "||", ";", ">", "2>", ">>", "2>&1"}


def repro_argv(line):
    """The arguments after ``repro`` / ``python -m repro``, or ``None``
    when ``line`` runs no ``repro`` verb or has something unfilled."""
    if not RUNS_REPRO.search(line):
        return None
    tokens = shlex.split(line, comments=True)
    argv = []
    for token in tokens[tokens.index("repro") + 1:]:
        if token in SHELL_OPERATORS:
            break
        argv.append(token)
    if UNFILLED.search(" ".join(argv)):
        return None
    return argv


def documented_command_lines():
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    lines = [
        (path.relative_to(ROOT), line)
        for path in sources
        for line in markdown_commands(path)
    ]
    lines += [(CI.relative_to(ROOT), line) for line in ci_commands()]
    found = []
    for where, line in lines:
        argv = repro_argv(line)
        if argv is not None:
            found.append((str(where), argv))
    return found


DOCUMENTED = documented_command_lines()


def test_the_documented_command_lines_are_found():
    # A change that adds or drops a documented command line moves this.
    assert len(DOCUMENTED) == 46


@pytest.mark.parametrize(
    "where, argv", DOCUMENTED, ids=[" ".join(a[:3]) for _, a in DOCUMENTED]
)
def test_documented_command_line_parses(where, argv):
    build_parser().parse_args(argv)
