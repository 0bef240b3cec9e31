"""The command-line surface, pinned: every verb, flag and default.

``cli_surface.json`` was captured from ``build_parser()`` before the
fleet-scenario verbs started deriving their options from the scenario
config dataclasses; deriving must not add, drop or re-default a flag.
A deliberate CLI change regenerates the file (``surface`` below) and
shows up in review as a diff of it.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


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
