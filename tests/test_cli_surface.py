"""The CLI surface is pinned: every command's options, as argparse sees them.

``tests/data/cli_surface_v1.json`` records, for each (sub)command, its
help line, its mutually exclusive groups and, per argument, the option
strings, dest, default, choices, required flag, nargs, type name and help.
It is read from the parser objects, not from ``--help`` text, whose
layout depends on the Python version and the terminal width.  Positional
arguments are compared in order (it decides how argv is parsed); options
are compared by dest, so regrouping them in ``build_parser`` is free.

Regenerate after a deliberate surface change with::

    PYTHONPATH=src python -m tests.test_cli_surface > tests/data/cli_surface_v1.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "data" / "cli_surface_v1.json"


def _argument(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "nargs": action.nargs,
        "type": None if action.type is None else action.type.__name__,
        "help": action.help,
    }


def cli_surface(parser: argparse.ArgumentParser | None = None) -> dict:
    """``{"<command path>": {...}}`` for every (nested) subcommand."""
    surface: dict = {}

    def walk(node: argparse.ArgumentParser, path: str, help_text) -> None:
        arguments = []
        for action in node._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                helps = {a.dest: a.help for a in action._choices_actions}
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}".strip(), helps.get(name))
                continue
            arguments.append(_argument(action))
        surface[path] = {
            "help": help_text,
            "arguments": arguments,
            "exclusive_groups": [
                {
                    "required": group.required,
                    "dests": [a.dest for a in group._group_actions],
                }
                for group in node._mutually_exclusive_groups
            ],
        }

    walk(parser or build_parser(), "", None)
    return dict(sorted(surface.items()))


def _comparable(command: dict) -> dict:
    positionals = [a for a in command["arguments"] if not a["option_strings"]]
    options = [a for a in command["arguments"] if a["option_strings"]]
    return {
        **command,
        "arguments": positionals + sorted(options, key=lambda a: a["dest"]),
    }


def test_parser_reproduces_pinned_surface():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(cli_surface()))
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert _comparable(actual[command]) == _comparable(expected[command]), (
            command
        )


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(cli_surface(), indent=1))
