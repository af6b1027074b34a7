#!/usr/bin/env python
"""Generate ``docs/cli-reference.md`` from the CLI's own parser tree.

The reference page is derived, never hand-edited: this script walks
``repro.cli._build_parser()`` and renders every subcommand's arguments
with its *own* deterministic formatter (argparse's help formatting
changes across Python versions; a page generated on 3.13 must diff
clean against one generated on 3.11).  CI runs ``--check`` on every
push, so a CLI change that forgets to regenerate the page fails the
docs job::

    python scripts/gen_cli_docs.py           # rewrite docs/cli-reference.md
    python scripts/gen_cli_docs.py --check   # fail if the page is stale
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PAGE = REPO_ROOT / "docs" / "cli-reference.md"

HEADER = """\
# CLI reference

<!-- Generated by scripts/gen_cli_docs.py -- do not edit by hand.
     Regenerate with: python scripts/gen_cli_docs.py
     (CI runs `gen_cli_docs.py --check` and fails when this page is
     stale.) -->

Every subcommand of `python -m repro.cli`, from the parser itself.
For task-oriented walkthroughs see
[running-experiments.md](running-experiments.md) (paper artifacts,
execution knobs) and [serving.md](serving.md) (the query service).
"""


def _help_text(action: argparse.Action) -> str:
    """One-line help, with argparse's ``%%`` escape undone."""
    text = (action.help or "").replace("%%", "%")
    return " ".join(text.split())


def _value_spec(action: argparse.Action) -> str:
    """The value placeholder after a flag (empty for store-true)."""
    if action.nargs == 0:
        return ""
    if action.choices is not None:
        return "{" + ",".join(str(c) for c in action.choices) + "}"
    if action.metavar is not None:
        return str(action.metavar)
    return action.dest.upper()


def _qualifiers(action: argparse.Action) -> list[str]:
    quals: list[str] = []
    if action.option_strings and action.required:
        quals.append("required")
    if action.option_strings and isinstance(
        action, argparse._AppendAction
    ):
        quals.append("repeatable")
    default = action.default
    hidden = (  # no default, or one the rendering would only repeat
        default is None
        or default is argparse.SUPPRESS
        or default is False
        or default == [] and isinstance(default, (list, tuple))
    )
    if not hidden:
        quals.append(f"default: {default}")
    if action.nargs == "?" and not action.option_strings:
        quals.append("optional")
    return quals


def _render_action(action: argparse.Action) -> str:
    quals = []
    if action.option_strings:
        name = ", ".join(action.option_strings)
        value = _value_spec(action)
        head = f"`{name} {value}`" if value else f"`{name}`"
    else:
        value = f" {action.metavar}" if action.metavar else ""
        head = f"`{action.dest}{value}`"
        if action.choices is not None:
            quals.append(
                "one of " + ", ".join(str(c) for c in action.choices)
            )
    quals += _qualifiers(action)
    suffix = f" ({'; '.join(quals)})" if quals else ""
    help_text = _help_text(action)
    body = f" — {help_text}" if help_text else ""
    return f"* {head}{suffix}{body}"


def _subcommands(
    parser: argparse.ArgumentParser,
) -> list[tuple[str, str, argparse.ArgumentParser]]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {
                choice.dest: choice.help or ""
                for choice in action._choices_actions
            }
            return [
                (name, helps.get(name, ""), sub)
                for name, sub in action.choices.items()
            ]
    raise AssertionError("parser has no subcommands")


def render() -> str:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import _build_parser

    parser = _build_parser()
    lines = [HEADER]
    names = [name for name, _help, _sub in _subcommands(parser)]
    lines.append(
        "Subcommands: "
        + " · ".join(f"[`{n}`](#{n.replace(' ', '-')})" for n in names)
        + "\n"
    )
    for name, help_text, sub in _subcommands(parser):
        lines.append(f"## {name}")
        lines.append("")
        if help_text:
            sentence = help_text[0].upper() + help_text[1:]
            lines.append(f"{sentence}.")
            lines.append("")
        actions = [
            a
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        if actions:
            for action in actions:
                lines.append(_render_action(action))
        else:
            lines.append("*(no arguments)*")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    args = argparse.ArgumentParser(description=__doc__)
    args.add_argument(
        "--check",
        action="store_true",
        help="verify docs/cli-reference.md matches the parser; "
        "exit 1 (without writing) when it is stale",
    )
    opts = args.parse_args(argv)
    content = render()
    if opts.check:
        committed = PAGE.read_text() if PAGE.exists() else ""
        if committed != content:
            print(
                f"{PAGE.relative_to(REPO_ROOT)} is stale: regenerate "
                "with 'python scripts/gen_cli_docs.py'",
                file=sys.stderr,
            )
            return 1
        print(f"{PAGE.relative_to(REPO_ROOT)} is up to date")
        return 0
    PAGE.write_text(content)
    print(f"wrote {PAGE.relative_to(REPO_ROOT)} ({len(content)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
