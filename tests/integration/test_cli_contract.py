"""The CLI's parser contract: every command's flags, pinned by one digest.

The walk records, for every parser and subparser, each action's option
strings, dest, action class, type, default, const, choices, nargs,
required flag and metavar (help text is left out, so wording may
change).  Positionals keep their order; options are sorted, since their
declaration order only affects ``--help`` layout.  A refactor of
``build_parser`` that keeps this digest accepts exactly the same
command lines with the same defaults.
"""

import argparse
import hashlib
import json

from repro.cli import build_parser

#: Last re-recorded when ``repro analyze --bytes-per-flow`` lost its
#: parser default (``None``; shuffle mode resolves it to 64M), so that
#: join mode can refuse the flag instead of ignoring it.
CONTRACT_SHA256 = (
    "13a692ab7f03ff7816b064bfdc3bea95c9a3332a5235584ce6f413c9f14f3eaf"
)


def _value(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_value(item) for item in value]
    if isinstance(value, dict):
        return [str(key) for key in value]
    return getattr(value, "__name__", type(value).__name__)


def _action(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "class": type(action).__name__,
        "type": _value(action.type),
        "default": _value(action.default),
        "const": _value(action.const),
        "choices": _value(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "metavar": _value(action.metavar),
    }


def _walk(parser: argparse.ArgumentParser, path: str, out: dict) -> None:
    positionals = [a for a in parser._actions if not a.option_strings]
    options = sorted(
        (a for a in parser._actions if a.option_strings),
        key=lambda a: a.option_strings,
    )
    out[path] = {
        "positionals": [_action(a) for a in positionals],
        "options": [_action(a) for a in options],
    }
    for action in positionals:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _walk(sub, f"{path} {name}", out)


def parser_contract() -> str:
    out: dict = {}
    _walk(build_parser(), "repro", out)
    return json.dumps(out, sort_keys=True, indent=1)


def test_parser_contract_is_unchanged():
    contract = parser_contract()
    digest = hashlib.sha256(contract.encode()).hexdigest()
    if digest != CONTRACT_SHA256:
        print(contract)
    assert digest == CONTRACT_SHA256


def test_contract_covers_every_parser():
    contract = json.loads(parser_contract())
    # 20 parsers; 186 declared actions plus each parser's -h/--help.
    assert len(contract) == 20
    assert sum(
        len(p["positionals"]) + len(p["options"]) for p in contract.values()
    ) == 206
