"""README's examples use the API and the command line as they are: every
rx.<name>(...) call in its python blocks binds to the signature of a
public callable, and every --option of a `regime-extract <sub>` line in
its code blocks is one that build_parser() accepts for that subcommand."""
import argparse
import ast
import inspect
import re
from pathlib import Path

import regime_extract as rx
from regime_extract.cli import build_parser

README = (Path(__file__).resolve().parents[1]/"README.md").read_text()
# (language, body) of every fenced code block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _rx_calls():
    """(source, attribute chain after rx, positional count, keywords) of
    every call of an rx attribute in the python blocks."""
    for lang, body in BLOCKS:
        if lang != "python":
            continue
        for node in ast.walk(ast.parse(body)):
            chain, func = [], getattr(node, "func", None)
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            if (isinstance(node, ast.Call) and isinstance(func, ast.Name)
                    and func.id == "rx"):
                yield (ast.get_source_segment(body, node), chain,
                       len(node.args),
                       [k.arg for k in node.keywords if k.arg])


def _command_lines():
    """Every `regime-extract <sub> ...` line of the code blocks, with its
    backslash continuations joined."""
    for _, body in BLOCKS:
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("regime-extract "):
                yield line


def test_readme_calls_bind_to_the_public_api():
    calls, bad = list(_rx_calls()), []
    assert len(calls) >= 10
    for source, chain, n_args, keywords in calls:
        obj = rx
        for name in chain:
            obj = getattr(obj, name, None)
        if chain[0] not in rx.__all__ or not callable(obj):
            bad.append((source, "not a public callable"))
            continue
        try:
            inspect.signature(obj).bind(*[None]*n_args,
                                        **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append((source, str(exc)))
    assert not bad


def test_readme_command_lines_use_parser_options():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    lines, bad = list(_command_lines()), []
    assert len(lines) >= len(subs)
    for line in lines:
        name = line.split()[1]
        if name not in subs:
            bad.append((name, "no such subcommand"))
            continue
        for option in re.findall(r"(?<![\w-])--[a-z][\w-]*", line):
            if option not in subs[name]._option_string_actions:
                bad.append((name, option))
    assert not bad
