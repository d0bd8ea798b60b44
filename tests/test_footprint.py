"""The counters of tests/footprint.py, in process: code lines and options."""

import argparse

from vlcfair import cli, config

import footprint

# every kind of line the code-line count leaves out, around code that
# spans lines
SOURCE = '''\
"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment alone
class Disc:
    """Class docstring."""

    def area(self, r):
        """Function
        docstring."""
        note = """a string
        that is no docstring"""
        return (math.pi
                * r ** 2)


async def wait():
    """Coroutine docstring."""
    return None
'''
# SOURCE's code lines alone
CODE = '''\
import math
class Disc:
    def area(self, r):
        note = """a string
        that is no docstring"""
        return (math.pi
                * r ** 2)
async def wait():
    return None
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    assert footprint.code_lines(CODE) == len(CODE.splitlines()) == 9
    assert footprint.code_lines(SOURCE) == 9


def test_options_block_counts_config_keys_and_each_commands_flags():
    lines = footprint.options()
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # each flag once, however many spellings it has; --help sets nothing
    flags = {
        name: len({id(a) for s, a in command._option_string_actions.items()
                   if s not in ("-h", "--help")})
        for name, command in commands.choices.items()
    }
    assert lines == [
        "### Options: config keys and flags per command",
        "```",
        f"{len(config._KEYS):6d} config keys, walk.point.<label> aside",
        *(f"{n:6d} flags of {name}" for name, n in flags.items()),
        "```",
    ]
