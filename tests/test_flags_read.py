"""Every flag a subcommand declares is read by its command: a flag no
command reads would be accepted and silently ignored, even when it names a
file that does not exist. The cases are ``test_no_cycles.py``'s table of
valid commands, each parsed into a namespace that records the attributes
its command reads and then run through ``cli.run``."""

import argparse

import pytest

from permplace import cli
from test_no_cycles import COMMANDS, resolve, write_inputs


class Recording(argparse.Namespace):
    """A namespace that, once it holds a ``_reads`` set, adds to it the name
    of each of its attributes that is read."""

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if "_reads" in attrs and name in attrs:
            attrs["_reads"].add(name)
        return object.__getattribute__(self, name)


def declared(parser) -> dict:
    """Subcommand ("spec merge" for a nested one) -> {dest: flag} of each
    argument it declares; a flag is its longest option string, or the
    positional's name."""
    out = {}
    work = [("", parser)]
    while work:
        prefix, p = work.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                work += [(f"{prefix} {name}".strip(), sub) for name, sub in action.choices.items()]
            elif prefix and not isinstance(action, argparse._HelpAction):
                flag = max(action.option_strings, key=len, default=action.dest)
                out.setdefault(prefix, {})[action.dest] = flag
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


def test_every_declared_flag_is_read(files, capsys, monkeypatch):
    parser = cli.build_parser()
    parsed = []

    class RecordingParser:
        def parse_args(self, argv):
            args = parser.parse_args(argv, namespace=Recording())
            args._reads = set()
            parsed.append(args)
            return args

    monkeypatch.setattr(cli, "build_parser", RecordingParser)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)  # every read in this process
    read = {}
    for argv in COMMANDS.values():
        parsed.clear()
        assert cli.run(resolve(files, argv)) == 0, argv
        (args,) = parsed
        command = " ".join(argv[:2] if argv[0] == "spec" else argv[:1])
        read.setdefault(command, set()).update(args._reads)
    capsys.readouterr()
    unread = sorted(
        (command, flag)
        for command, flags in declared(parser).items()
        for dest, flag in flags.items()
        if dest not in read.get(command, ())
    )
    assert unread == []
