"""The CLI's flag table parses every command line as the argparse parser it replaced did.

``oracles.build_parser`` is that parser, kept unchanged. For argv drawn from the table
(every command, values valid, negative, malformed or missing, as ``--flag value`` and as
``--flag=value``, unknown flags, repeated flags, help) both give the same namespace, or
both exit 1, or both exit 0. Unique-prefix abbreviations are the one intended difference.
"""
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoramsey import cli
from oracles import build_parser

REFERENCE = build_parser()
OPTIONS = {name: options for name, (_, _, options) in cli.COMMANDS.items()}
ALL_FLAGS = {flag for options in OPTIONS.values() for flag, *_ in options}
#: values no option converts, or that argparse and the table both read as an option
MALFORMED = ["", "x", "1.5", "1e3", "0x10", " 7 ", "1_0", "nan", "-x", "-1e", "-.5", "--bogus", "-h"]


def outcome(parse, argv):
    """The parsed namespace as sorted (name, repr) pairs, or the exit code it raised."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return sorted((name, repr(value)) for name, value in vars(parse(argv)).items())
        except SystemExit as exc:
            return exc.code


def assert_same(argv):
    want = outcome(REFERENCE.parse_args, argv)
    assert want in (0, 1) or isinstance(want, list)
    assert outcome(cli.parse_args, argv) == want, argv


def values(kind):
    if isinstance(kind, tuple):
        valid = st.sampled_from(kind)
    elif kind is int:
        valid = st.integers(-2**70, 2**70).map(str)
    elif kind is float:
        valid = st.floats().map(repr)                       # -inf reads as an option
    else:
        valid = st.text("ab0.,=e/", max_size=6)
    # one value in eight malformed
    return st.integers(0, 7).flatmap(lambda pick: valid if pick else st.sampled_from(MALFORMED))


@st.composite
def option_tokens(draw, option, form=None):
    """One option as its argv tokens: bare, ``--flag value``, ``--flag=value`` or valueless."""
    flag, kind, _, _ = option
    form = form or draw(st.sampled_from(["separate"] * 5 + ["joined"] * 4 + ["missing"]))
    if isinstance(kind, bool):
        return [f"{flag}={draw(values(str))}"] if form == "joined" else [flag]
    if form == "missing":
        return [flag]
    value = draw(values(kind))
    return [f"{flag}={value}"] if form == "joined" else [flag, value]


@st.composite
def argvs(draw, command):
    options = OPTIONS[command]
    own = {flag for flag, *_ in options}
    # a prefix of an own flag would be an abbreviation, which argparse expands
    unknown = sorted(flag for flag in ALL_FLAGS | {"--bogus", "--workers", "--dx-log", "-x"}
                     if flag not in own and not any(o.startswith(flag) for o in own))
    groups = [draw(option_tokens(option, "separate")) for option in options
              if option[2] is cli.REQUIRED and draw(st.integers(0, 5))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            groups.append([draw(st.sampled_from(unknown)), *draw(st.lists(st.just("3"), max_size=1))])
        elif kind == 1:
            groups.append([draw(st.sampled_from(["-h", "--help"]))])
        else:
            groups.append(draw(option_tokens(draw(st.sampled_from(options)))))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_parses_as_argparse(command, data):
    assert_same(data.draw(argvs(command), label="argv"))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["--version=1"], ["bogus"], ["--bogus"],
    ["--bogus", "budget", "--config", "c"], ["-h", "budget"], ["--bogus", "--help"],
    ["budget", "--version"], ["budget", "--config", "c", "extra"], ["dicke", "--config", "c", "--l", "-3"],
    ["sweep", "--config", "c", "--param", "b_gradient", "--start", "-1e-05", "--stop=-.5"],
    ["visibility", "--config", "c", "--dx-linear", "--dx-linear", "--dx-count", "4", "--dx-count", "5"],
])
def test_top_level_and_pinned_lines_parse_as_argparse(argv):
    assert_same(argv)


def test_abbreviation_is_refused():
    """argparse expanded a unique prefix; the table takes only exact flags."""
    argv = ["budget", "--conf", "c"]
    assert outcome(REFERENCE.parse_args, argv) != 1
    assert outcome(cli.parse_args, argv) == 1


@pytest.mark.parametrize("argv, phrases", [
    (["--help"], ["Free-flight spin-force Ramsey", "dump-snapshots", "--version"]),
    (["visibility", "--help"], ["about 0.178 m K / T", "--dx-linear", "--tint-count TINT_COUNT",
                                "smallest separation (m), default 1e-9", "largest separation (m), default 1e-6",
                                "number of separations, default 50; log-spaced unless --dx-linear",
                                "space the separations linearly (default: logarithmically)",
                                "lowest internal temperature (K), default 300",
                                "highest internal temperature (K), default 1500",
                                "number of internal temperatures, linearly spaced, default 50"]),
    (["sweep", "-h"], ["no command samples, so it moves no number", "comma-separated explicit values",
                       "--param PARAM", "[--log]", "first value of a range sweep, in the swept key's SI unit",
                       "last value of a range sweep (included)",
                       "points of a range sweep, at least 2; linearly spaced unless --log"]),
])
def test_help_is_built_from_the_table(capsys, argv, phrases):
    with pytest.raises(SystemExit) as excinfo:
        cli.parse_args(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == 0 and err == "" and out.startswith("usage: nanoramsey")
    assert all(phrase in out for phrase in phrases)


def test_usage_error_names_the_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.parse_args(["sweep", "--config", "c", "--param", "theta", "--count", "many"])
    out, err = capsys.readouterr()
    assert excinfo.value.code == cli.EXIT_VALIDATION and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: nanoramsey sweep [-h] --config CONFIG")
    assert error == "nanoramsey sweep: error: argument --count: invalid int value: 'many'"
