"""Byte-identical CLI output on a fixed corpus of commands.

`cli_corpus.json` holds, for each command of CORPUS in each output format,
the exit code and the sha256 of stdout. A change that alters what the CLI
prints or how it exits fails here; a deliberate change regenerates the file
with

    PYTHONPATH=src python tests/test_cli_corpus.py --write

and says in its change log why the output moved. Only stdout and the exit
code are recorded: error messages on stderr may be reworded freely.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regori
from regori.cli import main

DATA = Path(__file__).with_name("cli_corpus.json")

# The commands of tests/test_cli.py and of the README, plus regular origamis
# whose translation groups are large, and malformed input that must exit 2.
CORPUS = [
    ["stratum-exists", "H(10^5)"],
    ["stratum-exists", "H(1,2)"],
    ["stratum-exists", "H( 2^1 , 2 )"],
    ["stratum-exists", "H(13^6)"],
    ["stratum-exists", "H(3^6)"],
    ["t-of-g", "26"],
    ["t-of-g", "36"],
    ["t-of-g", "122"],
    ["t-of-g", "126"],
    ["t-of-g"],
    ["progression", "5"],
    ["progression", "7"],
    ["one-cylinder", "2"],
    ["one-cylinder", "3"],
    ["one-cylinder", "17"],
    ["one-cylinder", "1"],
    ["regular-origami", "--group", "sd(11,5,3)"],
    ["regular-origami", "--group", "sd(23,11,2)"],
    ["regular-origami", "--group", "sd(11,35,3)"],
    ["regular-origami", "--group", "sd(131,13,39)"],
    ["regular-origami", "--group", "sd(11,175,3)"],
    ["regular-origami", "--group", "psl(11,12)"],
    ["regular-origami", "--group", "psl(13,12)"],
    ["regular-origami", "--group", "klein(7)"],
    ["regular-origami", "--group", "q8w(1)"],
    ["regular-origami", "--group", "dp(sd(11,5,3),c(7))"],
    ["regular-origami", "--group", "c(4)", "--gens", "1,3"],
    ["regular-origami", "--group", "c(4)", "--gens=0,99"],
    ["regular-origami", "--group", "c(4)", "--gens=-1,1"],
    ["regular-origami", "--group", "c(4)", "--gens=1,4"],
    ["regular-origami", "--group", "c(4)", "--gens", "1"],
    ["regular-origami", "--group", "c(4)", "--gens", "a,b"],
    ["regular-origami", "--group", "c(4)", "--gens", "1,2,3"],
    ["regular-origami", "--group", "sd(11,175,3)", "--closure-budget", "1000"],
    ["psl-pair", "11", "12"],
    ["semidirect-exists", "11", "5"],
    ["semidirect-exists", "9", "5"],
    ["semidirect-exists", "11", "121"],
    ["enumerate", "6"],
    ["enumerate", "12"],
    ["enumerate", "0"],
    ["enumerate", "-3"],
    ["table", "appendix-a"],
    ["table", "appendix-a", "--rows", "26,122"],
    ["table", "summary-gm", "--m-max", "25"],
    ["verify-appendix-b", "21", "8"],
    ["verify-appendix-b", "99", "24"],
]

FORMATS = ("text", "json", "csv")


def key(fmt: str, argv: list) -> str:
    return " ".join(["--output", fmt, *argv])


def run_cli(argv: list) -> tuple:
    """Exit code and stdout of `regori ARGV`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def record(fmt: str, argv: list) -> dict:
    code, out = run_cli(["--output", fmt, *argv])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def _expected() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_output_unchanged(fmt, argv):
    assert record(fmt, argv) == _expected()[key(fmt, argv)]


# the first corpus command of each subcommand
FIRST_OF_EACH = list({argv[0]: argv for argv in reversed(CORPUS)}.values())


@pytest.mark.parametrize("argv", FIRST_OF_EACH, ids=" ".join)
def test_module_entry_point_output_unchanged(argv):
    """`python -m regori.cli` in a fresh interpreter prints what main() prints."""
    src = str(Path(regori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "regori.cli", "--output", "json", *argv],
                          env=env, capture_output=True)
    assert {"exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()} == _expected()[key("json", argv)]


def test_corpus_file_matches_command_list():
    assert set(_expected()) == {key(f, a) for a in CORPUS for f in FORMATS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_corpus.py --write")
    table = {key(f, a): record(f, a) for a in CORPUS for f in FORMATS}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DATA}")
