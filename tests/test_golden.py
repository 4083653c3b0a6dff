"""Golden CLI output: stdout and exit code of every command on every
shipped fixture, human and ``--json``, at the default bound.

Timing goes to stderr, so stdout is compared byte for byte.  After an
intended output change, regenerate the files under ``tests/golden/`` with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import glob
import io
import os
import re
import subprocess
import sys

import pytest

from tck import cli
from test_cli import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")
SHIPPED = sorted(
    os.path.relpath(path, FIXTURES)
    for path in glob.glob(os.path.join(FIXTURES, "**", "*.site"), recursive=True)
)


def golden_path(fixture: str) -> str:
    return os.path.join(GOLDEN, os.path.splitext(fixture)[0] + ".out")


def render(fixture: str) -> str:
    """Every command on one fixture, each run headed by its exit code."""
    path = os.path.join(FIXTURES, fixture)
    blocks = []
    for command in cli.COMMANDS:
        for flags in ((), ("--json",)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, path, *flags])
            head = " ".join(("tck", command, fixture, *flags))
            blocks.append(f"=== {head} -> exit {code}\n{out.getvalue()}")
    return "".join(blocks)


def test_every_fixture_has_a_golden_file():
    assert len(SHIPPED) == 7
    written = glob.glob(os.path.join(GOLDEN, "**", "*.out"), recursive=True)
    assert sorted(written) == sorted(golden_path(f) for f in SHIPPED)


@pytest.mark.parametrize("fixture", SHIPPED)
def test_cli_output_matches_golden(fixture, monkeypatch):
    monkeypatch.delenv("TCK_BOUND", raising=False)
    with open(golden_path(fixture), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert render(fixture) == expected


def golden_runs(fixture: str) -> dict[str, tuple[int, str]]:
    """The golden file's runs: head -> (exit code, stdout)."""
    with open(golden_path(fixture), encoding="utf-8", newline="") as fh:
        parts = re.split(r"^=== (.*) -> exit (\d+)\n", fh.read(), flags=re.M)
    return {head: (int(code), out) for head, code, out in zip(*[iter(parts[1:])] * 3)}


def check_fresh_processes(fixture: str, commands: tuple[str, ...]) -> None:
    """Each command, human and --json, in a new interpreter under two hash
    seeds, against the golden file's run."""
    expected = golden_runs(fixture)
    env = child_env()
    env.pop("TCK_BOUND", None)
    for command in commands:
        for flags in ((), ("--json",)):
            head = " ".join(("tck", command, fixture, *flags))
            for seed in ("0", "1"):
                run = subprocess.run(
                    [sys.executable, "-m", "tck.cli", command,
                     os.path.join(FIXTURES, fixture), *flags],
                    capture_output=True, env={**env, "PYTHONHASHSEED": seed},
                )
                assert (run.returncode, run.stdout.decode("utf-8")) == expected[head], \
                    (head, seed)


@pytest.mark.parametrize("fixture", ["NonSeparated.site", "OpenSite.site"])
def test_sheaf_commands_match_golden_in_a_fresh_process_under_two_hash_seeds(fixture):
    # tables keyed by value tuples and dicts must not follow set or hash order
    check_fresh_processes(fixture, ("sheafify", "check-sheaf"))


@pytest.mark.parametrize("fixture", ["NonSeparated.site", "WalkingArrow.site"])
def test_classifier_commands_match_golden_in_a_fresh_process_under_two_hash_seeds(fixture):
    # the parts of a map into the classifier are derived from its fibre
    # functor when read, and must come out in the same order every time
    check_fresh_processes(fixture, ("char", "roundtrip", "ff-check"))


if __name__ == "__main__":
    os.environ.pop("TCK_BOUND", None)
    for fixture in SHIPPED:
        target = golden_path(fixture)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(fixture))
        print(target, file=sys.stderr)
