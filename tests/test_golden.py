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


def fresh_run(args: list[str], seed: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the interpreter run with args, in a
    new process under one hash seed, at the default bound."""
    env = child_env(PYTHONHASHSEED=seed)
    env.pop("TCK_BOUND", None)
    run = subprocess.run([sys.executable, *args], capture_output=True, env=env)
    return run.returncode, run.stdout.decode("utf-8"), run.stderr.decode("utf-8")


def check_fresh_processes(fixture: str, commands: tuple[str, ...]) -> None:
    """Each command, human and --json, in a new interpreter under two hash
    seeds, against the golden file's run."""
    expected = golden_runs(fixture)
    for command in commands:
        for flags in ((), ("--json",)):
            head = " ".join(("tck", command, fixture, *flags))
            for seed in ("0", "1"):
                args = ["-m", "tck.cli", command, os.path.join(FIXTURES, fixture), *flags]
                assert fresh_run(args, seed)[:2] == expected[head], (head, seed)


@pytest.mark.parametrize("fixture", ["NonSeparated.site", "OpenSite.site"])
def test_sheaf_commands_match_golden_in_a_fresh_process_under_two_hash_seeds(fixture):
    # tables keyed by value tuples and dicts must not follow set or hash order
    check_fresh_processes(fixture, ("sheafify", "check-sheaf"))


@pytest.mark.parametrize("fixture", ["NonSeparated.site", "WalkingArrow.site"])
def test_classifier_commands_match_golden_in_a_fresh_process_under_two_hash_seeds(fixture):
    # the parts of a map into the classifier are derived from its fibre
    # functor when read, and must come out in the same order every time
    check_fresh_processes(fixture, ("char", "roundtrip", "ff-check"))


def test_descent_commands_match_golden_in_a_fresh_process_under_two_hash_seeds():
    # validate and probe-omega-j check a sheaf descent datum, check-stack
    # walks descent data over each least cover
    check_fresh_processes("OpenSite.site", ("validate", "check-stack", "probe-omega-j"))


SIX_SEEDS = [str(seed) for seed in range(1, 7)]

BAD_DESCENT_SCRIPT = """
from fixture_corpus import constant_cat_presheaf, open_site
from tck.fincat import discrete_category
from tck.site import maximal_sieve
from tck.stacks import DescentDatum, validate_descent

OS = open_site()
F = constant_cat_presheaf(OS, discrete_category(["x", "y"]))
S = maximal_sieve(OS, "T")
isos = {(f, g): "u" for f in S.arrows for g in OS.arrows_into(OS.dom(f))}
for m in ("zz", "x"):
    d = DescentDatum(F, S, {f: m for f in S.arrows}, isos)
    print(validate_descent(d).counterexamples)
"""


def test_validate_descent_reports_its_first_failure_in_sieve_plan_order_under_six_seeds():
    # every object is bad, and then every iso is; the datum's tables are
    # built in set order, and the failure named is still the first one in
    # sieve-plan order: sorted arrows, then the arrows into each domain
    out = "[('objects', 'L_T', 'zz')]\n[('iso-typing', 'L_T', 'L_L', 'u')]\n"
    for seed in SIX_SEEDS:
        assert fresh_run(["-c", BAD_DESCENT_SCRIPT], seed) == (0, out, ""), seed


def open_site_variant(tmp_path, text: str, header: str) -> tuple[str, int]:
    """text written to a file, and the line of its block headed by header."""
    path = tmp_path / "variant.site"
    path.write_text(text, encoding="utf-8")
    return str(path), text.splitlines().index(header) + 1


def read_open_site() -> str:
    with open(os.path.join(FIXTURES, "OpenSite.site"), encoding="utf-8") as fh:
        return fh.read()


def test_a_missing_sheaf_iso_is_named_in_sieve_plan_order_under_six_seeds(tmp_path):
    # without its isos at O_O the datum misses one iso at each of its arrows
    text, deleted = re.subn(r"^  iso \S+ \S+ at O_O : .*\n", "", read_open_site(), flags=re.M)
    assert deleted == 3
    header = "descent_datum DInduced sheaves on OpenSite topology J at T sieve SJoint"
    path, line = open_site_variant(tmp_path, text, header)
    err = f"error: line {line}: iso for ('L_T', 'O_L') missing\n"
    for seed in SIX_SEEDS:
        assert fresh_run(["-m", "tck.cli", "validate", path], seed) == (3, "", err), seed


def test_a_foreign_object_under_identity_isos_is_named_in_sieve_plan_order_under_six_seeds(
        tmp_path):
    header = "descent_datum DBad over FStack at T sieve SJoint"
    block = [header, "  object L_T : zz", "  object O_T : zz", "  object R_T : zz",
             "  identity-isos", "end", ""]
    path, line = open_site_variant(tmp_path, read_open_site() + "\n" + "\n".join(block), header)
    err = f"error: line {line}: object 'zz' for 'L_T' is not in FStack(L)\n"
    for seed in SIX_SEEDS:
        assert fresh_run(["-m", "tck.cli", "validate", path], seed) == (3, "", err), seed


def test_sheaf_commands_do_not_depend_on_the_hash_seed(tmp_path):
    # plus walks the plan's compiled arrow list and sorts the restriction
    # tuples of a maximal cover; neither may follow set or hash order.  The
    # constant presheaf on four values has 64 sections at the top of Z++, so
    # its labels are sorted past q9
    from test_site import powerset_site
    from tck.corpus import presheaf_corpus
    from tck.docbuild import DocumentBuilder
    from tck.docformat import serialize
    from tck.fincat import constant_presheaf

    j = powerset_site(3)
    cat = j.base
    b = DocumentBuilder()
    b.category("P3", cat)
    b.topology("J", j, "P3")
    zs = presheaf_corpus(cat, 0)
    for name, Z in (("Z0", zs[0]), ("Z46", zs[46]), ("K4", constant_presheaf(cat, "abcd"))):
        b.setpresheaf(name, Z, ("cat", "P3"))
    generated = tmp_path / "Powerset3.site"
    generated.write_text(serialize(b.doc), encoding="utf-8")
    for path in (os.path.join(FIXTURES, "NonSeparated.site"), str(generated)):
        for command in ("sheafify", "check-sheaf"):
            runs = [fresh_run(["-m", "tck.cli", command, path], str(seed)) for seed in range(6)]
            assert all(run[0] in (0, 1) for run in runs), (command, path, runs[0][2])
            assert len({run[1] for run in runs}) == 1, (command, path)


def test_stack_commands_do_not_depend_on_the_hash_seed(tmp_path):
    # both check_stack paths skip the maximal least covers, and a bounded
    # run names its first stratum at a non-maximal one; neither may follow
    # set or hash order.  The open-cover topology mixes maximal covers (L,
    # R) with others (O, T), and the trivial topology has only maximal ones
    from fixture_corpus import (
        constant_cat_presheaf,
        open_site,
        open_site_sheaf_corpus,
        open_site_topology,
        trivial_topology,
    )
    from test_stacks import walking_iso
    from tck import prestack
    from tck.docbuild import DocumentBuilder
    from tck.docformat import serialize

    osite = open_site()
    iso = constant_cat_presheaf(osite, walking_iso())
    disc = prestack.discrete_presheaf(osite, open_site_sheaf_corpus(7)[6])
    b = DocumentBuilder()
    b.category("OpenSite", osite)
    b.topology("J", open_site_topology(), "OpenSite")
    b.topology("Triv", trivial_topology(osite), "OpenSite")
    for name, F in (("Iso", iso), ("Disc", disc)):
        b.two_nat(f"id{name}", prestack.certify_dopf_pre(prestack.identity_two_nat(F)).s,
                  name, name, "OpenSite")
    generated = tmp_path / "OpenStacks.site"
    generated.write_text(serialize(b.doc), encoding="utf-8")
    for command in ("check-stack", "char-stacks"):
        for flags, code in (((), 0), (("--bound", "1"), 2)):
            args = ["-m", "tck.cli", command, str(generated), *flags]
            runs = [fresh_run(args, str(seed)) for seed in range(6)]
            assert all(run[0] == code for run in runs), (command, flags, runs[0][2])
            assert len({run[1] for run in runs}) == 1, (command, flags)


def test_check_site_does_not_depend_on_the_hash_seed(tmp_path):
    # a table that is no topology is reported by the one axiom
    # GrothTopology.minimal finds broken first; which one depends on the
    # order it walks objects, covers and arrows, never on set or hash order
    from test_site import chain21_document

    chain21 = tmp_path / "Chain21.site"
    chain21.write_text(chain21_document(), encoding="utf-8")
    broken = [f for f in SHIPPED if f.startswith("broken" + os.sep)]
    assert len(broken) == 3
    paths = [(f, os.path.join(FIXTURES, f)) for f in broken] + [(None, str(chain21))]
    for fixture, path in paths:
        for flags in ((), ("--json",)):
            runs = {fresh_run(["-m", "tck.cli", "check-site", path, *flags], str(seed))[:2]
                    for seed in range(6)}
            if fixture is None:
                assert len(runs) == 1 and next(iter(runs))[0] == 1, (flags, runs)
            else:
                head = " ".join(("tck", "check-site", fixture, *flags))
                assert runs == {golden_runs(fixture)[head]}, head


if __name__ == "__main__":
    os.environ.pop("TCK_BOUND", None)
    for fixture in SHIPPED:
        target = golden_path(fixture)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(fixture))
        print(target, file=sys.stderr)
