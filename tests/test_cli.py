import glob
import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
CORPUS = sorted(glob.glob(os.path.join(FIXTURES, "*.site")))
BROKEN = sorted(glob.glob(os.path.join(FIXTURES, "broken", "*.site")))
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
TESTS = os.path.abspath(os.path.dirname(__file__))


def child_env(**extra: str) -> dict:
    """This process's environment with the checkout's src and tests first
    on PYTHONPATH, so that a child interpreter imports tck uninstalled and
    can import the test fixtures."""
    path = os.pathsep.join(filter(None, (SRC, TESTS, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def tck(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "tck.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(**(env or {})),
    )


def test_validate_on_corpus_exits_zero():
    for path in CORPUS:
        res = tck("validate", path)
        assert res.returncode == 0, (path, res.stdout, res.stderr)


def test_roundtrip_on_every_shipped_fixture_exits_zero():
    assert CORPUS, "shipped corpus missing"
    for path in CORPUS:
        res = tck("roundtrip", path)
        assert res.returncode == 0, (path, res.stdout, res.stderr)


def test_check_site_on_open_site():
    res = tck("check-site", os.path.join(FIXTURES, "OpenSite.site"))
    assert res.returncode == 0
    assert "valid-and-subcanonical" in res.stdout


def test_check_site_names_broken_axiom():
    expectations = {
        "BrokenMaximality.site": "maximality",
        "BrokenStability.site": "stability",
        "BrokenTransitivity.site": "transitivity",
    }
    for path in BROKEN:
        res = tck("check-site", path)
        assert res.returncode == 1, (path, res.stdout)
        assert expectations[os.path.basename(path)] in res.stdout
        # subcanonicity is a question only about a topology
        assert "subcanonical" not in res.stdout, (path, res.stdout)


def test_char_emits_fibre_functor_table_on_pointed_fixture():
    res = tck("char", os.path.join(FIXTURES, "Pointed.site"))
    assert res.returncode == 0
    assert "setpresheaf pointed.char" in res.stdout


def test_sheafify_collapses_nonseparated_fixture():
    res = tck("sheafify", os.path.join(FIXTURES, "NonSeparated.site"), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    witness = [w for w in payload["witnesses"] if "ZNonSep" in w]
    assert witness
    # one section left at T after sheafification
    assert "('T', 1)" in witness[0]


def test_check_sheaf_fails_on_nonseparated():
    res = tck("check-sheaf", os.path.join(FIXTURES, "NonSeparated.site"))
    assert res.returncode == 1
    assert "not-a-sheaf" in res.stdout


def test_classify_and_ff_check_on_walking_arrow():
    path = os.path.join(FIXTURES, "WalkingArrow.site")
    res = tck("classify", path)
    assert res.returncode == 0
    res = tck("ff-check", path)
    assert res.returncode == 0


def test_char_stacks_and_probe_on_open_site():
    path = os.path.join(FIXTURES, "OpenSite.site")
    res = tck("char-stacks", path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "factors-and-roundtrips" in res.stdout
    res = tck("probe-omega-j", path)
    assert res.returncode == 0, res.stdout + res.stderr


def test_check_stack_on_open_site():
    res = tck("check-stack", os.path.join(FIXTURES, "OpenSite.site"))
    assert res.returncode == 0


def test_exit_code_3_on_usage_errors():
    res = tck("roundtrip", os.path.join(FIXTURES, "broken", "BrokenMaximality.site"))
    assert res.returncode == 3  # no classifiable section
    res = tck("validate", "no-such-file.site")
    assert res.returncode == 3
    res = tck("not-a-command", os.path.join(FIXTURES, "OpenSite.site"))
    assert res.returncode == 3


HELP = """\
usage: tck [-h] [--bound BOUND] [--json] [--out OUT]
           {validate,classify,char,char-stacks,sheafify,check-sheaf,check-stack,check-site,roundtrip,ff-check,probe-omega-j}
           file

finite-site 2-classifier toolkit

positional arguments:
  {validate,classify,char,char-stacks,sheafify,check-sheaf,check-stack,check-site,roundtrip,ff-check,probe-omega-j}
  file

options:
  -h, --help            show this help message and exit
  --bound BOUND
  --json
  --out OUT
"""


def test_help_exits_zero_and_usage_errors_exit_three():
    for args in (["--help"], ["check-site", "--help"], ["-h"]):
        res = tck(*args)
        assert res.returncode == 0, args
        assert res.stdout.startswith("usage: tck"), args
    for args in ([], ["check-site"], ["--no-such-flag", "validate", "x.site"]):
        res = tck(*args)
        assert res.returncode == 3, args
        assert "usage: tck" in res.stderr, args
    # help is laid out at a fixed width, whatever the terminal says
    for columns in (None, "40", "200"):
        env = child_env()
        env.pop("COLUMNS", None)
        if columns is not None:
            env["COLUMNS"] = columns
        res = subprocess.run([sys.executable, "-m", "tck.cli", "--help"],
                             capture_output=True, text=True, env=env)
        assert res.stdout == HELP, columns


def test_json_report_shape():
    res = tck("validate", os.path.join(FIXTURES, "OpenSite.site"), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["command"] == "validate"
    assert payload["verdict"] == "pass"
    assert set(payload) >= {"command", "verdict", "witnesses", "counterexamples", "bounds"}


def test_out_path_receives_output(tmp_path):
    out = tmp_path / "sheafified.site"
    res = tck("sheafify", os.path.join(FIXTURES, "NonSeparated.site"), "--out", str(out))
    assert res.returncode == 0
    assert out.exists()
    assert "setpresheaf" in out.read_text()


def test_env_bound_matches_flag():
    path = os.path.join(FIXTURES, "WalkingArrow.site")
    res_flag = tck("ff-check", path, "--bound", "0")
    res_env = tck("ff-check", path, env={"TCK_BOUND": "0"})
    assert res_flag.returncode == res_env.returncode == 2  # aborted by bound
    assert "bound" in res_flag.stdout


def test_cli_output_is_deterministic():
    path = os.path.join(FIXTURES, "OpenSite.site")
    a = tck("classify", path).stdout
    b = tck("classify", path).stdout
    assert a == b


BROKEN_DESCENT_DOC = """
category WA
  objects a b
  arrow id_a : a -> a
  arrow id_b : b -> b
  arrow u : a -> b
  identity a : id_a
  identity b : id_b
  compose id_a id_a : id_a
  compose id_b id_b : id_b
  compose id_b u : u
  compose u id_a : u
end

category Two
  objects x y
  arrow id_x : x -> x
  arrow id_y : y -> y
  identity x : id_x
  identity y : id_y
  compose id_x id_x : id_x
  compose id_y id_y : id_y
end

functor Fu : Two -> Two
  ob x : x
  ob y : y
end

catpresheaf F on WA
  at a : Two
  at b : Two
  arr u : Fu
end

sieve S on WA at b
  arrows u
end

descent_datum D over F at b sieve S
  object u : x
  iso u id_a : id_y
end
"""


def test_validate_fails_on_broken_descent_datum(tmp_path):
    path = tmp_path / "broken_descent.site"
    path.write_text(BROKEN_DESCENT_DOC)
    res = tck("validate", str(path))
    assert res.returncode == 1
    assert "iso-typing" in res.stdout


def test_parse_error_exits_three(tmp_path):
    path = tmp_path / "bad.site"
    path.write_text("category C\n  objects a\n  zzz\nend\n")
    res = tck("validate", str(path))
    assert res.returncode == 3
    assert "line 3" in res.stderr


UNKNOWN_ARROW_BLOCKS = {
    "cover": ("topology J on C\n  cover b : zz\nend\n", 6),
    "raw-sieve": ("topology J on C raw\n  sieve b : zz\nend\n", 7),
    "sieve-arrows": ("sieve S on C at b\n  arrows zz\nend\n", 6),
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_ARROW_BLOCKS))
def test_unknown_arrow_in_a_sieve_exits_three_naming_it(tmp_path, kind):
    block, line = UNKNOWN_ARROW_BLOCKS[kind]
    path = tmp_path / "unknown_arrow.site"
    path.write_text("category C freely-generate\n  objects a b\n  arrow u : a -> b\nend\n\n"
                    + block)
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stderr == f"error: line {line}: unknown arrow 'zz'\n"


UNKNOWN_OBJECT_BLOCKS = {
    "raw-sieve": ("topology J on C raw\n  sieve zz : u\nend\n", 7),
    "sieve-arrows": ("sieve S on C at zz\n  arrows u\nend\n", 6),
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_OBJECT_BLOCKS))
def test_unknown_object_of_a_sieve_exits_three_naming_it(tmp_path, kind):
    # a non-empty family at an unknown object is no codomain clash
    block, line = UNKNOWN_OBJECT_BLOCKS[kind]
    path = tmp_path / "unknown_object.site"
    path.write_text("category C freely-generate\n  objects a b\n  arrow u : a -> b\nend\n\n"
                    + block)
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stderr == f"error: line {line}: unknown object 'zz'\n"


def test_char_output_parses_against_input_document(tmp_path):
    src = os.path.join(FIXTURES, "Pointed.site")
    out = tmp_path / "char_tables.site"
    res = tck("char", src, "--out", str(out))
    assert res.returncode == 0
    combined = tmp_path / "combined.site"
    with open(src, encoding="utf-8") as fh:
        combined.write_text(fh.read() + "\n" + out.read_text())
    from tck import docformat

    doc = docformat.parse_file(combined)
    assert any(".char." in name for name in doc.setpresheaves)


def assert_clean_usage_error(res):
    assert res.returncode == 3, (res.stdout, res.stderr)
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_a_long_freely_generated_chain_exits_three_at_its_block(tmp_path):
    # 1,200 objects in a row: the cycle check walks them without recursion,
    # and the composites are counted and refused before any is listed
    objs = [f"c{i:04d}" for i in range(1200)]
    lines = ["category C freely-generate", "  objects " + " ".join(objs)]
    lines += [f"  arrow s{i:04d} : {objs[i]} -> {objs[i + 1]}" for i in range(1199)]
    path = tmp_path / "long_chain.site"
    path.write_text("\n".join(lines + ["end", ""]))
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stderr.startswith("error: line 1: free_category composites")


def test_functor_object_image_outside_the_target_exits_three(tmp_path):
    path = tmp_path / "functor.site"
    path.write_text("category A\n  objects a\n  arrow id_a : a -> a\n  identity a : id_a\n"
                    "  compose id_a id_a : id_a\nend\n\n"
                    "functor F : A -> A\n  ob a : nope\nend\n")
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stderr == "error: line 8: object image 'nope' not in target\n"


def test_directory_argument_exits_three_without_traceback(tmp_path):
    res = tck("validate", str(tmp_path))
    assert_clean_usage_error(res)
    assert res.stdout == ""


def test_non_utf8_file_exits_three_without_traceback(tmp_path):
    path = tmp_path / "latin1.site"
    path.write_bytes("category C\n  objects \u00e9\nend\n".encode("latin-1"))
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stdout == ""


def test_unwritable_out_prints_only_the_error(tmp_path):
    out = tmp_path / "missing" / "x.site"
    res = tck("char", os.path.join(FIXTURES, "Pointed.site"), "--out", str(out))
    assert_clean_usage_error(res)
    assert str(out) in res.stderr
    assert res.stdout == ""


def test_non_utf8_import_target_is_dangling_reference(tmp_path):
    (tmp_path / "latin1.site").write_bytes(
        "category C\n  objects \u00e9\nend\n".encode("latin-1"))
    main = tmp_path / "main.site"
    main.write_text("import latin1.site\n")
    res = tck("validate", str(main))
    assert_clean_usage_error(res)
    assert "line 1: reference 'latin1.site' does not resolve" in res.stderr


def test_bad_env_bound_is_usage_error():
    res = tck("validate", os.path.join(FIXTURES, "OpenSite.site"), env={"TCK_BOUND": "abc"})
    assert res.returncode == 3
    assert "TCK_BOUND" in res.stderr and "Traceback" not in res.stderr


def test_negative_bound_is_usage_error():
    res = tck("validate", os.path.join(FIXTURES, "OpenSite.site"), "--bound", "-5")
    assert res.returncode == 3
    assert "non-negative" in res.stderr


ONE_SECTION_ON_PP = """
setpresheaf Z on PP
  at a : *
  at b : *
  map u : * -> *
  map v : * -> *
end
"""


def test_sheafify_rejects_raw_non_topology(tmp_path):
    # v pulls the least cover {u} at b back to the empty sieve, which does
    # not cover a: plus has no well-defined restriction along v
    path = tmp_path / "stability.site"
    with open(os.path.join(FIXTURES, "broken", "BrokenStability.site"), encoding="utf-8") as fh:
        path.write_text(fh.read() + ONE_SECTION_ON_PP)
    res = tck("sheafify", str(path))
    assert res.returncode == 1, res.stdout
    assert "AxiomViolation" in res.stdout and "stability" in res.stdout


def test_sheafify_fails_report_when_output_is_not_a_sheaf(monkeypatch):
    from dataclasses import replace

    from tck import cli, docformat

    doc = docformat.parse_file(os.path.join(FIXTURES, "NonSeparated.site"))
    sheafify = cli.site_mod.sheafify
    # a sheafify that hands its input back as the result
    monkeypatch.setattr(cli.site_mod, "sheafify",
                        lambda Z, j, bound: replace(sheafify(Z, j, bound), presheaf=Z))
    report, _ = cli.run("sheafify", doc)
    assert report.verdict == "fail"
    (zname, jname, what, _), = report.counterexamples
    assert (zname, what) == ("ZNonSep", "sheafified-not-a-sheaf")
    assert jname in doc.topologies


def test_char_stacks_is_undecided_when_an_endpoint_check_hits_the_bound(tmp_path):
    from fixture_corpus import open_site, open_site_sheaf_corpus, open_site_topology
    from tck import docformat, prestack
    from tck.docbuild import DocumentBuilder

    osite = open_site()
    F = prestack.discrete_presheaf(osite, open_site_sheaf_corpus(7)[6])
    phi = prestack.certify_dopf_pre(prestack.identity_two_nat(F))
    b = DocumentBuilder()
    b.category("OpenSite", osite)
    b.topology("J", open_site_topology(), "OpenSite")
    b.two_nat("idphi", phi.s, "F", "F", "OpenSite")
    path = tmp_path / "sheaf.site"
    path.write_text(docformat.serialize(b.doc))
    assert tck("char-stacks", str(path)).returncode == 0
    res = tck("char-stacks", str(path), "--bound", "1", "--json")
    assert res.returncode == 2, res.stdout
    bounds = json.loads(res.stdout)["bounds"]
    assert list(bounds) == ["stack-i at T over ('L_T', 'O_T', 'R_T')"]


def test_check_stack_notes_no_stack_witness_on_bounded_pass(tmp_path):
    # at bound 1 the object-gluing stratum over M_T trips its guard: the
    # verdict is bounded-pass, and F must not be named a stack
    from fixture_corpus import open_site, open_site_sheaf_corpus, open_site_topology
    from tck import docformat, prestack
    from tck.docbuild import DocumentBuilder

    osite = open_site()
    b = DocumentBuilder()
    b.topology("J", open_site_topology(), "OpenSite")
    b.catpresheaf("F", prestack.discrete_presheaf(osite, open_site_sheaf_corpus(7)[6]),
                  "OpenSite")
    path = tmp_path / "sheaf.site"
    path.write_text(docformat.serialize(b.doc))
    res = tck("check-stack", str(path))
    assert res.returncode == 0, res.stdout
    assert "witness: ('F', 'J', 'stack')" in res.stdout
    res = tck("check-stack", str(path), "--bound", "1")
    assert res.returncode == 2, res.stdout
    assert "verdict: bounded-pass" in res.stdout
    assert "witness" not in res.stdout


def test_probe_omega_j_is_undecided_when_the_endomorphism_search_hits_the_bound(tmp_path):
    from tck import docformat
    from fixture_corpus import open_site
    from tck.docbuild import DocumentBuilder
    from test_stacks import local_pair_datum

    b = DocumentBuilder()
    b.category("OpenSite", open_site())
    b.sheaf_descent("D", local_pair_datum(3, 3), "OpenSite", "J", "S")
    path = tmp_path / "pair.site"
    path.write_text(docformat.serialize(b.doc))
    assert tck("probe-omega-j", str(path)).returncode == 0
    res = tck("probe-omega-j", str(path), "--bound", "100", "--json")
    assert res.returncode == 2, res.stdout
    assert json.loads(res.stdout)["bounds"] == {"D: morphism-gluing at datum 0": 100}


def test_check_sheaf_asks_separated_only_of_presheaves_that_are_no_sheaf(monkeypatch):
    from tck import cli, docformat, site

    asked, failed = [], []
    is_sheaf, is_separated = site.is_sheaf, site.is_separated

    def sheaf(Z, j, bound):
        rep = is_sheaf(Z, j, bound)
        if not rep.ok:
            failed.append((Z, j))
        return rep

    monkeypatch.setattr(site, "is_sheaf", sheaf)
    monkeypatch.setattr(site, "is_separated", lambda Z, j, bound: asked.append((Z, j)) or
                        is_separated(Z, j, bound))
    pairs = 0
    for path in CORPUS:
        doc = docformat.parse_file(path)
        if cli._presheaf_topology_pairs(doc):
            pairs += len(cli._presheaf_topology_pairs(doc))
            cli.run("check-sheaf", doc)
    assert failed and pairs > len(failed)
    assert asked == failed
