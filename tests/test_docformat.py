import functools
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from category_strategies import generated_categories
from fixture_corpus import (
    build_broken_topology_fixtures,
    build_shipped_fixtures,
    write_fixture_tree,
)
from tck.docbuild import DocumentBuilder
from tck.corpus import (
    dopf_from_set_functor,
    map_to_omega_from_set_functor,
    poset_category,
    presheaf_corpus,
    setfunctor_corpus,
)
from tck.docformat import Document, parse, parse_file, serialize
from tck.fincat import constant_presheaf
from tck.errors import (
    DanglingReference,
    InvalidTable,
    InvariantViolation,
    ParseError,
    TckError,
)
from tck.prestack import elements_category, representable
from tck.site import topology_from_generators

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


WALKING_ARROW_DOC = """
# the free category on one arrow
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
"""


def test_parse_walking_arrow():
    doc = parse(WALKING_ARROW_DOC)
    assert set(doc.categories) == {"WA"}
    cat = doc.categories["WA"]
    assert cat.arrows["u"] == ("a", "b")


def test_parse_freely_generated():
    doc = parse(
        """
category C freely-generate
  objects x y z
  arrow m : x -> y
  arrow n : y -> z
end
"""
    )
    cat = doc.categories["C"]
    assert "n*m" in cat.arrows
    assert cat.compose("n", "m") == "n*m"


def test_parse_reports_dangling_reference():
    with pytest.raises(DanglingReference):
        parse(
            WALKING_ARROW_DOC
            + """
functor P : WA -> Nowhere
end
"""
        )


def test_parse_reports_unknown_arrow_in_compose():
    with pytest.raises(InvariantViolation):
        parse(
            """
category Bad
  objects a
  arrow id_a : a -> a
  identity a : id_a
  compose id_a id_a : ghost
end
"""
        )


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse("category C\n  objects a\n  zzz\nend\n")
    assert err.value.line == 3


def test_topology_block_saturates():
    doc = parse(
        """
category P freely-generate
  objects x y
  arrow m : x -> y
end

topology J on P
  cover y : m
end
"""
    )
    topo = doc.topologies["J"][0]
    from tck.site import Sieve, maximal_sieve

    assert maximal_sieve(doc.categories["P"], "y") in topo.covers["y"]
    assert Sieve("y", frozenset({"m"})) in topo.covers["y"]


def test_raw_topology_block_is_literal():
    doc = parse(
        """
category D
  objects x
  arrow id_x : x -> x
  identity x : id_x
  compose id_x id_x : id_x
end

topology JRaw on D raw
end
"""
    )
    topo = doc.topologies["JRaw"][0]
    assert topo.covers["x"] == frozenset()


@pytest.mark.parametrize("name", sorted(build_shipped_fixtures()))
def test_shipped_fixture_files_match_generators(name):
    generated = serialize(build_shipped_fixtures()[name])
    with open(os.path.join(FIXTURES, f"{name}.site"), encoding="utf-8") as fh:
        assert fh.read() == generated


@pytest.mark.parametrize("name", sorted(build_broken_topology_fixtures()))
def test_broken_fixture_files_match_generators(name):
    generated = serialize(build_broken_topology_fixtures()[name])
    with open(os.path.join(FIXTURES, "broken", f"{name}.site"), encoding="utf-8") as fh:
        assert fh.read() == generated


def test_write_fixture_tree_regenerates_the_shipped_tree_byte_for_byte(tmp_path):
    write_fixture_tree(tmp_path)

    def tree(root):
        out = {}
        for path in glob.glob(os.path.join(root, "**", "*"), recursive=True):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
        return out

    written = tree(tmp_path)
    assert written and written == tree(FIXTURES)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(FIXTURES, "**", "*.site"), recursive=True))
)
def test_round_trip_on_corpus(path):
    doc = parse_file(path)
    text = serialize(doc)
    doc2 = parse(text)
    assert doc2 == doc
    # serialize . parse is idempotent and byte-stable
    assert serialize(doc2) == text
    assert serialize(parse(text)) == text


def assert_topology_round_trips(j):
    """A built topology through a document: its covers, listed on read,
    become raw text, which parses to a raw table with the same covers and
    least covers and serializes to the same bytes."""
    b = DocumentBuilder()
    b.topology("J", j, "C")
    text = serialize(b.doc)
    doc = parse(text)
    raw, _ = doc.topologies["J"]
    assert type(raw.covers) is dict
    assert raw.covers == dict(j.covers)
    assert raw.minimal == j.minimal
    assert serialize(doc) == text


@pytest.mark.parametrize("name", sorted(build_shipped_fixtures()))
def test_topologies_of_the_shipped_fixtures_round_trip(name):
    from tck.site import GrothTopology

    path = os.path.join(FIXTURES, f"{name}.site")
    for j, _ in parse_file(path).topologies.values():
        built = GrothTopology.from_minimal(j.base, j.minimal)
        assert built == j
        assert_topology_round_trips(built)


@settings(max_examples=40, deadline=None)
@given(generated_categories(), st.data())
def test_generated_topologies_round_trip(cat, data):
    from tck.site import topology_from_generators

    gens = {
        c: data.draw(st.lists(st.lists(st.sampled_from(sorted(cat.arrows_into(c))),
                                       max_size=3), max_size=2))
        for c in cat.objects
    }
    assert_topology_round_trips(topology_from_generators(cat, gens)[0])


def test_serialize_deterministic_across_runs():
    a = serialize(build_shipped_fixtures()["OpenSite"])
    b = serialize(build_shipped_fixtures()["OpenSite"])
    assert a == b


def test_import_directive_merges_sections(tmp_path):
    (tmp_path / "base.site").write_text(WALKING_ARROW_DOC)
    main = tmp_path / "main.site"
    main.write_text(
        "import base.site\n\n"
        "sieve S on WA at b\n  arrows u\nend\n"
    )
    doc = parse_file(main)
    assert "WA" in doc.categories
    assert "S" in doc.sieves


def test_import_missing_file_is_dangling_reference(tmp_path):
    main = tmp_path / "main.site"
    main.write_text("import nowhere.site\n")
    with pytest.raises(DanglingReference):
        parse_file(main)


def test_import_cycle_is_harmless(tmp_path):
    a = tmp_path / "a.site"
    b = tmp_path / "b.site"
    a.write_text("import b.site\n" + WALKING_ARROW_DOC)
    b.write_text("import a.site\n")
    doc = parse_file(a)
    assert "WA" in doc.categories


def test_relative_import_without_file_context_fails():
    with pytest.raises(ParseError):
        parse("import things.site\n")


def test_parse_error_carries_column_of_offending_token():
    with pytest.raises(ParseError) as err:
        parse("category C\n  objects a\n    zzz junk\nend\n")
    assert err.value.line == 3
    assert err.value.column == 5  # the indented offending content


@pytest.mark.parametrize("line", [
    "  arrow u : a -> a",
    "  identity a : id_b",
    "  compose u id_a : u",
])
def test_repeated_category_line_names_the_later_line(line):
    text = WALKING_ARROW_DOC.replace("end\n", line + "\nend\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    lines = text.splitlines()
    assert err.value.line == len(lines) - lines[::-1].index(line)  # the last copy
    assert err.value.column == 3
    assert "repeated key" in str(err.value)


def test_repeated_presheaf_lines_are_rejected():
    head = WALKING_ARROW_DOC + "\nsetpresheaf Z on WA\n"
    first = head.count("\n") + 1
    for body, bad in [
        ("  at a : x\n  at b : y\n  at a : y\n", first + 2),
        ("  at a : x\n  at b : y\n  map u : y -> x\n  map u : y -> x\n", first + 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse(head + body + "end\n")
        assert err.value.line == bad, body


def test_repeated_key_inside_a_pairs_line_is_rejected():
    text = WALKING_ARROW_DOC + (
        "\nsetpresheaf Z on WA\n  at a : x\n  at b : y z\n  map u : y -> x , y -> x\nend\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == text.count("\n") - 1


def test_repeated_block_name_is_rejected():
    text = WALKING_ARROW_DOC + WALKING_ARROW_DOC
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == len(WALKING_ARROW_DOC.splitlines()) + 3  # the second header
    assert "repeated category name 'WA'" in str(err.value)
    # names of different kinds live apart
    doc = parse(WALKING_ARROW_DOC + "\nsieve WA on WA at b\n  arrows u\nend\n")
    assert "WA" in doc.sieves


def test_imported_block_name_may_not_be_redefined(tmp_path):
    (tmp_path / "base.site").write_text(WALKING_ARROW_DOC)
    main = tmp_path / "main.site"
    main.write_text("import base.site\n" + WALKING_ARROW_DOC)
    with pytest.raises(ParseError):
        parse_file(main)


POINT_BLOCKS = """category Pt
  objects T
  arrow T_T : T -> T
  identity T : T_T
  compose T_T T_T : T_T
end

topology JPt on Pt
  cover T : T_T
end

sieve SPt on Pt at T
  arrows T_T
end

"""

SHEAF_HEADER = "descent_datum DInduced sheaves on OpenSite topology J at T sieve SJoint"


@pytest.mark.parametrize("old, new, bad_line, detail", [
    ("  object L_T : DInduced.obj.L_T", "  object L_T : Sh0",
     "  object L_T : Sh0", "object for 'L_T' is not on slice OpenSite L"),
    (SHEAF_HEADER, SHEAF_HEADER.replace("at T", "at L"),
     SHEAF_HEADER.replace("at T", "at L"), "sieve is not based at the stated object"),
    (SHEAF_HEADER, POINT_BLOCKS + SHEAF_HEADER.replace("topology J", "topology JPt"),
     SHEAF_HEADER.replace("topology J", "topology JPt"), "topology 'JPt' is not on 'OpenSite'"),
    (SHEAF_HEADER, POINT_BLOCKS + SHEAF_HEADER.replace("sieve SJoint", "sieve SPt"),
     SHEAF_HEADER.replace("sieve SJoint", "sieve SPt"), "sieve 'SPt' is not on 'OpenSite'"),
], ids=["object-off-slice", "at-object", "topology-base", "sieve-base"])
def test_sheaf_descent_datum_header_and_objects_are_checked(old, new, bad_line, detail):
    with open(os.path.join(FIXTURES, "OpenSite.site"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    text = text.replace(old, new)
    with pytest.raises(InvariantViolation) as err:
        parse(text)
    assert err.value.line == text.splitlines().index(bad_line) + 1
    assert str(err.value) == f"line {err.value.line}: {detail}"


CAT_HEADER = "descent_datum DCat over FStack at T sieve SJoint"


@pytest.mark.parametrize("objects, detail", [
    (["L_T : zz", "O_T : rL.O_L", "R_T : zz"], "object 'zz' for 'L_T' is not in FStack(L)"),
    (["O_T : rL.O_L"], "object for 'L_T' missing"),
], ids=["foreign-object", "missing-object"])
def test_identity_isos_name_an_object_outside_its_category_apart_from_a_missing_one(
        objects, detail):
    # an identity iso at (f, g) needs F(g) of the object at f: a given
    # object that F(dom f) lacks is named with F(dom f), not reported missing
    with open(os.path.join(FIXTURES, "OpenSite.site"), encoding="utf-8") as fh:
        text = fh.read()
    text += "\n".join(["", CAT_HEADER, *(f"  object {o}" for o in objects),
                       "  identity-isos", "end", ""])
    with pytest.raises(InvariantViolation) as err:
        parse(text)
    assert err.value.line == text.splitlines().index(CAT_HEADER) + 1
    assert str(err.value) == f"line {err.value.line}: {detail}"


PART_B ="setpresheaf z.part.b.id_b on slice WA b\n  at id_b : k0\n  at u : k0\n"


@pytest.mark.parametrize("old, new, detail", [
    ("  part b id_b : z.part.b.id_b", "  part b id_b : z.part.a.u",
     "object_part at ('b', 'id_b') is not on slice(C, 'b')"),
    (PART_B, PART_B.replace("at u : k0", "at u : k0 k1"),
     "strict naturality of object_part fails at ('b', 'id_b')"),
], ids=["part-off-slice", "part-not-reindexed"])
def test_map_to_omega_block_is_checked_at_its_start(old, new, detail):
    # the parts are checked against the ones the fibre functor they give
    # derives, and a failure names the block's first line
    with open(os.path.join(FIXTURES, "WalkingArrow.site"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    text = text.replace(old, new)
    with pytest.raises(InvariantViolation) as err:
        parse(text)
    assert err.value.line == text.splitlines().index("map_to_omega z over RepB") + 1
    assert str(err.value) == f"line {err.value.line}: {detail}"


# Every block kind in one document that parses: the error table below edits
# it, and each error must name the line marked "#<" (a comment to the parser).
BLOCKS = """\
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

category Pt
  objects p
  arrow id_p : p -> p
  identity p : id_p
  compose id_p id_p : id_p
end

functor I : Pt -> Pt
  ob p : p
end

catpresheaf F on WA
  at a : Pt
  at b : Pt
  arr u : I
end

two_nat N : F -> F
  at a : I
  at b : I
end

topology J on WA
  cover b : u
end

sieve S on WA at b
  arrows u
end

descent_datum D over F at b sieve S
  object u : p
  identity-isos
end

setpresheaf Za on slice WA a
  at id_a : x
end

descent_datum DS sheaves on WA topology J at b sieve S
  object u : Za
  identity-isos
end

setpresheaf Pa on slice WA a
  at id_a : p
end

setpresheaf Pb on slice WA b
  at id_b : p
  at u : p
  map u>id_b : p -> p
end

map_to_omega M over F
  part a p : Pa
  part b p : Pb
  arrowpart a id_p at id_a : p -> p
end
"""


def edit_blocks(edits):
    text = BLOCKS
    for old, new in edits:
        if old is None:
            text += new
        else:
            assert old in text, old
            text = text.replace(old, new, 1)
    return text


# (case, error class, column or None, message after its line prefix, edits)
BLOCK_ERRORS = [
    ("category-header", ParseError, 1, "category block needs a name",
     [("category Pt\n", "category #<\n")]),
    ("category-line", ParseError, 3, "bad category line: 'zzz junk'",
     [("  objects p\n", "  objects p\n  zzz junk #<\n")]),
    ("category-repeated", ParseError, 3, "repeated key 'u'",
     [("  arrow u : a -> b\n", "  arrow u : a -> b\n  arrow u : a -> a #<\n")]),
    ("category-free-compose", ParseError, 1, "compose lines not allowed with freely-generate",
     [("category Pt\n", "category Pt freely-generate\n"),
      ("  compose id_p id_p : id_p\n", "  compose id_p id_p : id_p #<\n")]),
    ("category-invalid", InvariantViolation, None,
     "composite ('id_p', 'id_p'): result 'ghost' is not an arrow",
     [("category Pt\n", "category Pt #<\n"),
      ("  compose id_p id_p : id_p\n", "  compose id_p id_p : ghost\n")]),
    ("block-name-repeated", ParseError, 1, "repeated category name 'WA'",
     [(None, "\ncategory WA #<\nend\n")]),
    ("unknown-kind", ParseError, 1, "unknown section kind 'widget'",
     [(None, "\nwidget W #<\nend\n")]),
    ("functor-header", ParseError, 1, "functor header: functor NAME : SRC -> DST",
     [("functor I : Pt -> Pt\n", "functor I : Pt Pt #<\n")]),
    ("functor-dangling-source", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("functor I : Pt -> Pt\n", "functor I : Nowhere -> Pt #<\n")]),
    ("functor-dangling-target", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("functor I : Pt -> Pt\n", "functor I : Pt -> Nowhere #<\n")]),
    ("functor-line", ParseError, 3, "bad functor line: 'obb p : p'",
     [("  ob p : p\n", "  ob p : p\n  obb p : p #<\n")]),
    ("functor-repeated", ParseError, 3, "repeated key 'p'",
     [("  ob p : p\n", "  ob p : p\n  ob p : p #<\n")]),
    ("functor-invalid", InvariantViolation, None,
     "arrow image 'ghost' of 'id_p' missing or has wrong endpoints",
     [("functor I : Pt -> Pt\n", "functor I : Pt -> Pt #<\n"),
      ("  ob p : p\n", "  ob p : p\n  arr id_p : ghost\n")]),
    ("setpresheaf-header", ParseError, 1, "setpresheaf header: setpresheaf NAME on BASE",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za #<\n")]),
    ("setpresheaf-slice-arity", ParseError, 1, "slice base needs a category and an object",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za on slice WA #<\n")]),
    ("setpresheaf-base-arity", ParseError, 1, "expected a category name or a slice expression",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za on WA a #<\n")]),
    ("setpresheaf-dangling-base", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za on Nowhere #<\n")]),
    ("setpresheaf-dangling-slice", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za on slice Nowhere a #<\n")]),
    ("setpresheaf-dangling-slice-object", DanglingReference, None,
     "reference 'zz' does not resolve",
     [("setpresheaf Za on slice WA a\n", "setpresheaf Za on slice WA zz #<\n")]),
    ("setpresheaf-line", ParseError, 3, "bad setpresheaf line: 'att id_a : x'",
     [("  at id_a : x\n", "  at id_a : x\n  att id_a : x #<\n")]),
    ("setpresheaf-repeated-at", ParseError, 3, "repeated key 'id_a'",
     [("  at id_a : x\n", "  at id_a : x\n  at id_a : y #<\n")]),
    ("setpresheaf-repeated-map", ParseError, 3, "repeated key 'u>id_b'",
     [("  map u>id_b : p -> p\n", "  map u>id_b : p -> p\n  map u>id_b : p -> p #<\n")]),
    ("setpresheaf-pairs", ParseError, 1, "expected 'x -> y' pairs",
     [("  map u>id_b : p -> p\n", "  map u>id_b : p p #<\n")]),
    ("setpresheaf-pairs-repeated", ParseError, 1, "repeated key 'p' in pairs",
     [("  map u>id_b : p -> p\n", "  map u>id_b : p -> p , p -> p #<\n")]),
    ("setpresheaf-invalid", InvariantViolation, None,
     "action of 'u>id_b' sends 'p' outside Z('u')",
     [("setpresheaf Pb on slice WA b\n", "setpresheaf Pb on slice WA b #<\n"),
      ("  map u>id_b : p -> p\n", "  map u>id_b : p -> q\n")]),
    ("catpresheaf-header", ParseError, 1, "catpresheaf header: catpresheaf NAME on CAT",
     [("catpresheaf F on WA\n", "catpresheaf F WA #<\n")]),
    ("catpresheaf-dangling-base", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("catpresheaf F on WA\n", "catpresheaf F on Nowhere #<\n")]),
    ("catpresheaf-dangling-category", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("  at a : Pt\n", "  at a : Nowhere #<\n")]),
    ("catpresheaf-dangling-functor", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("  arr u : I\n", "  arr u : Nowhere #<\n")]),
    ("catpresheaf-line", ParseError, 3, "bad catpresheaf line: 'arrow u : I'",
     [("  arr u : I\n", "  arr u : I\n  arrow u : I #<\n")]),
    ("catpresheaf-repeated", ParseError, 3, "repeated key 'u'",
     [("  arr u : I\n", "  arr u : I\n  arr u : I #<\n")]),
    ("catpresheaf-no-category", InvariantViolation, None, "no category assigned at 'b'",
     [("catpresheaf F on WA\n", "catpresheaf F on WA #<\n"),
      ("  at b : Pt\n", "")]),
    ("catpresheaf-no-functor", InvariantViolation, None, "no functor assigned at 'u'",
     [("catpresheaf F on WA\n", "catpresheaf F on WA #<\n"),
      ("  arr u : I\n", "")]),
    ("catpresheaf-invalid", InvariantViolation, None, "action of 'u' has wrong endpoints",
     [("catpresheaf F on WA\n", "catpresheaf F on WA #<\n"),
      ("  at b : Pt\n", "  at b : WA\n")]),
    ("two_nat-header", ParseError, 1, "two_nat header: two_nat NAME : F -> G",
     [("two_nat N : F -> F\n", "two_nat N : F F #<\n")]),
    ("two_nat-dangling-source", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("two_nat N : F -> F\n", "two_nat N : Nowhere -> F #<\n")]),
    ("two_nat-dangling-target", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("two_nat N : F -> F\n", "two_nat N : F -> Nowhere #<\n")]),
    ("two_nat-dangling-component", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("  at a : I\n", "  at a : Nowhere #<\n")]),
    ("two_nat-line", ParseError, 3, "bad two_nat line: 'at b I'",
     [("  at b : I\n", "  at b : I\n  at b I #<\n")]),
    ("two_nat-repeated", ParseError, 3, "repeated key 'b'",
     [("  at b : I\n", "  at b : I\n  at b : I #<\n")]),
    ("two_nat-invalid", InvariantViolation, None, "component table is not total",
     [("two_nat N : F -> F\n", "two_nat N : F -> F #<\n"),
      ("  at b : I\n", "")]),
    ("topology-header", ParseError, 1, "topology header: topology NAME on CAT [raw]",
     [("topology J on WA\n", "topology J WA #<\n")]),
    ("topology-dangling", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("topology J on WA\n", "topology J on Nowhere #<\n")]),
    ("topology-line", ParseError, 3, "bad topology line: 'covers b : u'",
     [("  cover b : u\n", "  cover b : u\n  covers b : u #<\n")]),
    ("topology-cover-in-raw", ParseError, 1, "raw topology blocks use 'sieve' lines",
     [("topology J on WA\n", "topology J on WA raw\n"),
      ("  cover b : u\n", "  cover b : u #<\n")]),
    ("topology-sieve-not-raw", ParseError, 1, "'sieve' lines need the raw flag",
     [("  cover b : u\n", "  sieve b : u #<\n")]),
    ("topology-raw-sieve-invalid", InvariantViolation, None, "unknown arrow 'ghost'",
     [("topology J on WA\n", "topology J on WA raw\n"),
      ("  cover b : u\n", "  sieve b : ghost #<\n")]),
    ("topology-invalid", InvariantViolation, None, "unknown arrow 'ghost'",
     [("topology J on WA\n", "topology J on WA #<\n"),
      ("  cover b : u\n", "  cover b : ghost\n")]),
    ("sieve-header", ParseError, 1, "sieve header: sieve NAME on CAT at OBJ",
     [("sieve S on WA at b\n", "sieve S on WA b #<\n")]),
    ("sieve-dangling", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("sieve S on WA at b\n", "sieve S on Nowhere at b #<\n")]),
    ("sieve-line", ParseError, 3, "bad sieve line: 'arrow u'",
     [("  arrows u\n", "  arrows u\n  arrow u #<\n")]),
    ("sieve-invalid", InvariantViolation, None, "unknown arrow 'ghost'",
     [("sieve S on WA at b\n", "sieve S on WA at b #<\n"),
      ("  arrows u\n", "  arrows ghost\n")]),
    ("descent-header", ParseError, 1,
     "descent_datum header: descent_datum NAME over F at OBJ sieve S",
     [("D over F at b sieve S\n", "D over F at b #<\n")]),
    ("descent-dangling-presheaf", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("D over F at b sieve S\n", "D over Nowhere at b sieve S #<\n")]),
    ("descent-dangling-sieve", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("D over F at b sieve S\n", "D over F at b sieve Nowhere #<\n")]),
    ("descent-at", InvariantViolation, None, "sieve is not based at the stated object",
     [("D over F at b sieve S\n", "D over F at a sieve S #<\n")]),
    ("descent-line", ParseError, 3, "bad descent_datum line: 'objects u : p'",
     [("  object u : p\n", "  object u : p\n  objects u : p #<\n")]),
    ("descent-repeated-object", ParseError, 3, "repeated key 'u'",
     [("  object u : p\n", "  object u : p\n  object u : p #<\n")]),
    ("descent-repeated-iso", ParseError, 3, "repeated key ('u', 'id_a')",
     [("  object u : p\n", "  object u : p\n  iso u id_a : id_p\n  iso u id_a : id_p #<\n")]),
    ("descent-missing-object", InvariantViolation, None, "object for 'u' missing",
     [("D over F at b sieve S\n", "D over F at b sieve S #<\n"),
      ("  object u : p\n", "")]),
    ("sheaf-descent-header", ParseError, 1,
     "header: descent_datum NAME sheaves on CAT topology J at OBJ sieve S",
     [("WA topology J at b sieve S\n", "WA topology J at b #<\n")]),
    ("sheaf-descent-dangling-base", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("WA topology J at b sieve S\n", "Nowhere topology J at b sieve S #<\n")]),
    ("sheaf-descent-dangling-topology", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("WA topology J at b sieve S\n", "WA topology Nowhere at b sieve S #<\n")]),
    ("sheaf-descent-dangling-sieve", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("WA topology J at b sieve S\n", "WA topology J at b sieve Nowhere #<\n")]),
    ("sheaf-descent-at", InvariantViolation, None, "sieve is not based at the stated object",
     [("WA topology J at b sieve S\n", "WA topology J at a sieve S #<\n")]),
    ("sheaf-descent-dangling-object", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("  object u : Za\n", "  object u : Nowhere #<\n")]),
    ("sheaf-descent-line", ParseError, 3, "bad sheaf descent line: 'objects u : Za'",
     [("  object u : Za\n", "  object u : Za\n  objects u : Za #<\n")]),
    ("sheaf-descent-repeated-object", ParseError, 3, "repeated key 'u'",
     [("  object u : Za\n", "  object u : Za\n  object u : Za #<\n")]),
    ("sheaf-descent-repeated-iso", ParseError, 3, "repeated key 'id_a'",
     [("  object u : Za\n", "  object u : Za\n  iso u id_a at id_a : x -> x\n"
                           "  iso u id_a at id_a : x -> x #<\n")]),
    ("sheaf-descent-pairs", ParseError, 1, "expected 'x -> y' pairs",
     [("  object u : Za\n", "  object u : Za\n  iso u id_a at id_a : x #<\n")]),
    ("sheaf-descent-off-slice", InvariantViolation, None, "object for 'u' is not on slice WA a",
     [("  at id_a : x\nend\n", "  at id_a : x\nend\n\nsetpresheaf Zb on slice WA b\n"
                             "  at id_b : x\n  at u : x\n  map u>id_b : x -> x\nend\n"),
      ("  object u : Za\n", "  object u : Zb #<\n")]),
    ("sheaf-descent-missing-object", InvariantViolation, None, "object for 'u' missing",
     [("WA topology J at b sieve S\n", "WA topology J at b sieve S #<\n"),
      ("  object u : Za\n", "")]),
    ("sheaf-descent-missing-iso", InvariantViolation, None, "iso for ('u', 'id_a') missing",
     [("WA topology J at b sieve S\n", "WA topology J at b sieve S #<\n"),
      ("  object u : Za\n  identity-isos\n", "  object u : Za\n")]),
    ("map_to_omega-header", ParseError, 1, "map_to_omega header: map_to_omega NAME over F",
     [("map_to_omega M over F\n", "map_to_omega M F #<\n")]),
    ("map_to_omega-dangling-presheaf", DanglingReference, None,
     "reference 'Nowhere' does not resolve",
     [("map_to_omega M over F\n", "map_to_omega M over Nowhere #<\n")]),
    ("map_to_omega-dangling-part", DanglingReference, None, "reference 'Nowhere' does not resolve",
     [("  part b p : Pb\n", "  part b p : Nowhere #<\n")]),
    ("map_to_omega-line", ParseError, 3, "bad map_to_omega line: 'parts b p : Pb'",
     [("  part b p : Pb\n", "  part b p : Pb\n  parts b p : Pb #<\n")]),
    ("map_to_omega-repeated-part", ParseError, 3, "repeated key ('b', 'p')",
     [("  part b p : Pb\n", "  part b p : Pb\n  part b p : Pb #<\n")]),
    ("map_to_omega-repeated-arrowpart", ParseError, 3, "repeated key 'id_a'",
     [("  arrowpart a id_p at id_a : p -> p\n",
       "  arrowpart a id_p at id_a : p -> p\n  arrowpart a id_p at id_a : p -> p #<\n")]),
    ("map_to_omega-pairs", ParseError, 1, "expected 'x -> y' pairs",
     [("  arrowpart a id_p at id_a : p -> p\n", "  arrowpart a id_p at id_a : p #<\n")]),
    ("map_to_omega-missing-part", InvariantViolation, None, "part for ('b', 'p') missing",
     [("map_to_omega M over F\n", "map_to_omega M over F #<\n"),
      ("  part b p : Pb\n", "")]),
    ("map_to_omega-invalid", InvariantViolation, None,
     "object_part at ('b', 'p') is not on slice(C, 'b')",
     [("map_to_omega M over F\n", "map_to_omega M over F #<\n"),
      ("  part b p : Pb\n", "  part b p : Pa\n")]),
    ("category-header-token", ParseError, 13, "unexpected 'junk' in category header",
     [("category Pt\n", "category Pt junk #<\n")]),
    ("category-header-token-repeats-name", ParseError, 13, "unexpected 'Pt' in category header",
     [("category Pt\n", "category Pt Pt #<\n")]),
    ("category-free-header-token", ParseError, 29, "unexpected 'junk' in category header",
     [("category Pt\n", "category Pt freely-generate junk #<\n")]),
    ("category-free-typo", ParseError, 13, "unexpected 'freely-generat' in category header",
     [("category Pt\n", "category Pt freely-generat #<\n")]),
    ("topology-header-token", ParseError, 18, "unexpected 'junk' in topology header",
     [("topology J on WA\n", "topology J on WA junk #<\n")]),
    ("topology-raw-header-token", ParseError, 22, "unexpected 'junk' in topology header",
     [("topology J on WA\n", "topology J on WA raw junk #<\n")]),
    ("topology-raw-typo", ParseError, 18, "unexpected 'Raw' in topology header",
     [("topology J on WA\n", "topology J on WA Raw #<\n")]),
]


def test_the_error_table_edits_a_document_that_parses():
    doc = parse(BLOCKS)
    assert doc.maps_to_omega and doc.sheaf_descent_data and doc.descent_data


@pytest.mark.parametrize("cls, column, detail, edits",
                         [case[1:] for case in BLOCK_ERRORS],
                         ids=[case[0] for case in BLOCK_ERRORS])
def test_every_block_error_names_its_line_column_and_message(cls, column, detail, edits):
    text = edit_blocks(edits)
    marked = [i + 1 for i, line in enumerate(text.splitlines()) if "#<" in line]
    assert len(marked) == 1
    with pytest.raises(TckError) as err:
        parse(text)
    exc = err.value
    assert type(exc) is cls
    assert exc.line == marked[0]
    assert getattr(exc, "column", None) == column
    prefix = f"line {exc.line}" + (f", column {column}" if column is not None else "")
    assert str(exc) == f"{prefix}: {detail}"


def test_functor_object_image_outside_the_target_is_an_invariant_violation():
    # the identity default for ob p is read off the target only when p's
    # image is one of its objects; otherwise validation names the image
    text = edit_blocks([("functor I : Pt -> Pt\n  ob p : p\n",
                         "functor I : Pt -> Pt\n  ob p : nope\n")])
    with pytest.raises(InvariantViolation) as err:
        parse(text)
    assert err.value.line == text.splitlines().index("functor I : Pt -> Pt") + 1
    assert str(err.value) == f"line {err.value.line}: object image 'nope' not in target"


# pieces of hostile ids: the format's own tokens, whitespace and '#'
ID_PIECES = [",", "(", ")", "<", ">", "|", "#", ":", "->", "end", " ", "\t", "a", "b"]
ids = st.lists(st.sampled_from(ID_PIECES), max_size=3).map("".join)


def writable(ident, element=False):
    return ident.split() == [ident] and "#" not in ident and not (element and ident == ",")


@settings(max_examples=150, deadline=None)
@given(generated_categories(), st.data())
def test_serialize_refuses_unwritable_ids_and_round_trips_the_rest(cat, data):
    from tck.fincat import build_category, constant_presheaf, identity_functor
    from tck.site import maximal_sieve

    obj = dict(zip(cat.objects, data.draw(
        st.lists(ids, min_size=len(cat.objects), max_size=len(cat.objects), unique=True))))
    arr = dict(zip(cat.arrows, data.draw(
        st.lists(ids, min_size=len(cat.arrows), max_size=len(cat.arrows), unique=True))))
    hostile = build_category(
        [obj[c] for c in cat.objects],
        {arr[f]: (obj[d], obj[c]) for f, (d, c) in cat.arrows.items()},
        {obj[c]: arr[i] for c, i in cat.identities.items()},
        {(arr[g], arr[f]): arr[h] for (g, f), h in cat.compose_table.items()})
    names = data.draw(st.lists(ids, min_size=4, max_size=4))
    labels = data.draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    b = DocumentBuilder()
    b.category(names[0], hostile)
    b.functor(names[1], identity_functor(hostile))
    b.setpresheaf(names[2], constant_presheaf(hostile, labels), ("cat", names[0]))
    b.sieve(names[3], maximal_sieve(hostile, hostile.objects[0]), names[0])
    ok = (all(map(writable, [*names, *obj.values(), *arr.values()]))
          and all(writable(x, element=True) for x in labels))
    try:
        text = serialize(b.doc)
    except InvalidTable:
        assert not ok
        return
    assert ok
    assert parse(text) == b.doc


def test_serialize_names_a_descent_datum_name_both_kinds_hold():
    # both kinds are written as descent_datum blocks, and parse refuses a
    # repeated descent_datum name
    doc = parse(BLOCKS)
    b = DocumentBuilder()
    b.sheaf_descent("D", *doc.sheaf_descent_data["DS"][:4])
    b.catpresheaf("F", doc.catpresheaves["F"][0], "WA")
    b.doc.descent_data["D"] = doc.descent_data["D"]
    with pytest.raises(InvalidTable) as err:
        serialize(b.doc)
    assert str(err.value) == \
        "descent_datum name 'D' is shared by descent_data and sheaf_descent_data"
    b.doc.descent_data["DC"] = b.doc.descent_data.pop("D")
    assert parse(serialize(b.doc)) == b.doc


@pytest.mark.parametrize("build, detail", [
    (lambda b, cat: b.category("", cat), "id '' cannot be written"),
    (lambda b, cat: b.category("W A", cat), "id 'W A' cannot be written"),
    (lambda b, cat: b.setpresheaf("Z", constant_presheaf(cat, ["x", "#"]), ("cat", "WA")),
     "id '#' cannot be written"),
    (lambda b, cat: b.setpresheaf("Z", constant_presheaf(cat, ["x", ","]), ("cat", "WA")),
     "element ',' cannot be written: it separates pairs"),
    (lambda b, cat: b.setpresheaf("Z", constant_presheaf(cat, ["x"]), ("cat", "slice")),
     "a presheaf base named 'slice' cannot be written"),
], ids=["empty", "space", "hash", "comma-element", "slice-base"])
def test_serialize_names_the_id_it_cannot_write(build, detail):
    # each of these documents would not parse back as itself
    b = DocumentBuilder()
    build(b, parse(WALKING_ARROW_DOC).categories["WA"])
    with pytest.raises(InvalidTable) as err:
        serialize(b.doc)
    assert str(err.value) == detail


# -- mutated documents parse or fail at one of their lines -----------------------------


def chain5_document() -> str:
    """A DocumentBuilder document on the chain c0 < ... < c4: an
    opfibration over the representable at c4 and a map into its classifier."""
    objs = [f"c{i}" for i in range(5)]
    cat = poset_category(objs, [(objs[i], objs[i + 1]) for i in range(4)])
    F = representable(cat, "c4")
    funs = setfunctor_corpus(elements_category(F), 6)
    b = DocumentBuilder()
    b.category("Chain5", cat)
    b.two_nat("phi", dopf_from_set_functor(F, funs[-1]).s, "phi.total", "Rep", "Chain5")
    b.map_to_omega("z", map_to_omega_from_set_functor(F, funs[-2]), "Rep", "Chain5")
    return serialize(b.doc)


def powerset3_document() -> str:
    """A DocumentBuilder document on the opens of the 3-point discrete
    space: its open-cover topology and four presheaves."""
    names = {m: "p" + format(m, "03b") for m in range(8)}
    cat = poset_category(list(names.values()), [
        (names[a], names[b]) for a in names for b in names if a != b and a & ~b == 0])
    gens = {names[u]: [[f"{names[1 << i]}_{names[u]}" for i in range(3) if u >> i & 1]]
            for u in names}
    j, _ = topology_from_generators(cat, gens)
    b = DocumentBuilder()
    b.topology("J", j, "P3")
    zs = presheaf_corpus(cat, 0)
    for i in (1, 4, 10, 20):
        b.setpresheaf(f"Z{i}", zs[i], ("cat", "P3"))
    return serialize(b.doc)


@functools.lru_cache(maxsize=None)
def fuzz_documents() -> tuple[str, ...]:
    paths = sorted(glob.glob(os.path.join(FIXTURES, "**", "*.site"), recursive=True))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return (*texts, chain5_document(), powerset3_document())


def mutate(lines: list[str], data) -> list[str]:
    """lines with one line dropped, duplicated or swapped with another, the
    document cut before a block's 'end', or a token appended to a header."""
    i, k = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "cut", "header"]))
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    if kind == "swap":
        lines = list(lines)
        lines[i], lines[k] = lines[k], lines[i]
        return lines
    if kind == "cut":
        ends = [n for n, line in enumerate(lines) if line == "end"]
        return lines[:data.draw(st.sampled_from(ends))] if ends else lines
    headers = [n for n, line in enumerate(lines) if line[:1].isalpha() and line != "end"]
    if not headers:
        return lines
    n = data.draw(st.sampled_from(headers))
    token = data.draw(st.sampled_from(["junk", "raw", "freely-generate", "->", ","]))
    return lines[:n] + [f"{lines[n]} {token}"] + lines[n + 1:]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_documents_parse_or_fail_at_one_of_their_lines(data):
    lines = data.draw(st.sampled_from(fuzz_documents())).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if lines:
            lines = mutate(lines, data)
    try:
        assert isinstance(parse("\n".join(lines)), Document)
    except TckError as exc:
        # only a block that runs off the end is named past the last line
        last = len(lines) + ("unterminated block" in str(exc))
        assert 1 <= exc.line <= last, exc
