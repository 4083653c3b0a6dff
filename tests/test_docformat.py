import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from category_strategies import generated_categories
from tck.docbuild import (
    DocumentBuilder,
    build_broken_topology_fixtures,
    build_shipped_fixtures,
    write_fixture_tree,
)
from tck.docformat import parse, parse_file, serialize
from tck.errors import DanglingReference, InvariantViolation, ParseError

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
