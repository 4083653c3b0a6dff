
import dataclasses
import itertools
import math
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import site_oracle
import stack_oracle
from category_strategies import generated_categories, idempotent_monoid, small_monoids
from fixture_corpus import (
    bases,
    nonseparated_presheaf,
    open_site,
    open_site_topology,
    parallel_pair,
    square,
    trivial_topology,
    walking_arrow,
)
from site_oracle import (
    all_sieves,
    plus_class_count,
    raw_matching_families,
    saturate,
    sheaf_verdicts,
)
from test_cli import BROKEN, CORPUS, child_env
from tck import site
from tck.corpus import poset_category, presheaf_corpus
from tck.errors import AxiomViolation, InvalidTable, MixedCodomain, UnknownObject
from tck.fincat import (
    DEFAULT_BOUND,
    FinCat,
    SetPresheaf,
    constant_presheaf,
    slice_arrow_name,
    slice_cat,
)
from tck.site import (
    GrothTopology,
    Sieve,
    amalgamations,
    empty_sieve,
    is_separated,
    is_sheaf,
    is_sieve,
    matching_families,
    maximal_sieve,
    plus,
    principal_sieves,
    pullback_sieve,
    representable_presheaf,
    sheafify,
    sieve_generate,
    sieve_generate_at,
    slice_topology,
    subcanonical_check,
    topology_from_generators,
    validate_topology,
)

OS = open_site()
OSJ = open_site_topology()
WA = walking_arrow()


def test_sieve_generate_identity_gives_maximal():
    for c in OS.objects:
        assert sieve_generate(OS, [OS.id_of(c)]) == maximal_sieve(OS, c)


def test_sieve_generate_empty_is_empty():
    assert sieve_generate_at(OS, "T", []) == empty_sieve("T")
    with pytest.raises(MixedCodomain):
        sieve_generate(OS, [])


def test_sieve_generate_joint_cover_contains_empty_arrow():
    s = sieve_generate(OS, ["L_T", "R_T"])
    assert s.arrows == frozenset({"L_T", "R_T", "O_T"})


def test_sieve_generate_mixed_codomain():
    with pytest.raises(MixedCodomain):
        sieve_generate(OS, ["L_T", "O_L"])


def test_pullback_along_identity_is_identity():
    s = sieve_generate(OS, ["L_T", "R_T"])
    assert pullback_sieve(OS, OS.id_of("T"), s) == s


def test_pullback_of_maximal_is_maximal():
    for f in OS.arrows:
        assert pullback_sieve(OS, f, maximal_sieve(OS, OS.cod(f))) == \
            maximal_sieve(OS, OS.dom(f))


def test_pullback_joint_cover_along_inclusion_is_maximal():
    s = sieve_generate(OS, ["L_T", "R_T"])
    assert pullback_sieve(OS, "L_T", s) == maximal_sieve(OS, "L")


def test_pullback_contravariant_functoriality():
    s = sieve_generate(OS, ["L_T", "R_T"])
    for g in OS.arrows_into("T"):
        for h in OS.arrows_into(OS.dom(g)):
            lhs = pullback_sieve(OS, OS.compose(g, h), s)
            rhs = pullback_sieve(OS, h, pullback_sieve(OS, g, s))
            assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generated_sieves_are_closed(data):
    c = data.draw(st.sampled_from(sorted(OS.objects)))
    into = sorted(OS.arrows_into(c))
    fam = data.draw(st.lists(st.sampled_from(into), max_size=3))
    s = sieve_generate_at(OS, c, fam)
    assert is_sieve(OS, s)
    for f in fam:
        assert f in s.arrows


def test_open_site_topology_saturation():
    assert set(OSJ.covers["T"]) == {
        maximal_sieve(OS, "T"),
        sieve_generate(OS, ["L_T", "R_T"]),
    }
    assert set(OSJ.covers["O"]) == {maximal_sieve(OS, "O"), empty_sieve("O")}
    assert set(OSJ.covers["L"]) == {maximal_sieve(OS, "L")}
    assert set(OSJ.covers["R"]) == {maximal_sieve(OS, "R")}


def test_trivial_topology_valid_everywhere():
    from fixture_corpus import bases

    for cat in bases().values():
        rep = validate_topology(trivial_topology(cat))
        assert rep.ok


def test_open_site_topology_valid_and_subcanonical():
    assert validate_topology(OSJ).ok
    assert subcanonical_check(OSJ).ok


def test_trivial_topology_subcanonical_on_poset_sites():
    from fixture_corpus import square

    for cat in (OS, square()):
        assert subcanonical_check(trivial_topology(cat)).ok


def broken_maximality():
    from tck.fincat import discrete_category

    D = discrete_category(["x", "y"])
    return GrothTopology(
        D, {"x": frozenset(), "y": frozenset({maximal_sieve(D, "y")})}
    )


def broken_stability():
    PP = parallel_pair()
    return GrothTopology(
        PP,
        {
            "a": frozenset({maximal_sieve(PP, "a")}),
            "b": frozenset({
                maximal_sieve(PP, "b"),
                Sieve("b", frozenset({"u"})),
                Sieve("b", frozenset({"u", "v"})),
            }),
        },
    )


def broken_transitivity():
    PP = parallel_pair()
    return GrothTopology(
        PP,
        {
            "a": frozenset({maximal_sieve(PP, "a"), empty_sieve("a")}),
            "b": frozenset({maximal_sieve(PP, "b"), Sieve("b", frozenset({"u"}))}),
        },
    )


def test_broken_topologies_fail_with_named_axiom():
    for build, axiom in [
        (broken_maximality, "maximality"),
        (broken_stability, "stability"),
        (broken_transitivity, "transitivity"),
    ]:
        rep = validate_topology(build())
        assert not rep.ok
        kinds = {c[0] for c in rep.counterexamples}
        assert kinds == {axiom}, (axiom, rep.counterexamples)


def test_sheaf_checks_reject_raw_non_topologies():
    # a raw table whose M_c does not cover, is not stable or is not
    # transitive has no sheaf or stack condition to check, not even for
    # delta1, and induces no slice topology
    from tck.prestack import discrete_presheaf
    from tck.stacks import check_stack

    def stack_check(Z, j):
        return check_stack(discrete_presheaf(j.base, Z), j)

    def slice_check(Z, j):
        return slice_topology(j, j.base.objects[-1])

    for build, axiom in [(broken_stability, "stability"),
                         (broken_maximality, "maximality"),
                         (broken_transitivity, "transitivity")]:
        j = build()
        for check in (is_sheaf, is_separated, plus, sheafify, stack_check, slice_check):
            with pytest.raises(AxiomViolation) as exc:
                check(constant_presheaf(j.base, "*"), j)
            assert exc.value.kind == axiom, check


def test_a_raw_table_that_misses_an_object_names_it():
    from tck.fincat import discrete_category

    D = discrete_category(["x"])
    with pytest.raises(AxiomViolation) as exc:
        is_sheaf(constant_presheaf(D, "*"), GrothTopology(D, {}))
    assert (exc.value.kind, exc.value.witness) == ("coverage", "x")
    # the first missing object in sorted order
    D3 = discrete_category(["z", "y", "x"])
    j = GrothTopology(D3, {"x": frozenset({maximal_sieve(D3, "x")})})
    with pytest.raises(AxiomViolation) as exc:
        j.minimal
    assert (exc.value.kind, exc.value.witness) == ("coverage", "y")
    assert validate_topology(j).counterexamples == [("coverage", "y")]


def refuse_to_list(*args):
    raise AssertionError("sieves above a least cover listed")


def test_a_raw_table_not_closed_upward_fails_without_listing_sieves(monkeypatch):
    # the empty sieve and the maximal sieve at every object of the open
    # site: each M_c is empty, so maximality, stability and transitivity
    # hold on the M_c, but J(L) misses the empty sieve with O_L added
    j = GrothTopology(OS, {c: frozenset({maximal_sieve(OS, c), empty_sieve(c)})
                           for c in OS.objects})
    monkeypatch.setattr(site, "sieves_above", refuse_to_list)
    with pytest.raises(AxiomViolation) as exc:
        is_sheaf(constant_presheaf(OS, "*"), j)
    assert exc.value.kind == "transitivity"
    assert exc.value.witness == ("L", ("O_L",), ())
    rep = validate_topology(j)
    assert rep.counterexamples == [("transitivity", "L", ("O_L",), ())]
    assert rep.counterexamples[0] in site_oracle.validate_topology(j).counterexamples


def test_slice_topology_trivial_is_trivial():
    for c in OS.objects:
        sl, _ = slice_cat(OS, c)
        assert slice_topology(trivial_topology(OS), c) == trivial_topology(sl)


def test_slice_topologies_equal_the_every_cover_oracle():
    for j in (OSJ, *(powerset_site(k) for k in range(1, 5))):
        for c in j.base.objects:
            assert slice_topology(j, c) == site_oracle.slice_topology(j, c), c


@settings(max_examples=40, deadline=None)
@given(generated_categories(), st.data())
def test_slice_topologies_equal_the_oracle_over_generated_categories(cat, data):
    gens = {
        c: data.draw(st.lists(st.lists(st.sampled_from(sorted(cat.arrows_into(c))),
                                       max_size=3), max_size=2))
        for c in cat.objects
    }
    j, _ = topology_from_generators(cat, gens)
    for c in cat.objects:
        assert slice_topology(j, c) == site_oracle.slice_topology(j, c), (gens, c)


def test_slice_topology_is_valid_and_joint_cover_reappears():
    for c in OS.objects:
        assert validate_topology(slice_topology(OSJ, c)).ok
    slt = slice_topology(OSJ, "T")
    lifted = Sieve(
        "T_T",
        frozenset({
            slice_arrow_name("L_T", "T_T"),
            slice_arrow_name("R_T", "T_T"),
            slice_arrow_name("O_T", "T_T"),
        }),
    )
    assert lifted in slt.covers["T_T"]


def test_slice_topology_commutes_with_postcompose_pullback():
    # pulling a lifted sieve back along a slice arrow matches lifting the
    # base pullback
    slt = slice_topology(OSJ, "T")
    sl, _ = slice_cat(OS, "T")
    for f in sl.objects:
        for s_base in OSJ.covers[OS.dom(f)]:
            lifted = Sieve(f, frozenset(slice_arrow_name(g, f) for g in s_base.arrows))
            for name in sl.arrows:
                if sl.cod(name) != f:
                    continue
                g_under = None
                for g in OS.arrows_into(OS.dom(f)):
                    if slice_arrow_name(g, f) == name:
                        g_under = g
                if g_under is None:
                    continue
                pulled = pullback_sieve(sl, name, lifted)
                base_pulled = pullback_sieve(OS, g_under, s_base)
                dom_obj = sl.dom(name)
                expected = Sieve(
                    dom_obj,
                    frozenset(slice_arrow_name(h, dom_obj) for h in base_pulled.arrows),
                )
                assert pulled == expected


def joint_sieve():
    return sieve_generate(OS, ["L_T", "R_T"])


def test_matching_families_maximal_sieve_bijects_with_sections():
    Z = nonseparated_presheaf()
    mx = maximal_sieve(OS, "T")
    fams = matching_families(Z, mx)
    assert len(fams) == len(Z.on_objects["T"]) == 2
    for fam in fams:
        ams = amalgamations(Z, mx, fam)
        assert len(ams) == 1


def test_matching_families_empty_sieve():
    Z = nonseparated_presheaf()
    s = empty_sieve("T")
    fams = matching_families(Z, s)
    assert len(fams) == 1
    assert amalgamations(Z, s, fams[0]) == list(Z.on_objects["T"])


def test_matching_families_with_an_empty_pool_do_not_trip_a_small_bound():
    # pools of sizes 2, 2 and 0 give no candidate at all, so the bound of 3
    # is not exceeded, though 2 * 2 candidates over the nonempty pools are
    from tck.fincat import SetPresheaf

    cat = poset_category("abcz", [("a", "c"), ("b", "c"), ("z", "c")])
    on_objects = {"a": ("0", "1"), "b": ("0", "1"), "c": (), "z": ()}
    on_arrows = {f: {x: x for x in on_objects[c]} for f, (_, c) in cat.arrows.items()}
    Z = SetPresheaf(cat, on_objects, on_arrows)
    Z.validate()
    s = Sieve("c", frozenset({"a_c", "b_c", "z_c"}))
    assert [len(Z.on_objects[cat.dom(f)]) for f in s.sorted_arrows()] == [2, 2, 0]
    assert matching_families(Z, s, bound=3) == []


def test_matching_families_over_a_family_that_is_no_sieve_raise_invalid_table():
    # L_T.O_L = O_T is missing, so the plan has no position for it
    with pytest.raises(InvalidTable, match="leaves the sieve"):
        matching_families(nonseparated_presheaf(), Sieve("T", frozenset({"L_T"})))


def test_matching_families_over_arrows_that_are_no_sieve_raise_invalid_table():
    # the maximal sieve on T, held at L, passes every closure check
    into_t = maximal_sieve(OS, "T").arrows
    assert not is_sieve(OS, Sieve("L", into_t))
    with pytest.raises(InvalidTable, match="'L_T' does not land at 'L'"):
        matching_families(nonseparated_presheaf(), Sieve("L", into_t))
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        matching_families(nonseparated_presheaf(), Sieve("T", frozenset({"L_T", "nope"})))


def test_a_sieve_at_an_unknown_object_is_no_sieve():
    # an empty family at 'nope' passes every check on its arrows
    nowhere = Sieve("nope", frozenset())
    assert not is_sieve(WA, nowhere)
    with pytest.raises(UnknownObject, match="nope"):
        site.sieve_plan(WA, nowhere)
    with pytest.raises(UnknownObject, match="nope"):
        matching_families(constant_presheaf(WA, "ab"), nowhere)


def test_amalgamations_refuse_a_family_on_another_sieve_or_presheaf():
    Z = constant_presheaf(WA, "ab")
    on_b, on_none = maximal_sieve(WA, "b"), empty_sieve("b")
    m = matching_families(Z, on_b)[0]
    assert amalgamations(Z, on_b, m) == ["a"]
    with pytest.raises(InvalidTable, match="another sieve or presheaf"):
        amalgamations(Z, on_none, m)
    with pytest.raises(InvalidTable, match="another sieve or presheaf"):
        amalgamations(Z, on_b, matching_families(Z, on_none)[0])
    with pytest.raises(InvalidTable, match="another sieve or presheaf"):
        amalgamations(constant_presheaf(WA, "abc"), on_b, m)


def test_amalgamations_refuse_an_assignment_that_is_no_matching_family():
    Z = constant_presheaf(WA, "ab")
    on_b = maximal_sieve(WA, "b")
    with pytest.raises(InvalidTable, match="compatibility"):
        amalgamations(Z, on_b, site.MatchingFamily(Z, on_b, {"id_b": "a", "u": "b"}))
    with pytest.raises(InvalidTable, match="exactly the sieve"):
        amalgamations(Z, on_b, site.MatchingFamily(Z, on_b, {"id_b": "a"}))
    # u sends no section y of Z(b) to Z(a): Z is no presheaf
    broken = SetPresheaf(WA, {"a": ("x",), "b": ("y",)},
                         {"id_a": {"x": "x"}, "id_b": {"y": "y"}, "u": {}})
    m = site.MatchingFamily(broken, on_b, {"id_b": "y", "u": "x"})
    with pytest.raises(InvalidTable, match="action of 'u'"):
        amalgamations(broken, on_b, m)


def test_pullback_along_an_unknown_arrow_raises_invalid_table():
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        pullback_sieve(OS, "nope", joint_sieve())


def test_matching_families_on_joint_cover_counts():
    # truly constant {0,1}: compatibility through O forces equal choices -> 2
    Zconst = constant_presheaf(OS, ["0", "1"])
    fams = matching_families(Zconst, joint_sieve())
    raw = raw_matching_families(Zconst, joint_sieve())
    assert len(fams) == len(raw) == 2
    # with a singleton at O the choices over L and R are independent -> 4
    single = ("*",)
    on_objects = {"O": single, "L": ("0", "1"), "R": ("0", "1"), "T": ("0", "1")}
    on_arrows = {}
    for f, (d, c) in OS.arrows.items():
        src = on_objects[c]
        if d == "O":
            on_arrows[f] = {x: "*" for x in src}
        else:
            on_arrows[f] = {x: x for x in src}
    from tck.fincat import SetPresheaf

    Zfree = SetPresheaf(OS, on_objects, on_arrows)
    Zfree.validate()
    fams = matching_families(Zfree, joint_sieve())
    raw = raw_matching_families(Zfree, joint_sieve())
    assert len(fams) == len(raw) == 4


def test_delta1_is_sheaf_for_every_topology():
    for topo in (OSJ, trivial_topology(OS)):
        assert is_sheaf(constant_presheaf(OS, "*"), topo).ok


def test_representables_on_open_site_are_sheaves():
    for b in OS.objects:
        assert is_sheaf(representable_presheaf(OS, b), OSJ).ok


def test_nonseparated_fixture_detected():
    Z = nonseparated_presheaf()
    rep = is_separated(Z, OSJ)
    assert not rep.ok
    c, arrows, fam, n = rep.counterexamples[0]
    assert c == "T" and n == 2
    assert not is_sheaf(Z, OSJ).ok


def test_sheaf_implies_separated_on_corpus():
    for Z in presheaf_corpus(OS, 12):
        if is_sheaf(Z, OSJ).ok:
            assert is_separated(Z, OSJ).ok


def test_plus_collapses_nonseparated_fixture():
    Z = nonseparated_presheaf()
    pc = plus(Z, OSJ)
    assert len(pc.presheaf.on_objects["T"]) == 1
    # independent oracle: close the agree-on-intersection relation on all
    # (cover, family) pairs at T
    assert plus_class_count(Z, OSJ.covers["T"]) == 1


def test_plus_makes_separated_and_twice_makes_sheaf():
    fixtures = presheaf_corpus(OS, 12) + [nonseparated_presheaf()]
    for Z in fixtures:
        pc = plus(Z, OSJ)
        assert is_separated(pc.presheaf, OSJ).ok
        sh = sheafify(Z, OSJ)
        assert is_sheaf(sh.presheaf, OSJ).ok


def test_sheafify_fixes_sheaves_up_to_unit_iso():
    for Z in presheaf_corpus(OS, 12):
        sh = sheafify(Z, OSJ)
        if is_sheaf(Z, OSJ).ok:
            assert sh.unit.is_iso()
        else:
            assert not sh.unit.is_iso()


def test_delta1_fixed_by_plus():
    pc = plus(constant_presheaf(OS, "*"), OSJ)
    assert pc.unit.is_iso()


def test_unit_injective_iff_separated():
    fixtures = presheaf_corpus(OS, 10) + [nonseparated_presheaf()]
    for Z in fixtures:
        pc = plus(Z, OSJ)
        injective = all(
            len(set(comp.values())) == len(comp)
            for comp in pc.unit.components.values()
        )
        assert injective == is_separated(Z, OSJ).ok


def intersect_sieves(a, b):
    if a.at != b.at:
        raise InvalidTable("sieve intersection needs a common object")
    return Sieve(a.at, a.arrows & b.arrows)


def test_intersection_of_covers_is_covering():
    for c in OS.objects:
        for s1 in OSJ.covers[c]:
            for s2 in OSJ.covers[c]:
                assert intersect_sieves(s1, s2) in OSJ.covers[c]


def draw_topology(data):
    """A shipped base with the topology generated by up to two families of
    up to three arrows at each object."""
    name = data.draw(st.sampled_from(sorted(bases())))
    cat = bases()[name]
    gens = {}
    for c in cat.objects:
        into = sorted(cat.arrows_into(c))
        gens[c] = data.draw(st.lists(st.lists(st.sampled_from(into), max_size=3), max_size=2))
    topo, _ = topology_from_generators(cat, gens)
    return name, gens, topo


def draw_presheaf(data, cat):
    zs = presheaf_corpus(cat, 6)
    return zs[data.draw(st.integers(0, len(zs) - 1))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimal_cover_algorithms_agree_with_exhaustive_oracle(data):
    name, gens, topo = draw_topology(data)
    cat = topo.base
    assert dict(topo.covers) == saturate(cat, gens)
    Z = draw_presheaf(data, cat)
    pc = plus(Z, topo)
    for c in cat.objects:
        assert len(pc.presheaf.on_objects[c]) == plus_class_count(Z, topo.covers[c]), (name, c)
    # the sheaf conditions on M_c alone agree with every cover, also on a
    # slice; the plan-based reports and plus tables are the composing ones
    # exactly, counterexamples, q labels and units included
    c = data.draw(st.sampled_from(cat.objects))
    for W, j in ((Z, topo), (draw_presheaf(data, slice_cat(cat, c)[0]), slice_topology(topo, c))):
        assert (is_sheaf(W, j).ok, is_separated(W, j).ok) == sheaf_verdicts(W, j), (name, c)
        assert is_sheaf(W, j) == site_oracle.is_sheaf(W, j), (name, c)
        assert is_separated(W, j) == site_oracle.is_separated(W, j), (name, c)
        expected = site_oracle.plus(W, j)
        got = plus(W, j)
        assert got == expected, (name, c)
        assert list(got.presheaf.on_objects.items()) == list(expected.presheaf.on_objects.items())


def test_sheaf_reports_equal_the_composing_oracle_over_a_fixed_sweep():
    # several failing families at one object, where the first in product
    # order must be the one reported
    several = 0
    for cat in bases().values():
        tops = [
            trivial_topology(cat),
            topology_from_generators(cat, {c: [[]] for c in cat.objects})[0],
            topology_from_generators(cat, {
                c: [[f] for f in cat.arrows_into(c) if f != cat.id_of(c)] for c in cat.objects
            })[0],
        ]
        for j in tops:
            for Z in presheaf_corpus(cat, 12):
                for check, oracle in ((is_sheaf, site_oracle.is_sheaf),
                                      (is_separated, site_oracle.is_separated)):
                    rep = check(Z, j)
                    assert rep == oracle(Z, j)
                    several += rep.verdict == "fail" and \
                        len(matching_families(Z, j.minimal[rep.counterexamples[0][0]])) > 1
    assert several > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sheafify_yields_a_sheaf_and_is_idempotent_on_generated_topologies(data):
    name, _, topo = draw_topology(data)
    Z = draw_presheaf(data, topo.base)
    sh = sheafify(Z, topo)
    assert sh.unit.is_iso() == is_sheaf(Z, topo).ok, name
    assert site_oracle.is_sheaf(sh.presheaf, topo).ok, name
    assert sheafify(sh.presheaf, topo).unit.is_iso(), name


def assert_plan_kernels_equal_the_oracle(Z, j):
    """The plan-based sheaf reports, plus and sheafify equal the composing
    oracle's, tables, labels, section order and units included, and the
    plans' checks are their triples less one identity triple per arrow."""
    cat = j.base
    for p in j.plan.covers.values():
        identity_triples = tuple((i, cat.id_of(d), i) for i, d in enumerate(p.doms))
        assert sorted(p.checks + identity_triples) == sorted(p.triples)
    assert (is_sheaf(Z, j).ok, is_separated(Z, j).ok) == sheaf_verdicts(Z, j)
    assert is_sheaf(Z, j) == site_oracle.is_sheaf(Z, j)
    assert is_separated(Z, j) == site_oracle.is_separated(Z, j)
    first = site_oracle.plus(Z, j)
    second = site_oracle.plus(first.presheaf, j)
    sh = sheafify(Z, j)
    for got, expected in ((sh.first, first), (sh.second, second)):
        assert got == expected
        assert list(got.presheaf.on_objects.items()) == \
            list(expected.presheaf.on_objects.items())


def test_plan_kernels_equal_the_oracle_on_the_idempotent_site():
    # M_* = {e} and e.e = e: the triple (e, e, e) compares a family with
    # itself, and is a real check
    j, _ = topology_from_generators(idempotent_monoid(), {"*": [["e"]]})
    assert j.minimal["*"].arrows == {"e"}
    zs = presheaf_corpus(j.base, 12)
    assert len(zs) >= 12
    for Z in zs:
        assert_plan_kernels_equal_the_oracle(Z, j)
    assert 0 < sum(is_sheaf(Z, j).ok for Z in zs) < len(zs)


@settings(max_examples=40, deadline=None)
@given(small_monoids(), st.data())
def test_plan_kernels_equal_the_oracle_on_generated_monoids(cat, data):
    into = sorted(cat.arrows_into("*"))
    gens = data.draw(st.lists(st.lists(st.sampled_from(into), max_size=3), max_size=2))
    j, _ = topology_from_generators(cat, {"*": gens})
    Z = draw_presheaf(data, cat)
    # the oracles filter every assignment over every cover, of Z and of Z+
    assume(len(Z.on_objects["*"]) ** len(into) <= 4096)
    assume(len(plus(Z, j).presheaf.on_objects["*"]) ** len(j.minimal["*"].arrows) <= 4096)
    assert_plan_kernels_equal_the_oracle(Z, j)


def test_plan_kernels_equal_the_oracles_on_sparse_presheaves():
    # a domain of M_c with no section leaves no family at c, and c no section
    from test_stacks import on_least_covers
    from tck.corpus import hom_into
    from tck.prestack import discrete_presheaf
    from tck.stacks import check_stack

    for k in (2, 3):
        j = powerset_site(k)
        cat = j.base
        zs = [Z for Z in presheaf_corpus(cat, 0) if not all(Z.on_objects.values())]
        zs += [hom_into(cat, b) for b in cat.objects]
        assert len(zs) > 2 ** k
        for Z in zs:
            Z.validate()
            assert_plan_kernels_equal_the_oracle(Z, j)
            F = discrete_presheaf(cat, Z)
            rep, expected = check_stack(F, j), stack_oracle.check_stack(F, j)
            assert rep.verdict == expected.verdict
            assert rep.counterexamples == on_least_covers(expected, j)
            assert rep.bounds == expected.bounds == {}


def dead_objects(Z, j):
    """The objects c where some domain of M_c has no section."""
    return {c for c, p in j.plan.covers.items() if not all(Z.on_objects[d] for d in p.doms)}


def test_sheaf_kernels_enumerate_families_at_live_objects_only(monkeypatch):
    # and only where the least cover is neither maximal nor empty: at a
    # point {x}, M_{x} holds the identity, and its families are the
    # restrictions of Z({x}); at the empty open, M is empty and its one
    # family is the empty one
    j = powerset_site(4)
    # the member with 8 or more dead objects that has the most live ones
    Z = min((Z for Z in presheaf_corpus(j.base, 0) if len(dead_objects(Z, j)) >= 8),
            key=lambda Z: len(dead_objects(Z, j)))
    calls = []
    enumerate_families = site.compatible_families

    def recording(what, pools, checks, bound):
        calls.append(tuple(map(len, pools)))
        return enumerate_families(what, pools, checks, bound)

    def searched(W):
        """The live objects whose least cover is neither maximal nor empty."""
        dead = dead_objects(W, j)
        return [c for c in j.base.objects if c not in dead
                and j.plan.covers[c].arrows and not j.plan.covers[c].maximal]

    monkeypatch.setattr(site, "compatible_families", recording)
    first = plus(Z, j)
    assert len(j.base.objects) - len(dead_objects(Z, j)) == 8
    assert searched(Z) == searched(first.presheaf) == ["p0011", "p0101", "p0110", "p0111"]
    pools = [tuple(len(Z.on_objects[d]) for d in j.plan.covers[c].doms) for c in searched(Z)]
    pools_plus = [tuple(len(first.presheaf.on_objects[d]) for d in j.plan.covers[c].doms)
                  for c in searched(first.presheaf)]
    calls.clear()
    assert is_sheaf(Z, j).ok
    assert calls == pools
    calls.clear()
    assert is_separated(Z, j).ok
    assert calls == pools
    calls.clear()
    plus(Z, j)
    assert calls == pools
    calls.clear()
    sheafify(Z, j)
    assert calls == pools + pools_plus


def test_an_empty_least_cover_is_decided_from_its_section_count():
    # the empty open p000 is covered by the empty sieve: its one family, the
    # empty one, is amalgamated by every section, so |Z(p000)| decides there.
    # Z is empty elsewhere, so no other object has a family to count.  The
    # empty product's estimate of 1 is still spent, so bound 0 trips at
    # p000 as the enumeration did, and bound 1 decides
    j = powerset_site(3)
    cat = j.base
    assert j.plan.covers["p000"].arrows == () and list(cat.objects)[0] == "p000"
    for n in (0, 1, 2):
        at = {c: ("a", "b")[:n] if c == "p000" else () for c in cat.objects}
        Z = SetPresheaf(cat, at, {f: {x: x for x in at[c]} for f, (d, c) in cat.arrows.items()})
        for kernel in (is_sheaf, is_separated, plus, sheafify):
            assert outcome(kernel, Z, j, 0) == ("SizeBound", "matching_families", 1, 0)
        for kernel, oracle, holds in ((is_sheaf, site_oracle.is_sheaf, n == 1),
                                      (is_separated, site_oracle.is_separated, n <= 1)):
            rep, expected = kernel(Z, j, 1), oracle(Z, j)
            assert (rep.verdict, rep.counterexamples) == (expected.verdict, expected.counterexamples)
            assert rep.counterexamples == ([] if holds else [("p000", (), {}, n)])
        # Z+(p000) is the one empty family; every other Z+(c) is empty
        assert plus(Z, j, 1).presheaf.on_objects == sheafify(Z, j, 1).presheaf.on_objects == \
            {c: ("q0",) if c == "p000" else () for c in cat.objects}
        assert repr(plus(Z, j, 1)) == repr(plus(Z, j))


def test_sheaf_kernels_decide_the_maximal_sieves_of_chain13_at_any_bound():
    # the top of chain13 has 13 arrows into it, so 3^13 candidate families,
    # and chain20 has 3^20; a maximal least cover settles itself unbounded
    for n in (13, 20):
        names = [f"c{i}" for i in range(n)]
        cat = poset_category(names, list(zip(names, names[1:])))
        j, Z = trivial_topology(cat), constant_presheaf(cat, "abc")
        for bound in (0, 10 ** 6):
            assert is_sheaf(Z, j, bound).verdict == "pass"
            assert is_separated(Z, j, bound).verdict == "pass"
            assert sheafify(Z, j, bound).unit.is_iso()


# -- maximal least covers settle themselves: the kernels against their enumeration ----


def enumerating(j):
    """j with no least cover marked maximal, so that every kernel enumerates
    the product of the value pools at every object."""
    out = GrothTopology.from_minimal(j.base, j.minimal)
    covers = {c: dataclasses.replace(p, maximal=False) for c, p in j.plan.covers.items()}
    out.__dict__["plan"] = site.RestrictionPlan(covers, j.plan.arrows)
    return out


def outcome(kernel, *args):
    """What kernel(*args) gives, as a value to compare: a report's verdict,
    ordered counterexamples, bounds in insertion order and witnesses; the
    repr of a plus construction or sheafification, which holds its tables,
    section order and units; or the SizeBound it raises."""
    from tck.errors import SizeBound
    from tck.report import Report

    try:
        got = kernel(*args)
    except SizeBound as exc:
        return ("SizeBound", exc.what, exc.estimate, exc.bound)
    if isinstance(got, Report):
        return got.verdict, got.counterexamples, list(got.bounds.items()), got.witnesses
    return repr(got)


def non_maximal_products(j, *presheaves):
    """The size of the product of value pools at each least cover that is
    not maximal and has no empty pool: the estimates that a matching-family
    enumeration there spends."""
    return {math.prod(len(W.on_objects[d]) for d in p.doms)
            for W in presheaves for p in j.plan.covers.values()
            if not p.maximal and all(W.on_objects[d] for d in p.doms)}


def stratum_object(what):
    """The object a bounded stratum of check_stack names."""
    return what.split(" at ", 1)[1].split(" over ")[0]


def without_maximal_strata(got, j):
    """A check_stack outcome less its bounded strata at maximal least
    covers, with the verdict they alone made bounded back at pass."""
    verdict, counterexamples, bounds, witnesses = got
    kept = [(what, b) for what, b in bounds if not j.plan.covers[stratum_object(what)].maximal]
    if verdict == "bounded-pass" and not kept:
        verdict = "pass"
    return verdict, counterexamples, kept, witnesses


def assert_kernels_match_their_enumeration(Z, j, label=None):
    """is_sheaf, is_separated, plus, sheafify and check_stack on the discrete
    presheaf of Z against the same kernels when no cover is taken as
    maximal, at every bound, and against the oracles at the default bound.
    Where the enumeration decides, both give one outcome.  Where it trips,
    the kernel gives the same outcome, its default-bound outcome, or a
    SizeBound at a non-maximal cover; check_stack gives the enumeration's
    report less its strata at maximal covers.  No SizeBound or bounded
    stratum the kernel reports names a maximal cover."""
    from test_stacks import BOUNDS, on_least_covers
    from tck.prestack import discrete_presheaf
    from tck.stacks import check_stack

    Z.validate()
    F = discrete_presheaf(j.base, Z)
    full = enumerating(j)
    estimates = non_maximal_products(j, Z, plus(Z, j).presheaf)
    for kernel, arg in ((is_sheaf, Z), (is_separated, Z), (plus, Z), (sheafify, Z)):
        default = outcome(kernel, arg, j, DEFAULT_BOUND)
        for bound in BOUNDS:
            got, enumerated = outcome(kernel, arg, j, bound), outcome(kernel, arg, full, bound)
            where = (label, kernel.__name__, bound)
            tripped = enumerated[0] == "SizeBound"
            assert got == enumerated or tripped and (got == default or got[0] == "SizeBound"), \
                where
            assert got[0] != "SizeBound" or got[2] in estimates, where
    for bound in BOUNDS:
        got = outcome(check_stack, F, j, bound)
        assert got == without_maximal_strata(outcome(check_stack, F, full, bound), j), \
            (label, bound)
        assert all(not j.plan.covers[stratum_object(what)].maximal for what, _ in got[2])
    assert_plan_kernels_equal_the_oracle(Z, j)
    assert list(plus(Z, j).presheaf.on_arrows) == list(j.base.arrows)
    rep, expected = check_stack(F, j), stack_oracle.check_stack(F, j)
    assert rep.verdict == expected.verdict
    assert rep.counterexamples == on_least_covers(expected, j)


def reversed_at_alternate_objects(Z):
    """Z carried along the bijection that reverses the elements at every
    other object, so that restricting need not keep their order."""
    rename = {}
    for n, c in enumerate(Z.base.objects):
        xs = Z.on_objects[c]
        rename[c] = dict(zip(xs, xs[::-1] if n % 2 else xs))
    return SetPresheaf(Z.base, dict(Z.on_objects), {
        f: {rename[c][x]: rename[d][y] for x, y in Z.on_arrows[f].items()}
        for f, (d, c) in Z.base.arrows.items()
    })


def test_kernels_match_their_enumeration_on_the_corpora():
    # a maximal cover lists its families as the sorted restriction tuples of
    # Z(c); where restricting does not keep the order of Z(c), the sort moves
    from test_stacks import chain_with_a_lower_cover

    sites = [powerset_site(k) for k in (1, 2, 3)] + [chain_with_a_lower_cover(n) for n in (3, 4, 5)]
    monoid = idempotent_monoid()
    sites.append(topology_from_generators(monoid, {"*": [["e"]]})[0])
    sites += [trivial_topology(j.base) for j in sites]
    verdicts, settled, unsorted = set(), 0, 0
    for j in sites:
        for Z in presheaf_corpus(j.base, 12 if j.base is monoid else 0):
            for W in (Z, reversed_at_alternate_objects(Z)):
                assert_kernels_match_their_enumeration(W, j, (j.base.objects, W.on_arrows))
                verdicts.add(is_sheaf(W, j).verdict)
                for c, p in j.plan.covers.items():
                    rows = site.restrictions(W, p, c)
                    settled += p.maximal and bool(rows)
                    unsorted += p.maximal and rows != sorted(rows)
    assert verdicts == {"pass", "fail"}
    assert settled > unsorted > 0
    # Z++ has 16 sections at the top of the powerset site on two points:
    # q10 sorts before q2
    j = powerset_site(2)
    Z = constant_presheaf(j.base, "abcd")
    assert_kernels_match_their_enumeration(Z, j)
    assert len(sheafify(Z, j).presheaf.on_objects["p11"]) == 16


@settings(max_examples=60, deadline=None)
@given(generated_categories(), st.data())
def test_kernels_match_their_enumeration_on_generated_sites(cat, data):
    gens = {
        c: data.draw(st.lists(st.lists(st.sampled_from(sorted(cat.arrows_into(c))),
                                       max_size=3), max_size=2))
        for c in cat.objects
    }
    j, _ = topology_from_generators(cat, gens)
    Z = data.draw(st.sampled_from(presheaf_corpus(cat, 8)))
    if data.draw(st.booleans()):
        Z = reversed_at_alternate_objects(Z)
    assert_kernels_match_their_enumeration(Z, j, (gens, Z.on_arrows))
    assert_kernels_match_their_enumeration(Z, trivial_topology(cat), Z.on_arrows)


def test_maximal_plans_hold_the_identity():
    # a sieve is maximal iff it holds the identity of its object
    for j in (OSJ, powerset_site(3), trivial_topology(OS)):
        for c, p in j.plan.covers.items():
            assert p.maximal == (j.minimal[c] == maximal_sieve(j.base, c))
    assert [c for c, p in OSJ.plan.covers.items() if p.maximal] == ["L", "R"]
    assert [c for c, p in powerset_site(2).plan.covers.items() if p.maximal] == ["p01", "p10"]
    assert site.sieve_plan(OS, empty_sieve("T")).maximal is False
    with pytest.raises(UnknownObject, match="nowhere"):  # no object, so no identity
        site.sieve_plan(OS, Sieve("nowhere", frozenset()))


def test_transport_plus_iso_on_slices():
    # f*(Z+) and (f*Z)+ agree along the canonical transport for slice data
    from tck.fincat import reindex_slice_presheaf

    sl_T, _ = slice_cat(OS, "T")
    for Z in presheaf_corpus(sl_T, 6):
        for f in ("L_T", "O_T", "T_T"):
            iso = stack_oracle.transport_plus_iso(OS, OSJ, f, Z)
            assert iso.is_iso()


def test_all_sieves_on_T():
    sieves = all_sieves(OS, "T")
    # oracle: subsets of the 4 arrows into T closed under precomposition
    assert len(sieves) == 6


def test_sheafify_is_idempotent_up_to_iso():
    from map_oracle import presheaf_iso

    for Z in presheaf_corpus(OS, 8) + [nonseparated_presheaf()]:
        once = sheafify(Z, OSJ).presheaf
        twice = sheafify(once, OSJ)
        assert twice.unit.is_iso()
        assert presheaf_iso(twice.presheaf, once) is not None


def test_reindexing_preserves_sheaves_on_slices():
    # pulling a sheaf on slice(C, c) back along any f: d -> c yields a
    # sheaf on slice(C, d) for the induced topologies
    from tck.fincat import constant_presheaf, reindex_slice_presheaf

    for c in OS.objects:
        sl, _ = slice_cat(OS, c)
        slj = slice_topology(OSJ, c)
        assert is_sheaf(constant_presheaf(sl, "*"), slj).ok
        for Z in presheaf_corpus(sl, 8):
            if not is_sheaf(Z, slj).ok:
                continue
            for f in OS.arrows:
                if OS.cod(f) != c:
                    continue
                d = OS.dom(f)
                pulled = reindex_slice_presheaf(OS, f, Z)
                assert is_sheaf(pulled, slice_topology(OSJ, d)).ok, (c, f)


# -- validate_topology on least covers against the exhaustive oracle ---------------


def raw_topology(cat, chosen, maximal=False, stable=False, upward=False):
    """A covers table from chosen sieves per object, optionally with the
    maximal sieves added and closed under pullback and under enlargement."""
    covers = {c: set(chosen.get(c, ())) for c in cat.objects}
    if maximal:
        for c in cat.objects:
            covers[c].add(maximal_sieve(cat, c))
    changed = stable or upward
    while changed:
        changed = False
        for c in cat.objects:
            for s in list(covers[c]):
                new = set()
                if stable:
                    new |= {(cat.dom(g), pullback_sieve(cat, g, s)) for g in cat.arrows_into(c)}
                if upward:
                    new |= {(c, Sieve(c, s.arrows | p)) for p in site.principal_sieves(cat, c)}
                for d, t in new:
                    if t not in covers[d]:
                        covers[d].add(t)
                        changed = True
    return GrothTopology(cat, {c: frozenset(v) for c, v in covers.items()})


def assert_witness_among_oracle_failures(rep, expected):
    """validate_topology names the first axiom GrothTopology.minimal finds
    broken; the oracle lists every counterexample by the definitions.  The
    verdicts are equal.  A maximality or stability witness is one of the
    oracle's, a transitivity failure is among its kinds, and an intersection
    failure (M_c does not cover) shows in the oracle as the stability or
    transitivity failure it causes."""
    assert rep.verdict == expected.verdict
    if rep.ok:
        assert expected.counterexamples == []
        return None
    (witness,) = rep.counterexamples
    kinds = {ce[0] for ce in expected.counterexamples}
    if witness[0] in ("maximality", "stability"):
        assert witness in expected.counterexamples
    elif witness[0] == "transitivity":
        assert "transitivity" in kinds
    else:
        assert witness[0] == "intersection" and kinds & {"stability", "transitivity"}
    return witness[0]


def test_validate_topology_agrees_with_oracle_on_every_small_covers_table():
    outcomes = set()
    for name in ("point", "walking_arrow", "chain3", "parallel_pair", "span"):
        cat = bases()[name]
        candidates = {c: all_sieves(cat, c) for c in cat.objects}
        for picks in itertools.product(*(
            itertools.product((False, True), repeat=len(candidates[c])) for c in cat.objects
        )):
            chosen = {
                c: [s for s, keep in zip(candidates[c], pick) if keep]
                for c, pick in zip(cat.objects, picks)
            }
            j = GrothTopology(cat, {c: frozenset(v) for c, v in chosen.items()})
            expected = site_oracle.validate_topology(j)
            rep = validate_topology(j)
            outcomes.add(assert_witness_among_oracle_failures(rep, expected))
            assert rep == site_oracle.validate_least_covers(j)
    # valid tables and failures of every axiom a table of sieves can break occur
    assert outcomes == {None, "maximality", "intersection", "stability", "transitivity"}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_topology_agrees_with_oracle_on_random_covers_tables(data):
    cats = dict(bases(), square=square())
    cat = cats[data.draw(st.sampled_from(sorted(cats)))]
    chosen = {
        c: data.draw(st.lists(st.sampled_from(all_sieves(cat, c)), max_size=3))
        for c in cat.objects
    }
    j = raw_topology(cat, chosen, maximal=data.draw(st.booleans()),
                     stable=data.draw(st.booleans()), upward=data.draw(st.booleans()))
    rep = validate_topology(j)
    assert_witness_among_oracle_failures(rep, site_oracle.validate_topology(j))
    assert rep == site_oracle.validate_least_covers(j)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_raw_table_that_validates_is_the_topology_above_its_least_covers(data):
    cats = dict(bases(), square=square())
    cat = cats[data.draw(st.sampled_from(sorted(cats)))]
    chosen = {
        c: data.draw(st.lists(st.sampled_from(all_sieves(cat, c)), max_size=3))
        for c in cat.objects
    }
    j = raw_topology(cat, chosen, maximal=True, stable=True, upward=True)
    assume(validate_topology(j).ok)
    built = GrothTopology.from_minimal(j.base, j.minimal)
    assert built == j
    assert validate_topology(built).ok
    assert built.minimal == j.minimal


def powerset_site(k):
    """The opens of the discrete k-point space, U covered by its points."""
    names = {m: "p" + format(m, f"0{k}b") for m in range(2 ** k)}
    pairs = [(names[a], names[b]) for a in names for b in names if a != b and a & ~b == 0]
    cat = poset_category(list(names.values()), pairs)
    gens = {
        names[u]: [[f"{names[1 << i]}_{names[u]}" for i in range(k) if u >> i & 1]]
        for u in names
    }
    topo, _ = topology_from_generators(cat, gens)
    return topo


def test_validate_topology_on_valid_tables_never_enumerates_sieves(monkeypatch):
    tops = [OSJ, powerset_site(3), powerset_site(4)]
    tops += [trivial_topology(cat) for cat in bases().values()]
    tops += [slice_topology(OSJ, c) for c in OS.objects]
    monkeypatch.setattr(site, "sieves_above", refuse_to_list)
    for j in tops:
        assert validate_topology(j).verdict == "pass"
    # a failing table is reported by the one axiom GrothTopology.minimal
    # finds broken, again without listing a sieve
    for build, witness in [
        (broken_maximality, ("maximality", "x")),
        (broken_stability, ("stability", "b", ("u",), "v")),
        (broken_transitivity, ("transitivity", "b", ("u",))),
    ]:
        assert validate_topology(build()).counterexamples == [witness]
    # stability is decided on the M_c: one pullback per arrow
    j = powerset_site(4)
    calls = []
    pullback = site.pullback_sieve
    monkeypatch.setattr(site, "pullback_sieve", lambda *a: calls.append(a) or pullback(*a))
    assert validate_topology(j).verdict == "pass"
    assert len(calls) <= len(j.base.arrows) == 81


def test_sheaf_checks_and_sheafify_compose_no_arrows_once_the_plan_exists(monkeypatch):
    j = powerset_site(4)
    cat = j.base
    built = []
    build = site._restriction_plan
    monkeypatch.setattr(site, "_restriction_plan", lambda t: built.append(t) or build(t))
    slices = [slice_topology(j, c) for c in cat.objects]
    for t in (j, *slices, j, *slices):
        assert t.plan is t.plan
    assert all(slice_topology(j, c) is t for c, t in zip(cat.objects, slices))
    assert len(built) == 1 + len(slices)
    assert all(a is b for a, b in zip(built, (j, *slices)))
    zs = presheaf_corpus(cat, 0)[:24]
    composed = []
    compose = FinCat.compose
    monkeypatch.setattr(FinCat, "compose",
                        lambda self, g, f: composed.append((g, f)) or compose(self, g, f))
    sheaves = 0
    for Z in zs:
        sheaves += is_sheaf(Z, j).ok
        is_separated(Z, j)
        sheafify(Z, j)
    assert composed == []
    assert len(built) == 1 + len(slices)
    assert 0 < sheaves < 24


def test_sieve_operations_compose_no_arrows_once_the_principal_table_exists(monkeypatch):
    j = powerset_site(4)
    cat = j.base
    assert len(cat._principal) == 81
    composed = []
    compose = FinCat.compose
    monkeypatch.setattr(FinCat, "compose",
                        lambda self, g, f: composed.append((g, f)) or compose(self, g, f))
    for c in cat.objects:
        into = cat.arrows_into(c)
        assert set().union(*principal_sieves(cat, c)) == set(into)
        assert sieve_generate(cat, into) == maximal_sieve(cat, c)
        assert all(is_sieve(cat, s) for s in j.covers[c])
        assert is_sieve(cat, Sieve(c, frozenset({cat.id_of(c)}))) == (len(into) == 1)
    assert composed == []


def test_matching_families_never_read_an_identity_action():
    j = powerset_site(4)
    cat = j.base
    looked = []

    class Recording(dict):
        def __getitem__(self, f):
            looked.append(f)
            return dict.__getitem__(self, f)

    for Z in presheaf_corpus(cat, 0)[:24]:
        W = SetPresheaf(cat, Z.on_objects, Recording(Z.on_arrows))
        for p in j.plan.covers.values():
            site._families(W, p, DEFAULT_BOUND)
    assert looked
    assert not [f for f in looked if cat.is_identity(f)]


def test_k5_powerset_topology_validates_under_default_bound():
    j = powerset_site(5)
    assert sum(len(v) for v in j.covers.values()) == 7581
    assert validate_topology(j).verdict == "pass"


def test_powerset_k6_decides_every_check_without_listing_a_cover(monkeypatch):
    # 64 objects and 729 arrows: generation, validation, the 64 slice
    # topologies with their plans, the sheaf checks, sheafification and
    # the stack check all read the least covers alone
    import time

    from tck.prestack import discrete_presheaf
    from tck.stacks import check_stack

    monkeypatch.setattr(site, "sieves_above", refuse_to_list)
    start = time.monotonic()
    j = powerset_site(6)
    cat = j.base
    assert (len(cat.objects), len(cat.arrows)) == (64, 729)
    assert validate_topology(j).verdict == "pass"
    for c in cat.objects:
        assert slice_topology(j, c).plan is not None
    Z = constant_presheaf(cat, ["a", "b"])
    # the empty family covers the empty set, which Z gives two sections
    assert is_sheaf(Z, j).verdict == "fail"
    sh = sheafify(Z, j)
    assert is_sheaf(sh.presheaf, j).verdict == "pass"
    assert len(sh.presheaf.on_objects[cat.objects[-1]]) == 2 ** 6
    assert check_stack(discrete_presheaf(cat, Z), j).verdict == "fail"
    assert time.monotonic() - start < 10.0


def test_validate_topology_output_does_not_depend_on_hash_seed():
    # two covers at b whose intersection, the least cover, is not one; the
    # covers used to be visited in set iteration order
    code = (
        "from fixture_corpus import parallel_pair\n"
        "from tck.site import GrothTopology, Sieve, maximal_sieve, validate_topology\n"
        "PP = parallel_pair()\n"
        "b = [maximal_sieve(PP, 'b'), Sieve('b', frozenset('u')), Sieve('b', frozenset('v'))]\n"
        "j = GrothTopology(PP, {'a': frozenset({maximal_sieve(PP, 'a')}), 'b': frozenset(b)})\n"
        "print(validate_topology(j).counterexamples)\n"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=child_env(PYTHONHASHSEED=str(seed)),
                       check=True).stdout
        for seed in range(6)
    }
    assert outs == {"[('intersection', 'b', ())]\n"}


def test_open_site_sheaf_corpus_rejects_a_non_sheaf_also_under_python_O():
    # the check must survive -O, which strips assert statements
    code = (
        "import fixture_corpus as corpus\n"
        "from tck.errors import InvalidTable\n"
        "corpus.open_site_product_sheaf = lambda a, b: corpus.nonseparated_presheaf()\n"
        "try:\n"
        "    corpus.open_site_sheaf_corpus(3)\n"
        "except InvalidTable as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=child_env(), check=True)
    assert run.stdout == ("open-site corpus member 5 is no sheaf: ('T', ('L_T', 'O_T', 'R_T'), "
                          "{'L_T': '*', 'O_T': '*', 'R_T': '*'}, 2)\n")


def chain_missing_bottom_covers(n=21):
    """The trivial topology's table on the chain c00 < ... < c(n-1), less
    every cover of c00: J(c00) is empty, so maximality fails there.  c19
    and c20 have 20 and 21 arrows into them, so the subsets of those arrows
    number more than the default bound."""
    objs = [f"c{i:02d}" for i in range(n)]
    cat = poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])
    covers = {c: frozenset({maximal_sieve(cat, c)}) for c in objs}
    covers["c00"] = frozenset()
    return GrothTopology(cat, covers)


def chain21_document():
    """chain_missing_bottom_covers() as document text: topology J on C."""
    from tck.docbuild import DocumentBuilder
    from tck.docformat import serialize

    b = DocumentBuilder()
    b.topology("J", chain_missing_bottom_covers(), "C")
    return serialize(b.doc)


def test_a_broken_table_with_many_arrows_into_an_object_fails_at_once(tmp_path, monkeypatch):
    # c20 has 21 arrows into it: listing its 2^21 candidate sets used to
    # trip the bound after the failures were found, and read bounded-pass
    import time

    from test_cli import tck

    j = chain_missing_bottom_covers()
    monkeypatch.setattr(site, "sieves_above", refuse_to_list)
    start = time.monotonic()
    rep = validate_topology(j)
    assert (rep.verdict, rep.counterexamples, rep.bounds) == \
        ("fail", [("maximality", "c00")], {})
    assert time.monotonic() - start < 1.0
    path = tmp_path / "chain21.site"
    path.write_text(chain21_document())
    res = tck("check-site", str(path))
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert res.stdout.splitlines()[1:] == [
        "verdict: fail", "counterexample: ('J', 'maximality', 'c00')"]
    assert "aborted" not in res.stdout


# -- least covers: sorted only to name a failure, recorded where tck built them --------


def fixture_topologies(paths):
    from tck.docformat import parse_file

    return [topo for path in paths
            for topo, _ in parse_file(path).topologies.values()]


def test_raw_tables_sort_only_the_covers_that_fail(monkeypatch):
    passing, broken = fixture_topologies(CORPUS), fixture_topologies(BROKEN)
    assert any(not isinstance(t.covers, site._SievesAbove) for t in passing)
    sorted_ = []
    by_arrows = site._by_arrows
    monkeypatch.setattr(site, "_by_arrows", lambda s: sorted_.append(s) or by_arrows(s))
    for j in passing:
        assert validate_topology(j).verdict == "pass"
    assert sorted_ == []
    reps = [validate_topology(j) for j in broken]
    assert [r.counterexamples[0][0] for r in reps] == ["maximality", "stability", "transitivity"]
    assert reps == [site_oracle.validate_least_covers(j) for j in broken]


def test_a_cover_with_an_unknown_arrow_raises_invalid_table():
    j = GrothTopology(WA, {"a": frozenset({maximal_sieve(WA, "a")}),
                           "b": frozenset({maximal_sieve(WA, "b"),
                                           Sieve("b", frozenset({"u", "nope"}))})})
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        validate_topology(j)
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        is_sheaf(constant_presheaf(WA, "*"), j)
    built = GrothTopology.from_minimal(WA, {"a": maximal_sieve(WA, "a"),
                                            "b": Sieve("b", frozenset({"zz"}))})
    with pytest.raises(InvalidTable, match="unknown arrow 'zz'"):
        validate_topology(built)


def built_topologies():
    """Generated, trivial and slice topologies, each built afresh."""
    tops = [open_site_topology(), powerset_site(3)]
    tops += [trivial_topology(cat) for cat in bases().values()]
    tops += [slice_topology(j, c) for j in tops[:2] for c in j.base.objects]
    return tops


def test_built_topologies_are_checked_as_built(monkeypatch):
    tops = built_topologies()
    calls = []
    for name in ("pullback_sieve", "_composite"):
        real = getattr(site, name)
        monkeypatch.setattr(site, name, lambda *a, real=real: calls.append(a) or real(*a))
    for j in tops:
        assert validate_topology(j).verdict == "pass"
        assert j.plan.covers.keys() == j.minimal.keys()
        for c in j.base.objects:
            slice_topology(j, c).plan
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_categories(), small_monoids()), st.data())
def test_what_a_built_topology_records_is_what_a_full_check_returns(cat, data):
    gens = {c: data.draw(st.lists(st.lists(st.sampled_from(cat.arrows_into(c)), max_size=2),
                                  max_size=2))
            for c in cat.objects}
    j, _ = topology_from_generators(cat, gens)
    tops = [j, trivial_topology(cat)]
    tops += [slice_topology(t, c) for t in tops for c in cat.objects]
    for t in tops:
        # checked in full, with no record, by the earlier body and by minimal
        assert site_oracle.least_covers(t) == t.minimal
        assert GrothTopology.from_minimal(t.base, t.minimal).minimal == t.minimal


def test_from_minimal_records_nothing_and_checks_in_full():
    # M_a = {id_a} but M_b = {}: u*M_b = {} misses id_a
    j = GrothTopology.from_minimal(WA, {"a": maximal_sieve(WA, "a"), "b": empty_sieve("b")})
    assert "minimal" not in vars(j)
    assert validate_topology(j).counterexamples == [("stability", "b", (), "u")]
    with pytest.raises(AxiomViolation, match="stability"):
        is_sheaf(constant_presheaf(WA, "*"), j)


def test_cocycle_index_holds_the_tuples_sieve_plan_built():
    cats = dict(bases(), square=square(), idempotent=idempotent_monoid())
    for cat in cats.values():
        for c in cat.objects:
            for s in all_sieves(cat, c):
                p = site.sieve_plan(cat, s)
                assert "cocycles" not in vars(p)
                assert p.cocycles == site_oracle.cocycle_index(cat, p)
                assert p.cocycles is p.cocycles
