
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import site_oracle
import stack_oracle
from site_oracle import plus_class_count, raw_matching_families, saturate, sheaf_verdicts
from tck import site
from tck.corpus import (
    bases,
    nonseparated_presheaf,
    open_site,
    open_site_topology,
    parallel_pair,
    poset_category,
    presheaf_corpus,
    square,
    walking_arrow,
)
from tck.errors import AxiomViolation, InvalidTable, MixedCodomain
from tck.fincat import DEFAULT_BOUND, constant_presheaf, delta1, slice_arrow_name, slice_cat
from tck.site import (
    GrothTopology,
    Sieve,
    all_sieves,
    amalgamations,
    empty_sieve,
    is_separated,
    is_sheaf,
    is_sieve,
    matching_families,
    maximal_sieve,
    plus,
    pullback_sieve,
    representable_presheaf,
    sheafify,
    sieve_generate,
    sieve_generate_at,
    slice_topology,
    subcanonical_check,
    topology_from_generators,
    trivial_topology,
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
    from tck.corpus import bases

    for cat in bases().values():
        rep = validate_topology(trivial_topology(cat))
        assert rep.ok


def test_open_site_topology_valid_and_subcanonical():
    assert validate_topology(OSJ).ok
    assert subcanonical_check(OSJ).ok


def test_trivial_topology_subcanonical_on_poset_sites():
    from tck.corpus import square

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
    # a raw table whose M_c does not cover, or is not stable, has no
    # sheaf or stack condition to check, not even for delta1
    from tck.prestack import discrete_presheaf
    from tck.stacks import check_stack

    def stack_check(Z, j):
        return check_stack(discrete_presheaf(j.base, Z), j)

    for build, axiom in [(broken_stability, "stability"),
                         (broken_maximality, "intersection")]:
        j = build()
        for check in (is_sheaf, is_separated, stack_check):
            with pytest.raises(AxiomViolation) as exc:
                check(delta1(j.base), j)
            assert exc.value.kind == axiom


def test_slice_topology_trivial_is_trivial():
    for c in OS.objects:
        sl, _ = slice_cat(OS, c)
        assert slice_topology(trivial_topology(OS), c) == trivial_topology(sl)


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
        assert is_sheaf(delta1(OS), topo).ok


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
    pc = plus(delta1(OS), OSJ)
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimal_cover_algorithms_agree_with_exhaustive_oracle(data):
    name = data.draw(st.sampled_from(sorted(bases())))
    cat = bases()[name]
    gens = {}
    for c in cat.objects:
        into = sorted(cat.arrows_into(c))
        gens[c] = data.draw(st.lists(st.lists(st.sampled_from(into), max_size=3), max_size=2))
    topo, _ = topology_from_generators(cat, gens)
    assert dict(topo.covers) == saturate(cat, gens)
    zs = presheaf_corpus(cat, 6)
    Z = zs[data.draw(st.integers(0, len(zs) - 1))]
    pc = plus(Z, topo)
    for c in cat.objects:
        assert len(pc.presheaf.on_objects[c]) == plus_class_count(Z, topo.covers[c]), (name, c)
    # the sheaf conditions on M_c alone agree with every cover, also on a slice
    c = data.draw(st.sampled_from(cat.objects))
    sl, _ = slice_cat(cat, c)
    zs_sl = presheaf_corpus(sl, 6)
    for W, j in ((Z, topo), (zs_sl[data.draw(st.integers(0, len(zs_sl) - 1))],
                             slice_topology(topo, c))):
        assert (is_sheaf(W, j).ok, is_separated(W, j).ok) == sheaf_verdicts(W, j), (name, c)


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
    from tck.fincat import delta1, reindex_slice_presheaf

    for c in OS.objects:
        sl, _ = slice_cat(OS, c)
        slj = slice_topology(OSJ, c)
        assert is_sheaf(delta1(sl), slj).ok
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
            rep = validate_topology(j)
            expected = site_oracle.validate_topology(j)
            assert (rep.verdict, rep.counterexamples) == \
                (expected.verdict, expected.counterexamples), (name, chosen)
            outcomes.add(frozenset(ce[0] for ce in rep.counterexamples))
    # valid tables and tables failing on transitivity alone both occur
    assert frozenset() in outcomes
    assert frozenset({"transitivity"}) in outcomes


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
    expected = site_oracle.validate_topology(j)
    assert rep.verdict == expected.verdict
    assert rep.counterexamples == expected.counterexamples


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

    def refuse(*args, **kwargs):
        raise AssertionError("all_sieves called on a valid topology")

    monkeypatch.setattr(site, "all_sieves", refuse)
    for j in tops:
        assert validate_topology(j).verdict == "pass"
    # a failing table still lists its transitivity counterexamples exhaustively
    with pytest.raises(AssertionError):
        validate_topology(broken_transitivity())
    # stability is decided on the M_c: one pullback per arrow
    j = powerset_site(4)
    calls = []
    pullback = site.pullback_sieve
    monkeypatch.setattr(site, "pullback_sieve", lambda *a: calls.append(a) or pullback(*a))
    assert validate_topology(j).verdict == "pass"
    assert len(calls) <= len(j.base.arrows) == 81


def test_k5_powerset_topology_validates_under_default_bound():
    j = powerset_site(5)
    assert sum(len(v) for v in j.covers.values()) == 7581
    assert validate_topology(j, DEFAULT_BOUND).verdict == "pass"


def test_validate_topology_output_does_not_depend_on_hash_seed():
    # two covers at b fail stability; their order used to follow set iteration
    code = (
        "from tck.corpus import parallel_pair\n"
        "from tck.site import GrothTopology, Sieve, maximal_sieve, validate_topology\n"
        "PP = parallel_pair()\n"
        "b = [maximal_sieve(PP, 'b'), Sieve('b', frozenset('u')), Sieve('b', frozenset('v'))]\n"
        "j = GrothTopology(PP, {'a': frozenset({maximal_sieve(PP, 'a')}), 'b': frozenset(b)})\n"
        "print(validate_topology(j).counterexamples)\n"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": str(seed)},
                       check=True).stdout
        for seed in range(6)
    }
    assert outs == {
        "[('stability', 'b', ('u',), 'v'), ('stability', 'b', ('v',), 'u'), "
        "('transitivity', 'b', ('u', 'v'), ('u',))]\n"
    }
