import itertools
import os
from collections.abc import Mapping

import pytest
from hypothesis import assume, given, settings, strategies as st

import stack_oracle
from category_strategies import generated_categories, idempotent_monoid
from fixture_corpus import (
    bases,
    catpresheaf_corpus,
    constant_cat_presheaf,
    induced_sheaf_descent_datum,
    nonseparated_presheaf,
    open_site,
    open_site_topology,
    square,
    terminal_presheaf,
    trivial_topology,
    walking_arrow,
)
from map_oracle import enumerate_presheaf_maps, enumerate_two_nats, presheaf_iso
from tck import prestack, stacks
from tck.classifier import char, classify
from tck.corpus import poset_category, presheaf_corpus
from tck.errors import FactorizationFailed, InvalidTable
from tck.fincat import (
    DEFAULT_BOUND,
    PresheafMap,
    SetPresheaf,
    constant_presheaf,
    identity_presheaf_map,
    reindex_slice_presheaf,
    reindex_slice_presheaf_map,
    slice_arrow_name,
    slice_cat,
)
from tck.prestack import (
    certify_dopf_pre,
    discrete_presheaf,
    fib_iso,
    identity_two_nat,
    representable,
    TwoNat,
)
from tck.site import (
    GrothTopology,
    Sieve,
    is_sheaf,
    sieve_generate,
    sieve_plan,
    slice_topology,
    topology_from_generators,
)
from tck.stacks import (
    DescentDatum,
    MapToOmegaJ,
    SheafDescentDatum,
    _check_cat_stack,
    _check_discrete_stack,
    build_gluing_presheaf,
    char_stacks,
    check_stack,
    construct_effectiveness,
    effectiveness,
    ell_factors,
    glue_sheaf_morphisms,
    omega_J_probe,
    validate_descent,
    validate_sheaf_descent,
    verify_effectiveness,
)

OS = open_site()
OSJ = open_site_topology()
WA = walking_arrow()
JOINT = sieve_generate(OS, ["L_T", "R_T"])


def sheaf_corpus(n):
    return [Z for Z in presheaf_corpus(OS, n + 8) if is_sheaf(Z, OSJ).ok][:n]


def sheaf_maps_corpus(n):
    """Presheaf morphisms between sheaves on the open site, as discrete stacks."""
    out = []
    one = constant_presheaf(OS, "*")
    for Z in sheaf_corpus(n):
        out.append((Z, Z, identity_presheaf_map(Z)))
        out.append((Z, one, PresheafMap(Z, one, {
            c: {x: "*" for x in Z.on_objects[c]} for c in OS.objects
        })))
    return out[:n]


def induced_descent_datum(F, s, m):
    """The datum induced by a global object: M_f = F(f)(M) with identity isos."""
    base = F.base
    objects = {f: F.on_arrows[f].on_objects[m] for f in s.sorted_arrows()}
    isos = {
        (f, g): F.on_objects[base.dom(g)].id_of(F.on_arrows[g].on_objects[objects[f]])
        for f in objects
        for g in base.arrows_into(base.dom(f))
    }
    return DescentDatum(F, s, objects, isos)


def test_validate_descent_induced_by_global_object():
    F = discrete_presheaf(OS, sheaf_corpus(4)[3])
    for m in F.on_objects["T"].objects:
        d = induced_descent_datum(F, JOINT, m)
        assert validate_descent(d).ok


def test_validate_descent_empty_sieve_vacuous():
    F = discrete_presheaf(OS, sheaf_corpus(1)[0])
    d = DescentDatum(F, Sieve("O", frozenset()), {}, {})
    assert validate_descent(d).ok
    wits = effectiveness(d)
    assert len(wits) == len(F.on_objects["O"].objects)


def test_validate_descent_over_an_unknown_arrow_raises_invalid_table():
    F = discrete_presheaf(OS, sheaf_corpus(1)[0])
    d = DescentDatum(F, Sieve("T", frozenset({"nope"})), {"nope": "x"}, {})
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        validate_descent(d)


def test_validate_descent_broken_iso_is_rejected():
    # a non-discrete presheaf where a wrong iso choice breaks the cocycle
    from fixture_corpus import constant_cat_presheaf
    from tck.fincat import discrete_category

    K = discrete_category(["x", "y"])
    F = constant_cat_presheaf(OS, K)
    objects = {f: "x" for f in JOINT.arrows}
    isos = {}
    for f in JOINT.arrows:
        for g in OS.arrows_into(OS.dom(f)):
            isos[(f, g)] = "id_x"
    good = DescentDatum(F, JOINT, objects, isos)
    assert validate_descent(good).ok
    # break typing: point one iso at the wrong object
    bad_isos = dict(isos)
    bad_isos[("L_T", "O_L")] = "id_y"
    bad = DescentDatum(F, JOINT, objects, bad_isos)
    assert not validate_descent(bad).ok


def test_effectiveness_finds_global_object():
    F = discrete_presheaf(OS, sheaf_corpus(4)[3])
    for m in F.on_objects["T"].objects:
        d = induced_descent_datum(F, JOINT, m)
        wits = effectiveness(d)
        assert any(w.obj == m for w in wits)


def test_effectiveness_empty_for_non_stack():
    # the nonseparated fixture has two local-sections patterns that do not glue
    Z = nonseparated_presheaf()
    F = discrete_presheaf(OS, Z)
    # descent datum: local objects over L and R both "*", but there is no
    # canonical choice problem; instead drop to a presheaf with NO global
    # object: empty at T, singleton on L
    on_objects = {"O": ("*",), "L": ("s",), "R": ("*",), "T": ()}
    on_arrows = {}
    for f, (d0, c0) in OS.arrows.items():
        src = on_objects[c0]
        if d0 == "L":
            on_arrows[f] = {x: "s" for x in src}
        elif d0 == "T":
            on_arrows[f] = {x: x for x in src}
        else:
            on_arrows[f] = {x: "*" for x in src}
    W = SetPresheaf(OS, on_objects, on_arrows)
    W.validate()
    Fw = discrete_presheaf(OS, W)
    objects = {"L_T": "s", "R_T": "*", "O_T": "*"}
    isos = {}
    for f in JOINT.arrows:
        Fd = Fw.on_objects[OS.dom(f)]
        for g in OS.arrows_into(OS.dom(f)):
            isos[(f, g)] = Fd if False else Fw.on_objects[OS.dom(g)].id_of(
                Fw.on_arrows[g].on_objects[objects[f]]
            )
    d = DescentDatum(Fw, JOINT, objects, isos)
    assert validate_descent(d).ok
    assert effectiveness(d) == []


def test_effectiveness_matches_amalgamations_for_discrete_presheaves():
    for Z in presheaf_corpus(OS, 8):
        F = discrete_presheaf(OS, Z)
        for datum in stack_oracle.enumerate_descent_data(F, JOINT)[:20]:
            fam = {f: datum.objects[f] for f in JOINT.arrows}
            from tck.site import MatchingFamily, amalgamations

            # the identity-iso data of a discrete presheaf are exactly the
            # matching families
            mf = MatchingFamily(Z, JOINT, fam)
            try:
                mf.validate()
                ams = amalgamations(Z, JOINT, mf)
            except InvalidTable:
                ams = None
            wits = effectiveness(datum)
            if ams is None:
                assert wits == []
            else:
                assert sorted(w.obj for w in wits) == sorted(ams)


def test_check_stack_trivial_topology():
    from fixture_corpus import catpresheaf_corpus

    for F in catpresheaf_corpus(WA, 4):
        assert check_stack(F, trivial_topology(WA)).ok


def test_check_stack_representables_on_open_site():
    for c in OS.objects:
        assert check_stack(representable(OS, c), OSJ).ok


def test_check_stack_sheaves_are_stacks_nonsheaves_are_not():
    for Z in presheaf_corpus(OS, 10) + [nonseparated_presheaf()]:
        F = discrete_presheaf(OS, Z)
        assert check_stack(F, OSJ).ok == is_sheaf(Z, OSJ).ok


def collapsing_pair():
    """F(T) is the parallel pair a => b, whose two arrows collapse to the
    one arrow x -> y of F(L) = F(R) = F(O): condition iii fails at T."""
    from fixture_corpus import parallel_pair
    from tck.fincat import FinFunctor, free_category, identity_functor

    PP = parallel_pair()
    K = free_category(["x", "y"], {"m": ("x", "y")})
    collapse = FinFunctor(PP, K, {"a": "x", "b": "y"},
                          {"id_a": "id_x", "id_b": "id_y", "u": "m", "v": "m"})
    collapse.validate()
    cats = {"T": PP, "L": K, "R": K, "O": K}
    on_arrows = {}
    for f, (d0, c0) in OS.arrows.items():
        if c0 == "T" and d0 != "T":
            on_arrows[f] = collapse
        else:
            on_arrows[f] = identity_functor(cats[c0])
    F = prestack.CatPresheaf(OS, cats, on_arrows)
    F.validate()
    return F


def arrow_without_gluing():
    """F(T) is the discrete category on {x, y}, F(L) = F(R) the walking
    arrow x -> y, F(O) the point: the arrows m of F(L) and F(R) agree on O
    and glue to no arrow x -> y of F(T), so condition ii fails at T."""
    from tck.fincat import FinFunctor, discrete_category, free_category, identity_functor
    from tck.fincat import point_category

    D = discrete_category(["x", "y"])
    A = free_category(["x", "y"], {"m": ("x", "y")})
    P = point_category()
    inclusion = FinFunctor(D, A, {"x": "x", "y": "y"}, {"id_x": "id_x", "id_y": "id_y"})
    to_point = {c: FinFunctor(K, P, {o: "*" for o in K.objects}, {a: "id_*" for a in K.arrows})
                for c, K in (("T", D), ("L", A), ("R", A))}
    cats = {"T": D, "L": A, "R": A, "O": P}
    on_arrows = {}
    for f, (d0, c0) in OS.arrows.items():
        if d0 == c0:
            on_arrows[f] = identity_functor(cats[c0])
        elif d0 == "O":
            on_arrows[f] = to_point[c0]
        else:
            on_arrows[f] = inclusion
    F = prestack.CatPresheaf(OS, cats, on_arrows)
    F.validate()
    return F


def test_check_stack_reports_condition_iii_failure():
    rep = check_stack(collapsing_pair(), OSJ)
    assert rep.verdict == "fail"
    # the empty family over M_O = {} has no gluing in the empty Hom(y, x)
    assert rep.counterexamples == [
        ("ii", "O", (), "y", "x", ()),
        ("iii", "T", ("L_T", "O_T", "R_T"), "a", "b", "u", "v"),
    ]


def test_check_stack_reports_condition_ii_failure():
    rep = check_stack(arrow_without_gluing(), OSJ)
    assert rep.verdict == "fail"
    cover = ("L_T", "O_T", "R_T")
    assert rep.counterexamples == [
        ("ii", "T", cover, "x", "y", (("L_T", "m"), ("O_T", "id_*"), ("R_T", "m"))),
        ("i", "T", cover, (("L_T", "x"), ("O_T", "*"), ("R_T", "y"))),
        ("i", "T", cover, (("L_T", "y"), ("O_T", "*"), ("R_T", "x"))),
    ]
    assert rep.bounds == {}


def test_check_stack_agrees_with_the_oracle_on_pinned_failures():
    for F in (collapsing_pair(), arrow_without_gluing()):
        rep, expected = check_stack(F, OSJ), stack_oracle.check_stack(F, OSJ)
        assert rep.verdict == expected.verdict == "fail"
        assert {ce[0] for ce in rep.counterexamples} == {ce[0] for ce in expected.counterexamples}
        assert rep.counterexamples == on_least_covers(expected, OSJ)


def test_check_stack_validates_its_presheaf():
    # F(id_T) swaps the two objects of the discrete category on {x, y}
    from tck.fincat import FinFunctor, discrete_category, identity_functor

    D = discrete_category(["x", "y"])
    swap = FinFunctor(D, D, {"x": "y", "y": "x"}, {"id_x": "id_y", "id_y": "id_x"})
    F = prestack.CatPresheaf(OS, {c: D for c in OS.objects}, {
        f: swap if f == "T_T" else identity_functor(D) for f in OS.arrows})
    with pytest.raises(InvalidTable, match="does not act as the identity functor"):
        check_stack(F, OSJ)
    with pytest.raises(InvalidTable, match="different bases"):
        check_stack(catpresheaf_corpus(WA, 1)[0], OSJ)


def test_discrete_presheaf_is_valid_and_on_its_base():
    Z = sheaf_corpus(1)[0]
    assert "_valid" in discrete_presheaf(OS, Z).__dict__
    with pytest.raises(InvalidTable, match="different base"):
        discrete_presheaf(WA, Z)


def test_second_check_stack_composes_no_base_arrow(monkeypatch):
    # the sieve plans, cocycle index included, are compiled once per
    # topology; a second run reads them and composes only inside F's values
    from test_site import powerset_site
    from tck.fincat import FinCat

    j = powerset_site(3)
    F = discrete_presheaf(j.base, constant_presheaf(j.base, ["a", "b"]))
    first = check_stack(F, j)
    compose, calls = FinCat.compose, []

    def counting(self, g, f):
        if self is j.base:
            calls.append((g, f))
        return compose(self, g, f)

    monkeypatch.setattr(FinCat, "compose", counting)
    second = check_stack(F, j)
    assert (second.verdict, second.counterexamples) == (first.verdict, first.counterexamples)
    assert calls == []


def test_ell_factors_on_char_of_identity():
    F = discrete_presheaf(OS, sheaf_corpus(1)[0])
    phi = certify_dopf_pre(identity_two_nat(F))
    res = ell_factors(char(phi), OSJ)
    assert res.ok


def test_ell_factors_on_sheaf_valued_maps():
    for V, W, m in sheaf_maps_corpus(8):
        Fv, Fw = discrete_presheaf(OS, V), discrete_presheaf(OS, W)
        comps = {}
        for c in OS.objects:
            from tck.fincat import FinFunctor

            comps[c] = FinFunctor(
                Fv.on_objects[c], Fw.on_objects[c],
                dict(m.components[c]),
                {f"id_{x}": f"id_{m.components[c][x]}" for x in V.on_objects[c]},
            )
        s = TwoNat(Fv, Fw, comps)
        s.validate()
        phi = certify_dopf_pre(s)
        res = ell_factors(char(phi), OSJ)
        assert res.ok, res.witness


def test_ell_factors_reports_failing_value():
    V = nonseparated_presheaf()
    Fv = discrete_presheaf(OS, V)
    T = terminal_presheaf(OS)
    s = enumerate_two_nats(Fv, T)[0]
    phi = certify_dopf_pre(s)
    res = ell_factors(char(phi), OSJ)
    assert not res.ok
    c, x, f, sieve_arrows, n = res.witness
    assert (c, x) == ("T", "*")


def test_char_stacks_identity_and_roundtrip():
    F = discrete_presheaf(OS, sheaf_corpus(2)[1])
    phi = certify_dopf_pre(identity_two_nat(F))
    zj = char_stacks(phi, OSJ)
    assert isinstance(zj, MapToOmegaJ)
    back = classify(zj.underlying)
    assert fib_iso(back, phi) is not None


def test_char_stacks_rejects_non_stack_endpoint():
    V = nonseparated_presheaf()
    Fv = discrete_presheaf(OS, V)
    phi = certify_dopf_pre(identity_two_nat(Fv))
    with pytest.raises(FactorizationFailed):
        char_stacks(phi, OSJ)


def test_char_stacks_point_site_reduces_to_cat():
    from fixture_corpus import chain3, constant_cat_presheaf, dopf_corpus
    from tck.fincat import point_category

    PT = point_category()
    F = constant_cat_presheaf(PT, chain3())
    for phi in dopf_corpus(F, 3):
        zj = char_stacks(phi, trivial_topology(PT))
        assert fib_iso(classify(zj.underlying), phi) is not None


def local_pair_datum(n1: int, n2: int) -> SheafDescentDatum:
    """Local sheaf data over the joint cover: n1 sections over L, n2 over R."""
    pieces = {}
    for f, n in (("L_T", n1), ("R_T", n2), ("O_T", 1)):
        d = OS.dom(f)
        sl, _ = slice_cat(OS, d)
        labels = tuple(f"s{i}" for i in range(n))
        on_objects = {}
        for g in sl.objects:
            on_objects[g] = labels if OS.dom(g) == d else ("*",)
        on_arrows = {}
        for g in sl.objects:
            for h in OS.arrows_into(OS.dom(g)):
                name = slice_arrow_name(h, g)
                src = on_objects[g]
                tgt = on_objects[sl.dom(name)]
                if tgt == labels and src == labels:
                    on_arrows[name] = {x: x for x in src}
                else:
                    on_arrows[name] = {x: tgt[0] for x in src} if tgt else {}
    # build each piece separately to avoid cross-contamination
    def build(dobj: str, n: int) -> SetPresheaf:
        sl, _ = slice_cat(OS, dobj)
        labels = tuple(sorted(f"s{i}" for i in range(n)))
        on_objects = {g: (labels if OS.dom(g) == dobj else ("*",)) for g in sl.objects}
        on_arrows = {}
        for g in sl.objects:
            for h in OS.arrows_into(OS.dom(g)):
                name = slice_arrow_name(h, g)
                src = on_objects[g]
                tgt = on_objects[sl.cod(name)]
                # contravariant: value at cod restricts to value at dom
                source_vals = on_objects[sl.cod(name)]
                target_vals = on_objects[sl.dom(name)]
                if source_vals == target_vals:
                    on_arrows[name] = {x: x for x in source_vals}
                else:
                    on_arrows[name] = {x: target_vals[0] for x in source_vals}
        Z = SetPresheaf(sl, on_objects, on_arrows)
        Z.validate()
        return Z

    objects = {"L_T": build("L", n1), "R_T": build("R", n2), "O_T": build("O", 1)}
    isos = {}
    for f in JOINT.arrows:
        for g in OS.arrows_into(OS.dom(f)):
            fg = OS.compose(f, g)
            src = reindex_slice_presheaf(OS, g, objects[f])
            tgt = objects[fg]
            comps = {}
            for obj in src.base.objects:
                vals_src = src.on_objects[obj]
                vals_tgt = tgt.on_objects[obj]
                assert len(vals_src) <= len(vals_tgt) or len(vals_tgt) == 1
                if vals_src == vals_tgt:
                    comps[obj] = {x: x for x in vals_src}
                else:
                    comps[obj] = {x: vals_tgt[0] for x in vals_src}
            m = PresheafMap(src, tgt, comps)
            m.validate()
            isos[(f, g)] = m
    datum = SheafDescentDatum(OS, OSJ, JOINT, objects, isos)
    return datum


def test_local_pair_datum_is_valid():
    for n1, n2 in [(1, 1), (2, 1), (2, 3)]:
        d = local_pair_datum(n1, n2)
        assert validate_sheaf_descent(d).ok


def test_gluing_presheaf_tables():
    d = local_pair_datum(2, 3)
    Z = build_gluing_presheaf(d)
    assert len(Z.on_objects["L_T"]) == 2
    assert len(Z.on_objects["R_T"]) == 3
    assert len(Z.on_objects["O_T"]) == 1
    assert len(Z.on_objects["T_T"]) == 0


def test_double_plus_glues_disjoint_cover_to_product():
    # sections over the whole space = pairs of local sections
    for n1, n2 in [(1, 1), (2, 1), (2, 3)]:
        d = local_pair_datum(n1, n2)
        M, psis = construct_effectiveness(d)
        assert len(M.on_objects["T_T"]) == n1 * n2
        assert len(M.on_objects["L_T"]) == n1
        assert len(M.on_objects["R_T"]) == n2
        assert verify_effectiveness(d, M, psis).ok


def test_probe_on_induced_datum_returns_global_sheaf_up_to_iso():
    sl, _ = slice_cat(OS, "T")
    slj = slice_topology(OSJ, "T")
    count = 0
    for Z in presheaf_corpus(sl, 12):
        if not is_sheaf(Z, slj).ok:
            continue
        d = induced_sheaf_descent_datum(OS, OSJ, JOINT, Z)
        assert validate_sheaf_descent(d).ok
        M, psis = construct_effectiveness(d)
        assert verify_effectiveness(d, M, psis).ok
        assert presheaf_iso(M, Z) is not None
        count += 1
    assert count >= 3


def test_omega_J_probe_full_report():
    data = [
        local_pair_datum(1, 1),
        local_pair_datum(2, 1),
        local_pair_datum(1, 2),
        local_pair_datum(2, 2),
    ]
    rep = omega_J_probe(data)
    assert rep.ok, rep.counterexamples


def test_omega_J_probe_reports_bounded_when_the_endomorphism_search_trips():
    # the probe searches for the first 4 endomorphisms of the glued sheaf:
    # for local_pair_datum(3, 3) that search trips at bound 100, and the
    # probe must not pass silently
    rep = omega_J_probe([local_pair_datum(3, 3)], bound=100)
    assert rep.verdict == "bounded-pass"
    assert rep.bounds == {"morphism-gluing at datum 0": 100}
    rep = omega_J_probe([local_pair_datum(3, 3)])
    assert rep.verdict == "pass" and not rep.bounds


def test_omega_J_probe_searches_only_the_endomorphisms_it_checks():
    # the glued sheaf of local_pair_datum(3, 3) has 729 endomorphisms, whose
    # full search visits some 60k nodes; the probe checks 4 of them, and
    # finding those 4 fits well within bound 1000
    rep = omega_J_probe([local_pair_datum(3, 3)], bound=1000)
    assert rep.verdict == "pass" and not rep.bounds


def test_omega_J_probe_vacuous_on_empty_sieve():
    sl, _ = slice_cat(OS, "O")
    d = SheafDescentDatum(OS, OSJ, Sieve("O", frozenset()), {}, {})
    rep = omega_J_probe([d])
    assert rep.ok
    assert ("vacuous", 0) in rep.witnesses


def test_glue_sheaf_morphisms_recovers_global_map():
    d = local_pair_datum(2, 2)
    M, _ = construct_effectiveness(d)

    for lam0 in enumerate_presheaf_maps(M, M)[:5]:
        alpha = {f: reindex_slice_presheaf_map(OS, f, lam0) for f in JOINT.arrows}
        lam = glue_sheaf_morphisms(OS, JOINT, M, M, alpha)
        assert lam == lam0


def test_glue_sheaf_morphisms_names_what_does_not_glue():
    # on the point site a family is one value; N need not be valid
    from tck.fincat import point_category
    from tck.site import maximal_sieve

    P = point_category()
    sl, _ = slice_cat(P, "*")
    (a,) = sl.arrows
    M = SetPresheaf(sl, {"id_*": ("x",)}, {a: {"x": "x"}})
    good = SetPresheaf(sl, {"id_*": ("u", "v")}, {a: {"u": "u", "v": "v"}})
    collapse = SetPresheaf(sl, {"id_*": ("u", "v")}, {a: {"u": "u", "v": "u"}})

    def glue(N, value):
        alpha = {"id_*": PresheafMap(reindex_slice_presheaf(P, "id_*", M),
                                     reindex_slice_presheaf(P, "id_*", N),
                                     {"id_*": {"x": value}})}
        with pytest.raises(InvalidTable) as exc:
            glue_sheaf_morphisms(P, maximal_sieve(P, "*"), M, N, alpha)
        return str(exc.value)

    assert glue(good, "w") == "value at 'id_*>id_*' outside the presheaf"
    assert glue(collapse, "v") == \
        "compatibility fails on ('id_*>id_*', 'id_*>id_*')"
    assert glue(collapse, "u") == "gluing at 'id_*' is not unique: 2 candidates"


def walking_iso():
    from tck.fincat import build_category

    arrows = {"id_x": ("x", "x"), "id_y": ("y", "y"), "i": ("x", "y"), "j": ("y", "x")}
    compose = {
        ("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
        ("i", "id_x"): "i", ("id_y", "i"): "i",
        ("j", "id_y"): "j", ("id_x", "j"): "j",
        ("j", "i"): "id_x", ("i", "j"): "id_y",
    }
    return build_category(["x", "y"], arrows, {"x": "id_x", "y": "id_y"}, compose)


def test_check_stack_constant_walking_iso_is_a_stack():
    # non-identity descent isos: every datum glues because all objects are
    # isomorphic and hom-sets are singletons
    from fixture_corpus import constant_cat_presheaf

    F = constant_cat_presheaf(OS, walking_iso())
    rep = check_stack(F, OSJ)
    assert rep.ok, rep.counterexamples
    # and the enumeration really does produce data with non-identity isos
    data = stack_oracle.enumerate_descent_data(F, JOINT)
    assert any(
        any(not F.on_objects[OS.dom(g)].is_identity(phi) for (f, g), phi in d.isos.items())
        for d in data
    )
    for d in data:
        assert effectiveness(d), d.objects


def idempotent():
    """The monoid {1, e} with e.e = e: Hom(x, x) holds an iso and an arrow
    that is not one."""
    from tck.fincat import build_category

    return build_category(["x"], {"id_x": ("x", "x"), "e": ("x", "x")}, {"x": "id_x"}, {
        ("id_x", "id_x"): "id_x", ("e", "id_x"): "e", ("id_x", "e"): "e", ("e", "e"): "e"})


def flip():
    """The group of order 2 as a one-object category: every arrow is an iso,
    and two of them share each hom-set, so the cocycle condition bites."""
    from tck.fincat import build_category

    return build_category(["x"], {"id_x": ("x", "x"), "t": ("x", "x")}, {"x": "id_x"}, {
        ("id_x", "id_x"): "id_x", ("t", "id_x"): "t", ("id_x", "t"): "t", ("t", "t"): "id_x"})


def descent_tables(data):
    return sorted((sorted(d.objects.items()), sorted(d.isos.items())) for d in data)


def test_descent_data_agree_with_product_filter_oracle():
    # the oracle filters every arrow family with validate_descent; the
    # enumeration builds typed, invertible candidates and checks the cocycle
    SQ, sq_topo = square_site()
    values = [walking_iso(), walking_arrow(), idempotent(), flip()]
    cases = [(OSJ, F) for F in catpresheaf_corpus(OS, 4)]
    cases += [(j, constant_cat_presheaf(j.base, K)) for j in (OSJ, sq_topo) for K in values]
    with_isos = 0
    for j, F in cases:
        for c in j.base.objects:
            for s in sorted(j.covers[c], key=lambda s: s.sorted_arrows()):
                data = stacks._descent_data(F, s, sieve_plan(F.base, s), DEFAULT_BOUND)
                assert descent_tables(data) == \
                    descent_tables(stack_oracle.enumerate_descent_data(F, s)), (c, s)
                with_isos += any(not F.on_objects[j.base.dom(g)].is_identity(phi)
                                 for d in data for (_, g), phi in d.isos.items())
    assert with_isos > 0


def test_check_stack_reports_condition_i_failure():
    # discrete presheaf with local sections that do not glue: empty at T
    on_objects = {"O": ("*",), "L": ("s",), "R": ("t",), "T": ()}
    on_arrows = {}
    for f, (d0, c0) in OS.arrows.items():
        src = on_objects[c0]
        tgt = on_objects[d0]
        on_arrows[f] = {x: tgt[0] for x in src} if tgt else {}
    W = SetPresheaf(OS, on_objects, on_arrows)
    W.validate()
    F = discrete_presheaf(OS, W)
    rep = check_stack(F, OSJ)
    assert not rep.ok
    assert any(ce[0] == "i" for ce in rep.counterexamples)


def test_effectiveness_witnesses_unique_up_to_iso():
    # on a stack, any two witnesses for the same datum have isomorphic
    # global objects
    from fixture_corpus import constant_cat_presheaf

    F = constant_cat_presheaf(OS, walking_iso())
    for d in stack_oracle.enumerate_descent_data(F, JOINT)[:40]:
        wits = effectiveness(d)
        assert wits
        Fc = F.on_objects["T"]
        for w1 in wits:
            for w2 in wits:
                assert any(
                    Fc.is_invertible(a) for a in Fc.hom(w1.obj, w2.obj)
                ), (w1.obj, w2.obj)


# -- gluing over a cover with non-empty overlap -----------------------------------


def square_site():
    from fixture_corpus import square
    from tck.site import topology_from_generators

    SQ = square()
    topo, _ = topology_from_generators(SQ, {"s": [["q_s", "r_s"]]})
    return SQ, topo


def overlap_datum(twist: bool, r_to_overlap=None):
    """Descent datum on the square site: two local sheaves meeting over p.

    M over q has sections m0, m1 restricting to x0, x1; M over r has
    sections n0, n1; the datum iso on the overlap optionally swaps x0/x1.
    """
    SQ, topo = square_site()
    S = sieve_generate(SQ, ["q_s", "r_s"])
    assert S.arrows == frozenset({"q_s", "r_s", "p_s"})

    def local_sheaf(dobj: str, own: tuple, bottom: tuple, down: dict) -> SetPresheaf:
        sl, _ = slice_cat(SQ, dobj)
        on_objects = {}
        for g in sl.objects:
            on_objects[g] = own if SQ.dom(g) == dobj else bottom
        on_arrows = {}
        for g in sl.objects:
            for h in SQ.arrows_into(SQ.dom(g)):
                name = slice_arrow_name(h, g)
                src = on_objects[g]
                tgt = on_objects[sl.dom(name)]
                if src == tgt:
                    on_arrows[name] = {x: x for x in src}
                else:
                    on_arrows[name] = {x: down[x] for x in src}
        Z = SetPresheaf(sl, on_objects, on_arrows)
        Z.validate()
        return Z

    overlap = ("x0", "x1")
    r_down = r_to_overlap or {"n0": "x0", "n1": "x1"}
    mq = local_sheaf("q", ("m0", "m1"), overlap, {"m0": "x0", "m1": "x1"})
    mr = local_sheaf("r", tuple(sorted(r_down)), overlap, r_down)
    sl_p, _ = slice_cat(SQ, "p")
    mp = SetPresheaf(sl_p, {"p_p": overlap}, {slice_arrow_name("p_p", "p_p"): {
        "x0": "x0", "x1": "x1"}})
    mp.validate()
    objects = {"q_s": mq, "r_s": mr, "p_s": mp}

    tw = {"x0": "x1", "x1": "x0"} if twist else {"x0": "x0", "x1": "x1"}
    isos = {}
    for f in S.arrows:
        for g in SQ.arrows_into(SQ.dom(f)):
            src = reindex_slice_presheaf(SQ, g, objects[f])
            tgt = objects[SQ.compose(f, g)]
            if f == "q_s" and g == "p_q":
                comps = {"p_p": dict(tw)}
            else:
                comps = {o: {x: x for x in src.on_objects[o]} for o in src.base.objects}
            m = PresheafMap(src, tgt, comps)
            m.validate()
            isos[(f, g)] = m
    return SheafDescentDatum(SQ, topo, S, objects, isos)


def test_square_site_is_valid_and_subcanonical():
    from tck.site import subcanonical_check, validate_topology

    _, topo = square_site()
    assert validate_topology(topo).ok
    assert subcanonical_check(topo).ok


def test_overlap_datum_valid_with_and_without_twist():
    for twist in (False, True):
        d = overlap_datum(twist)
        assert validate_sheaf_descent(d).ok


def test_double_plus_glues_overlapping_cover_to_pullback():
    # expected global sections: pairs (m, n) matching over the overlap,
    # computed by an independent oracle from the raw tables
    cases = [
        (False, None),
        (True, None),
        (False, {"n0": "x0", "n1": "x0"}),
        (True, {"n0": "x0", "n1": "x0"}),
    ]
    for twist, r_down in cases:
        d = overlap_datum(twist, r_down)
        M, psis = construct_effectiveness(d)
        assert verify_effectiveness(d, M, psis).ok, (twist, r_down)
        tw = {"x0": "x1", "x1": "x0"} if twist else {"x0": "x0", "x1": "x1"}
        q_down = {"m0": "x0", "m1": "x1"}
        rd = r_down or {"n0": "x0", "n1": "x1"}
        expected = sum(
            1
            for m in q_down
            for n in rd
            if tw[q_down[m]] == rd[n]
        )
        assert len(M.on_objects["s_s"]) == expected, (twist, r_down)
        assert len(M.on_objects["q_s"]) == 2
        assert len(M.on_objects["p_s"]) == 2


def test_construct_effectiveness_agrees_with_double_plus_oracle():
    # the psis read off the sheafification unit are the double-plus psis
    sl, _ = slice_cat(OS, "T")
    induced = [induced_sheaf_descent_datum(OS, OSJ, JOINT, Z)
               for Z in presheaf_corpus(sl, 12)
               if is_sheaf(Z, slice_topology(OSJ, "T")).ok]
    assert len(induced) == 5
    data = (
        [local_pair_datum(n1, n2)
         for n1, n2 in [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 3)]]
        + [overlap_datum(twist, r_down)
           for twist in (False, True) for r_down in (None, {"n0": "x0", "n1": "x0"})]
        + induced
    )
    for d in data:
        M, psis = construct_effectiveness(d)
        assert (M, psis) == stack_oracle.double_plus_effectiveness(d)
        assert verify_effectiveness(d, M, psis).ok


def test_omega_J_probe_on_overlapping_cover():
    data = [overlap_datum(False), overlap_datum(True),
            overlap_datum(True, {"n0": "x0", "n1": "x0"})]
    rep = omega_J_probe(data)
    assert rep.ok, rep.counterexamples


def test_char_stacks_pipeline_on_square_site():
    # discrete stacks from glued sheaves on the square site: char factors
    # through sheaf values and classify recovers the opfibration
    SQ, topo = square_site()

    def glued_base_sheaf(a_down: dict, b_down: dict) -> SetPresheaf:
        overlap = ("x0", "x1")
        pairs = tuple(sorted(
            f"{m}&{n}" for m in a_down for n in b_down if a_down[m] == b_down[n]
        ))
        on_objects = {"p": overlap, "q": tuple(sorted(a_down)),
                      "r": tuple(sorted(b_down)), "s": pairs}
        on_arrows = {}
        for f, (d0, c0) in SQ.arrows.items():
            src = on_objects[c0]
            if d0 == c0:
                on_arrows[f] = {x: x for x in src}
            elif (d0, c0) == ("q", "s"):
                on_arrows[f] = {x: x.split("&")[0] for x in src}
            elif (d0, c0) == ("r", "s"):
                on_arrows[f] = {x: x.split("&")[1] for x in src}
            elif (d0, c0) == ("p", "q"):
                on_arrows[f] = {x: a_down[x] for x in src}
            elif (d0, c0) == ("p", "r"):
                on_arrows[f] = {x: b_down[x] for x in src}
            elif (d0, c0) == ("p", "s"):
                on_arrows[f] = {x: a_down[x.split("&")[0]] for x in src}
        Z = SetPresheaf(SQ, on_objects, on_arrows)
        Z.validate()
        return Z

    w1 = glued_base_sheaf({"m0": "x0", "m1": "x1"}, {"n0": "x0", "n1": "x1"})
    w2 = glued_base_sheaf({"m0": "x0", "m1": "x0"}, {"n0": "x0", "n1": "x1"})
    for W in (w1, w2):
        assert is_sheaf(W, topo).ok
        F = discrete_presheaf(SQ, W)
        phi = certify_dopf_pre(identity_two_nat(F))
        zj = char_stacks(phi, topo)
        assert fib_iso(classify(zj.underlying), phi) is not None
    # the terminal map out of a glued stack also factors and round-trips
    from tck.fincat import FinFunctor, constant_presheaf

    one = constant_presheaf(SQ, "*")
    Fw, Fone = discrete_presheaf(SQ, w1), discrete_presheaf(SQ, one)
    comps = {}
    for c in SQ.objects:
        comps[c] = FinFunctor(
            Fw.on_objects[c], Fone.on_objects[c],
            {x: "*" for x in w1.on_objects[c]},
            {f"id_{x}": "id_*" for x in w1.on_objects[c]},
        )
    s = TwoNat(Fw, Fone, comps)
    s.validate()
    phi = certify_dopf_pre(s)
    zj = char_stacks(phi, topo)
    assert fib_iso(classify(zj.underlying), phi) is not None


def test_check_stack_reports_bounded_pass_when_bound_trips():
    from fixture_corpus import constant_cat_presheaf
    from tck.report import BOUNDED_PASS

    F = constant_cat_presheaf(OS, walking_iso())
    rep = check_stack(F, OSJ, bound=3)
    assert rep.verdict == BOUNDED_PASS
    assert rep.bounds


def test_a_bounded_check_stack_is_not_ok():
    # a bound hit is no pass, so a library caller reading ok cannot take it
    # for "is a stack"
    rep = check_stack(constant_cat_presheaf(OS, walking_iso()), OSJ, bound=3)
    assert rep.verdict == "bounded-pass"
    assert not rep.ok


def test_a_bounded_omega_j_probe_is_not_ok():
    # the endomorphism search on the glued sheaf trips at bound 1
    from tck.docformat import parse_file

    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "OpenSite.site")
    datum = parse_file(path).sheaf_descent_data["DInduced"][0]
    rep = omega_J_probe([datum], bound=1)
    assert (rep.verdict, rep.bounds) == ("bounded-pass", {"morphism-gluing at datum 0": 1})
    assert not rep.ok


def test_scale_smoke_five_object_chain():
    # a slightly larger site than the shipped corpus: end-to-end classify,
    # char, roundtrip and sheaf checks stay fast
    from fixture_corpus import dopf_corpus, map_to_omega_corpus, trivial_topology
    from tck.classifier import char, classify, roundtrip_phi
    from tck.fincat import free_category
    from tck.prestack import representable
    from tck.site import is_sheaf, subcanonical_check

    chain5 = free_category(
        ["a", "b", "c", "d", "e"],
        {"u1": ("a", "b"), "u2": ("b", "c"), "u3": ("c", "d"), "u4": ("d", "e")},
    )
    assert subcanonical_check(trivial_topology(chain5)).ok
    F = representable(chain5, "e")
    for phi in dopf_corpus(F, 3):
        assert roundtrip_phi(phi) is not None
    for z in map_to_omega_corpus(F, 2):
        phi = classify(z)
        for (c, x), Z in z.object_part.items():
            assert len(phi.fibre(c, x)) == len(Z.on_objects[chain5.id_of(c)])


def test_char_stacks_refuses_endpoints_that_only_bounded_pass():
    # at bound 1 the object-gluing stratum over M_T trips its guard, so
    # neither endpoint is known to be a stack; M_R is maximal and settles
    # itself
    from fixture_corpus import open_site_sheaf_corpus
    from tck.errors import SizeBound

    F = discrete_presheaf(OS, open_site_sheaf_corpus(7)[6])
    phi = certify_dopf_pre(identity_two_nat(F))
    report = check_stack(F, OSJ, 1)
    assert report.verdict == "bounded-pass"
    with pytest.raises(SizeBound) as exc:
        char_stacks(phi, OSJ, bound=1)
    assert exc.value.what == next(iter(report.bounds))
    assert exc.value.what == "stack-i at T over ('L_T', 'O_T', 'R_T')"


# -- the stack conditions on the least covers -------------------------------------------


def on_least_covers(report, j):
    """The oracle's counterexamples on the least covers, in its order."""
    return [ce for ce in report.counterexamples if ce[2] == j.minimal[ce[1]].sorted_arrows()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_stack_on_least_covers_agrees_with_every_cover_oracle(data):
    cats = dict(bases(), square=square())
    name = data.draw(st.sampled_from(sorted(cats)))
    cat = cats[name]
    gens = {}
    for c in cat.objects:
        into = sorted(cat.arrows_into(c))
        gens[c] = data.draw(st.lists(st.lists(st.sampled_from(into), max_size=3), max_size=2))
    topo, _ = topology_from_generators(cat, gens)
    candidates = catpresheaf_corpus(cat, 4) + [constant_cat_presheaf(cat, walking_iso())]
    candidates += [representable(cat, c) for c in cat.objects]
    F = candidates[data.draw(st.integers(0, len(candidates) - 1))]
    expected = stack_oracle.check_stack(F, topo, 10**4)
    assume(expected.verdict != "bounded-pass")
    rep = check_stack(F, topo, 10**4)
    assert rep.verdict == expected.verdict, (name, gens)
    assert rep.counterexamples == on_least_covers(expected, topo)


class RefusingCovers(Mapping):
    def __getitem__(self, c):
        raise AssertionError(f"check_stack read a cover of {c!r}")

    def __iter__(self):
        raise AssertionError("check_stack iterated the covers")

    def __len__(self):
        raise AssertionError("check_stack counted the covers")


def test_check_stack_reads_no_cover_but_the_least_ones():
    from test_site import powerset_site

    SQ, sq_topo = square_site()
    p3 = powerset_site(3)
    cases = [(OSJ, F) for F in catpresheaf_corpus(OS, 4)]
    cases += [(OSJ, representable(OS, c)) for c in OS.objects]
    cases += [(OSJ, constant_cat_presheaf(OS, walking_iso())),
              (sq_topo, constant_cat_presheaf(SQ, walking_arrow())),
              (p3, constant_cat_presheaf(p3.base, walking_iso()))]
    for j, F in cases:
        guarded = GrothTopology(j.base, RefusingCovers())
        guarded.__dict__["minimal"] = j.minimal
        expected = stack_oracle.check_stack(F, j)
        rep = check_stack(F, guarded)
        assert rep.verdict == expected.verdict
        assert rep.counterexamples == on_least_covers(expected, j)


def two_valued_functions(cat):
    """U -> {0, 1}^U on a powerset site, restricting by forgetting points:
    a section is a string over the points with '-' off U."""
    def restrict(s, V):
        return "".join(ch if b == "1" else "-" for ch, b in zip(s, V[1:]))

    points = len(cat.objects[0]) - 1
    every = ["".join(v) for v in itertools.product("01", repeat=points)]
    on_objects = {U: tuple(sorted({restrict(s, U) for s in every})) for U in cat.objects}
    on_arrows = {f: {s: restrict(s, V) for s in on_objects[U]}
                 for f, (V, U) in cat.arrows.items()}
    Z = SetPresheaf(cat, on_objects, on_arrows)
    Z.validate()
    return Z


def test_check_stack_at_k4_agrees_with_is_sheaf_on_discrete_presheaves():
    # the k = 4 powerset site has 114 covers of its top object, the
    # maximal one with 16 arrows; M_c has 5.  On the maximal sieve the two
    # 32- and 81-section presheaves have 2^16 descent data and more
    import time

    from test_site import powerset_site

    j = powerset_site(4)
    small = [Z for Z in presheaf_corpus(j.base, 60)
             if sum(len(v) for v in Z.on_objects.values()) <= 20][:40]
    assert len(small) == 40
    zs = small + [constant_presheaf(j.base, ["k0", "k1"]), two_valued_functions(j.base)]
    start = time.monotonic()
    verdicts = [(check_stack(discrete_presheaf(j.base, Z), j).verdict, is_sheaf(Z, j).verdict)
                for Z in zs]
    assert all(stack == sheaf for stack, sheaf in verdicts)
    assert verdicts[-2:] == [("fail", "fail"), ("pass", "pass")]
    assert time.monotonic() - start <= 10.0


# -- discrete values: the object presheaf's kernels against the Cat-valued search ------


BOUNDS = (0, 1, 2, 5, 10**6)


def assert_paths_agree(F, j, label=None):
    """Both check_stack paths give one report, bounds in insertion order."""
    F.validate()
    for bound in BOUNDS:
        fast, full = (path(F, j, bound) for path in (_check_discrete_stack, _check_cat_stack))
        assert ((fast.verdict, fast.counterexamples, list(fast.bounds.items()), fast.witnesses)
                == (full.verdict, full.counterexamples, list(full.bounds.items()),
                    full.witnesses)), (label, bound)


def chain_with_a_lower_cover(n):
    """chain_n with its top covered by the arrow from the object below it."""
    objs = [f"c{i}" for i in range(n)]
    cat = poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])
    j, _ = topology_from_generators(cat, {objs[-1]: [[f"{objs[-2]}_{objs[-1]}"]]})
    return j


def test_discrete_stack_path_matches_the_cat_valued_search_on_the_corpora():
    from test_site import powerset_site

    sites = [powerset_site(k) for k in (1, 2, 3)] + [chain_with_a_lower_cover(n) for n in (3, 4, 5)]
    monoid = idempotent_monoid()
    sites.append(topology_from_generators(monoid, {"*": [["e"]]})[0])
    sites += [trivial_topology(j.base) for j in sites]
    outcomes = set()
    for j in sites:
        for Z in presheaf_corpus(j.base, 12 if j.base is monoid else 0):
            F = discrete_presheaf(j.base, Z)
            assert_paths_agree(F, j, (j.base.objects, Z.on_objects))
            outcomes.add(check_stack(F, j).verdict)
    assert outcomes == {"pass", "fail"}


def test_discrete_stack_path_meets_the_idempotent_check():
    # M = {e} on the monoid {1, e}: the triple (e, e, e) is no identity
    # triple, so a matching family is a fixed point of e, and (ii) fails
    # on the two sections that e identifies
    monoid = idempotent_monoid()
    j, _ = topology_from_generators(monoid, {"*": [["e"]]})
    assert j.plan.covers["*"].checks == ((0, "e", 0),)
    Z = SetPresheaf(monoid, {"*": ("a", "b", "c")},
                    {"id_*": {"a": "a", "b": "b", "c": "c"}, "e": {"a": "a", "b": "a", "c": "c"}})
    F = discrete_presheaf(monoid, Z)
    assert_paths_agree(F, j)
    rep = check_stack(F, j)
    assert rep.counterexamples == [("ii", "*", ("e",), "a", "b", (("e", "id_a"),)),
                                   ("ii", "*", ("e",), "b", "a", (("e", "id_a"),))]
    assert rep.verdict == is_sheaf(Z, j).verdict == "fail"


@settings(max_examples=60, deadline=None)
@given(generated_categories(), st.data())
def test_discrete_stack_path_matches_the_cat_valued_search_on_generated_sites(cat, data):
    gens = {
        c: data.draw(st.lists(st.lists(st.sampled_from(sorted(cat.arrows_into(c))),
                                       max_size=3), max_size=2))
        for c in cat.objects
    }
    j, _ = topology_from_generators(cat, gens)
    Z = data.draw(st.sampled_from(presheaf_corpus(cat, 8)))
    assert_paths_agree(discrete_presheaf(cat, Z), j, (gens, Z.on_objects))


# -- maximal least covers settle themselves: the Cat-valued search skips them ------------


def chain_step_topology(n):
    """chain_n with each c(i) covered by the arrow from c(i-1): the least
    covers shrink to {c0 -> c(i)}, and only c0's is maximal."""
    cat = chain_with_a_lower_cover(n).base
    j, _ = topology_from_generators(cat, {f"c{i}": [[f"c{i - 1}_c{i}"]] for i in range(1, n)})
    return j


def test_check_stack_skips_maximal_covers_and_agrees_with_the_every_cover_oracle():
    # every condition holds at a maximal least cover, so skipping it leaves
    # the report the oracle gives on the least covers; the pinned failures
    # of the open site fail at T only, and hold on its maximal covers
    cases = [(j, F) for j in (OSJ, trivial_topology(OS))
             for F in (collapsing_pair(), arrow_without_gluing())]
    for n in range(3, 7):
        lower = chain_with_a_lower_cover(n)
        cat = lower.base
        for j in (trivial_topology(cat), lower, chain_step_topology(n)):
            cases += [(j, F) for F in catpresheaf_corpus(cat, 4)]
            cases.append((j, constant_cat_presheaf(cat, walking_iso())))
    verdicts, mixed = set(), 0
    for j, F in cases:
        rep, expected = check_stack(F, j), stack_oracle.check_stack(F, j)
        assert rep.verdict == expected.verdict, (j.minimal, F.on_objects)
        assert rep.counterexamples == on_least_covers(expected, j)
        verdicts.add(rep.verdict)
        mixed += len({p.maximal for p in j.plan.covers.values()}) == 2
    assert verdicts == {"pass", "fail"}
    assert mixed > 0


def test_check_stack_enumerates_descent_data_at_non_maximal_covers_only(monkeypatch):
    from tck import stacks

    seen = []
    descent_data = stacks._descent_data

    def recording(F, s, p, bound):
        seen.append((s.at, p.maximal))
        return descent_data(F, s, p, bound)

    monkeypatch.setattr(stacks, "_descent_data", recording)
    # the top of chain12 has 12 arrows into it: 2^12 object tuples that the
    # search never takes
    chain12 = chain_with_a_lower_cover(12).base
    assert check_stack(constant_cat_presheaf(chain12, walking_iso()),
                       trivial_topology(chain12)).verdict == "pass"
    for F in (collapsing_pair(), arrow_without_gluing()):
        assert check_stack(F, trivial_topology(OS)).verdict == "pass"
    assert seen == []
    for j in (OSJ, chain_with_a_lower_cover(5), chain_step_topology(5)):
        seen.clear()
        check_stack(constant_cat_presheaf(j.base, walking_iso()), j)
        assert seen == [(c, False) for c, p in j.plan.covers.items() if not p.maximal] != []


def test_only_descent_checks_build_the_cocycle_index_once_per_plan(monkeypatch):
    from functools import cached_property

    from tck import site

    built = []
    index = site.SievePlan.cocycles.func
    spy = cached_property(lambda p: built.append(p) or index(p))
    spy.__set_name__(site.SievePlan, "cocycles")
    monkeypatch.setattr(site.SievePlan, "cocycles", spy)
    j = open_site_topology()
    for Z in presheaf_corpus(OS, 12) + [nonseparated_presheaf()]:
        is_sheaf(Z, j)
        site.is_separated(Z, j)
        site.sheafify(Z, j)
        assert check_stack(discrete_presheaf(OS, Z), j).verdict in ("pass", "fail")
    assert built == []
    F = constant_cat_presheaf(OS, walking_iso())
    assert check_stack(F, j).ok
    data = stack_oracle.enumerate_descent_data(F, JOINT)[:4]
    for d in data:
        assert validate_descent(d).ok
    for n1, n2 in [(1, 1), (2, 1)]:
        assert validate_sheaf_descent(local_pair_datum(n1, n2)).ok
    assert built
    assert len({id(p) for p in built}) == len(built)
