import functools
import importlib.util
import itertools
import math
import os
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from category_strategies import generated_categories, small_monoids
import classifier_oracle
from classifier_oracle import classify_via_hom_enumeration
from fixture_corpus import (
    bases,
    catpresheaf_corpus,
    constant_cat_presheaf,
    dopf_corpus,
    map_to_omega_corpus,
    map_to_omega_over_representable,
    open_site,
    precompose_map_to_omega,
    terminal_presheaf,
    walking_arrow,
)
from map_oracle import enumerate_presheaf_maps, fib_iso_cat, presheaf_iso, search_presheaf_maps
from tck import cat2, classifier, fincat, prestack
from tck.classifier import (
    MapToOmega,
    OmegaModification,
    char,
    classify,
    enumerate_omega_modifications,
    ff_check,
    find_omega_iso,
    gamma_mod,
    j_forward,
    j_inverse,
    omega_point,
    roundtrip_phi,
    roundtrip_z,
)
from tck.corpus import (
    dopf_from_set_functor,
    elements_category,
    hom_from,
    map_to_omega_from_set_functor,
    poset_category,
    presheaf_corpus,
    setfunctor_corpus,
)
from tck.errors import SizeBound
from tck.fincat import (
    compose_presheaf_maps,
    constant_presheaf,
    point_category,
    slice_cat,
)
from tck.prestack import (
    certify_dopf_pre,
    fib_iso,
    identity_two_nat,
    pointwise_pullback,
    representable,
)

PT = point_category()
WA = walking_arrow()
OS = open_site()


def test_omega_point_is_constant_singleton():
    F = terminal_presheaf(WA)
    z = omega_point(F)
    for (c, x), Z in z.object_part.items():
        sl, _ = slice_cat(WA, c)
        assert Z == constant_presheaf(sl, "*")
    for m in z.arrow_part.values():
        assert all(v == {"*": "*"} for v in m.components.values())


def test_classify_omega_point_is_iso_onto_F():
    for F in (terminal_presheaf(WA), representable(WA, "b")):
        phi = classify(omega_point(F))
        assert all(len(v) == 1 for v in phi.fibres.values())
        assert fib_iso(phi, certify_dopf_pre(identity_two_nat(F))) is not None


def test_fibre_formula_against_hom_enumeration():
    # |fibre of classify(z) at (c, X)| equals |Hom(Delta1, Z_{c,X})|,
    # with the right side computed by the independent presheaf-map oracle
    F = representable(WA, "b")
    for z in map_to_omega_corpus(F, 4):
        phi = classify(z)
        for (c, x), Z in z.object_part.items():
            sl, _ = slice_cat(WA, c)
            homs = enumerate_presheaf_maps(constant_presheaf(sl, "*"), Z)
            assert len(phi.fibre(c, x)) == len(homs)
            assert len(phi.fibre(c, x)) == len(Z.on_objects[WA.id_of(c)])


def test_classify_agrees_with_comma_style_construction():
    F = representable(WA, "b")
    for z in map_to_omega_corpus(F, 4):
        a = classify(z)
        b = classify_via_hom_enumeration(z)
        assert fib_iso(a, b) is not None


def _bench_set_functors(seed: int):
    """The (F, B) pairs classify-roundtrip builds its opfibrations from:
    each chain site's representable at the top, and every relabelled
    member of the set functor corpus on its elements, drawn as the
    workload draws them."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "gen.py")
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(seed)
    out = []
    for n in range(3, 9):
        cat = gen.chain_site(n)
        F = representable(cat, cat.objects[-1])
        el = elements_category(F)
        bs = setfunctor_corpus(el, 12)
        out += [(F, gen.relabel_setfunctor(B, rng)) for _, B in gen.draw(bs, rng)]
        # the maps into the classifier and the Yoneda pool draw next
        for _, B in gen.draw(bs, rng):
            gen.relabel_setfunctor(B, rng)
        for x in el.objects:
            gen.relabel_setfunctor(hom_from(el, x, "r"), rng)
    return out


def _test_set_functors():
    """Every fixture base with its Cat-valued corpus, the terminal presheaf
    and each representable, times the set functor corpus on the elements."""
    for base in bases().values():
        Fs = catpresheaf_corpus(base, 6) + [terminal_presheaf(base)]
        Fs += [representable(base, c) for c in base.objects]
        for F in Fs:
            el = elements_category(F)
            if el.objects:
                yield from ((F, B) for B in setfunctor_corpus(el, 8))


def test_dopf_from_set_functor_matches_the_hand_glued_oracle():
    # corpus classifies the map into the classifier whose fibre functor is
    # B; the oracle glues the same opfibration by hand from element names
    pairs = _bench_set_functors(701)
    assert len(pairs) == 72
    pairs += list(_test_set_functors())
    for F, B in pairs:
        assert repr(dopf_from_set_functor(F, B)) == \
            repr(classifier_oracle.dopf_from_set_functor_by_hand(F, B))


def test_classify_on_point_site_reduces_to_elements_of():
    # over the one-object site, prestacks are categories and classify is the
    # category of elements
    from fixture_corpus import chain3, constant_cat_presheaf

    F = constant_cat_presheaf(PT, chain3())
    for z in map_to_omega_corpus(F, 3):
        phi = classify(z)
        table = cat2.elements_of(
            cat2.fiber_functor(phi.certificates["*"])
        )
        assert fib_iso_cat(phi.certificates["*"], table) is not None


def test_classify_two_point_fibres_over_walking_arrow():
    F = representable(WA, "b")
    el = elements_category(F)
    from tck.corpus import constant_setfunctor

    B = constant_setfunctor(el, ["0", "1"])
    z = map_to_omega_from_set_functor(F, B)
    phi = classify(z)
    for (c, x) in z.object_part:
        assert len(phi.fibre(c, x)) == 2


def test_char_of_identity_is_singleton_valued():
    F = representable(WA, "b")
    phi = certify_dopf_pre(identity_two_nat(F))
    z = char(phi)
    for Z in z.object_part.values():
        assert all(len(v) == 1 for v in Z.on_objects.values())
    assert find_omega_iso(z, omega_point(F)) is not None


def test_char_on_point_site_is_fiber_functor():
    from fixture_corpus import chain3, constant_cat_presheaf

    F = constant_cat_presheaf(PT, chain3())
    for phi in dopf_corpus(F, 3):
        z = char(phi)
        ff = cat2.fiber_functor(phi.certificates["*"])
        for x in F.on_objects["*"].objects:
            assert z.object_part[("*", x)].on_objects[PT.id_of("*")] == ff.on_objects[x]


def test_char_tables_enumerate_fibres():
    F = representable(WA, "b")
    for phi in dopf_corpus(F, 4):
        z = char(phi)
        for (c, x), Z in z.object_part.items():
            for f in Z.base.objects:
                d = WA.dom(f)
                fx = F.on_arrows[f].on_objects[x]
                assert Z.on_objects[f] == phi.fibre(d, fx)


def test_gamma_mod_on_identity_modification():
    F = representable(WA, "b")
    z = map_to_omega_corpus(F, 2)[1]
    from tck.fincat import SetFunctorMap, identity_presheaf_map

    B = z.fibre_functor
    ident = OmegaModification(
        z, z, SetFunctorMap(B, B, {o: {t: t for t in ts} for o, ts in B.on_objects.items()})
    )
    assert ident.components == \
        {key: identity_presheaf_map(Z) for key, Z in z.object_part.items()}
    t = gamma_mod(ident)
    assert t == identity_two_nat(classify(z).total)


def test_gamma_mod_functorial_on_composable_modifications():
    from tck.fincat import SetFunctorMap

    F = terminal_presheaf(WA)
    zs = map_to_omega_corpus(F, 3)
    for z in zs:
        mods = enumerate_omega_modifications(z, z)
        for m1 in mods:
            for m2 in mods:
                a1, a2 = m1.fibre_map.components, m2.fibre_map.components
                comp = OmegaModification(z, z, SetFunctorMap(
                    z.fibre_functor, z.fibre_functor,
                    {o: {t: a2[o][v] for t, v in a1[o].items()} for o in a1},
                ))
                assert comp.components == \
                    {k: compose_presheaf_maps(m2.components[k], m1.components[k])
                     for k in m1.components}
                comp.validate()
                lhs = gamma_mod(comp)
                rhs_parts = {
                    c: None for c in WA.objects
                }
                g1, g2 = gamma_mod(m1), gamma_mod(m2)
                from tck.fincat import compose_functors

                composed = {
                    c: compose_functors(g2.components[c], g1.components[c])
                    for c in WA.objects
                }
                assert lhs.components == composed


def test_j_forward_of_delta1_is_maximal_two_sieve():
    for base, c in ((WA, "b"), (OS, "T")):
        sl, _ = slice_cat(base, c)
        psi = j_forward(base, c, constant_presheaf(sl, "*"))
        rep = representable(base, c)
        assert fib_iso(psi, certify_dopf_pre(identity_two_nat(rep))) is not None


def test_j_forward_fibres_scan():
    sl, _ = slice_cat(OS, "T")
    for Z in presheaf_corpus(sl, 6):
        psi = j_forward(OS, "T", Z)
        for d in OS.objects:
            for f in OS.hom(d, "T"):
                assert len(psi.fibre(d, f)) == len(Z.on_objects[f])


def test_j_forward_names_both_parts_of_a_clashing_element():
    from tck.errors import InvalidTable
    from tck.fincat import FinCat, SetPresheaf

    # "(a,b,c)" names both (a, "b,c") and ("a,b", c) over d
    arrows = {"id_c": ("c", "c"), "id_d": ("d", "d"), "a": ("d", "c"), "a,b": ("d", "c")}
    compose = {("id_c", "id_c"): "id_c", ("id_d", "id_d"): "id_d"}
    for u in ("a", "a,b"):
        compose[("id_c", u)] = compose[(u, "id_d")] = u
    site = FinCat(("c", "d"), arrows, {"c": "id_c", "d": "id_d"}, compose)
    site.validate()
    sl, _ = slice_cat(site, "c")
    Z = SetPresheaf(sl, {"a": ("b,c",), "a,b": ("c",), "id_c": ()}, {
        "id_d>a": {"b,c": "b,c"}, "id_d>a,b": {"c": "c"},
        "a>id_c": {}, "a,b>id_c": {}, "id_c>id_c": {},
    })
    Z.validate()
    with pytest.raises(InvalidTable, match=r"\('a', 'b,c'\) and \('a,b', 'c'\)"):
        j_forward(site, "c", Z)


def test_j_forward_concentration():
    from tck.fincat import SetPresheaf

    # sections at the identity slice object restrict into every other value,
    # so a presheaf concentrated over id exists only on a point slice
    sl_a, _ = slice_cat(WA, "a")
    Za = SetPresheaf(sl_a, {"id_a": ("t0",)}, {"id_a>id_a": {"t0": "t0"}})
    Za.validate()
    psi_a = j_forward(WA, "a", Za)
    assert len(psi_a.fibre("a", "id_a")) == 1

    # on slice(WA, b) the valid concentration is at the non-terminal object u
    sl, _ = slice_cat(WA, "b")
    on_objects = {f: () for f in sl.objects}
    on_objects["u"] = ("t0",)
    on_arrows = {name: {} for name in sl.arrows}
    on_arrows["id_a>u"] = {"t0": "t0"}
    Z = SetPresheaf(sl, on_objects, on_arrows)
    Z.validate()
    psi = j_forward(WA, "b", Z)
    assert len(psi.fibre("a", "u")) == 1
    assert len(psi.fibre("b", "id_b")) == 0


def test_j_inverse_of_identity_is_singleton_valued():
    rep = representable(WA, "b")
    psi = certify_dopf_pre(identity_two_nat(rep))
    Z = j_inverse(psi)
    sl, _ = slice_cat(WA, "b")
    assert presheaf_iso(Z, constant_presheaf(sl, "*")) is not None


def test_j_round_trips():
    for base, c in ((WA, "b"), (OS, "L")):
        sl, _ = slice_cat(base, c)
        for Z in presheaf_corpus(sl, 8):
            psi = j_forward(base, c, Z)
            back = j_inverse(psi)
            assert presheaf_iso(back, Z) is not None
            again = j_forward(base, c, back)
            assert fib_iso(again, psi) is not None


def test_j_inverse_and_yoneda_inv_reject_non_representables():
    from tck.errors import InvalidTable
    from tck.fincat import SetPresheaf
    from tck.prestack import discrete_presheaf, yoneda_inv

    # the first holds no identity at all; the second holds id_b at b but has
    # a second element at a; the third holds id_a at a and id_b at b
    tables = [({"a": ("k",), "b": ("k",)}, {"k": "k"}),
              ({"a": ("u", "v"), "b": ("id_b",)}, {"id_b": "u"}),
              ({"a": ("id_a",), "b": ("id_b",)}, {"id_b": "id_a"})]
    for on_objects, at_u in tables:
        Z = SetPresheaf(WA, on_objects, {"id_a": {x: x for x in on_objects["a"]},
                                         "id_b": {x: x for x in on_objects["b"]}, "u": at_u})
        F = discrete_presheaf(WA, Z)
        with pytest.raises(InvalidTable, match="expects an opfibration over a representable"):
            j_inverse(certify_dopf_pre(identity_two_nat(F)))
        with pytest.raises(InvalidTable, match="source is not a representable presheaf"):
            yoneda_inv(identity_two_nat(F))
    for c in WA.objects:
        rep = representable(WA, c)
        assert yoneda_inv(identity_two_nat(rep)) == WA.id_of(c)


def test_j_inverse_of_classified_map_recovers_Z():
    sl, _ = slice_cat(WA, "b")
    for Z in presheaf_corpus(sl, 5):
        z = map_to_omega_over_representable(WA, "b", Z)
        phi = classify(z)
        back = j_inverse(phi)
        assert presheaf_iso(back, Z) is not None


def test_ff_check_trivial_over_terminal():
    F = terminal_presheaf(PT)
    z = omega_point(F)
    rep = ff_check(z, z)
    assert rep.ok
    assert rep.witnesses[0] == ("bijection", 1)


def test_searches_leave_no_reference_cycles():
    # under DEBUG_SAVEALL a collection keeps what it frees in gc.garbage, so
    # a search state held in a cycle of closures shows there
    import gc
    import types

    phis = dopf_corpus(representable(WA, "b"), 3)
    zs = map_to_omega_corpus(terminal_presheaf(WA), 3)
    sections = presheaf_corpus(OS, 6)
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[saved:]
        for a, b in itertools.product(phis, repeat=2):
            fib_iso(a, b)
        for z1, z2 in itertools.product(zs, repeat=2):
            ff_check(z1, z2)
        for Z, W in itertools.product(sections, repeat=2):
            search_presheaf_maps(Z, W)
        gc.collect()
        cyclic = sorted({f"{o.__module__}.{o.__qualname__}" for o in gc.garbage[saved:]
                         if isinstance(o, types.FunctionType)
                         and (o.__module__ or "").split(".")[0] == "tck"})
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert cyclic == []


def test_ff_check_over_representables():
    sl, _ = slice_cat(WA, "b")
    zs = [map_to_omega_over_representable(WA, "b", Z) for Z in presheaf_corpus(sl, 4)]
    for z1 in zs:
        for z2 in zs:
            assert ff_check(z1, z2).ok


def test_ff_check_over_non_representable():
    F = terminal_presheaf(WA)
    zs = map_to_omega_corpus(F, 3)
    for z1 in zs:
        for z2 in zs:
            assert ff_check(z1, z2).ok


def swap_first_fibre(m):
    """The fibre map m with the images of two elements swapped, in the first
    fibre where they differ; None when no fibre has two such elements."""
    for o in sorted(m.components):
        table = m.components[o]
        for t1, t2 in itertools.combinations(sorted(table), 2):
            if table[t1] != table[t2]:
                comps = {k: dict(v) for k, v in m.components.items()}
                comps[o][t1], comps[o][t2] = table[t2], table[t1]
                return fincat.SetFunctorMap(m.source, m.target, comps)
    return None


def permute_first_transport(B):
    """B with the transport along its first non-identity arrow into a fibre
    of two or more elements followed by a swap of that fibre's first two."""
    el = B.base
    for a in sorted(el.arrows):
        tgt = B.on_objects[el.cod(a)]
        if not el.is_identity(a) and len(tgt) >= 2:
            swap = {tgt[0]: tgt[1], tgt[1]: tgt[0]}
            on_arrows = dict(B.on_arrows)
            on_arrows[a] = {t: swap.get(v, v) for t, v in B.on_arrows[a].items()}
            return fincat.FinSetFunctor(el, B.on_objects, on_arrows)
    return B


def maps_with_two_element_fibres():
    """Per presheaf over the walking arrow, a corpus map with two elements
    in every fibre, fresh, so that nothing is memoized on it yet."""
    out = []
    for F in (representable(WA, "b"), terminal_presheaf(WA),
              constant_cat_presheaf(WA, walking_arrow())):
        out.append(next(z for z in map_to_omega_corpus(F, 6)
                        if {len(v) for v in z.fibre_functor.on_objects.values()} == {2}))
    return out


def test_ff_check_fails_when_the_lift_of_a_modification_is_mutated(monkeypatch):
    from tck.fincat import mark_valid

    lift = classifier.gamma_mod

    def swapped(alpha):
        m = swap_first_fibre(alpha.fibre_map)
        if m is not None:
            alpha = mark_valid(OmegaModification(alpha.source, alpha.target, m))
        return lift(alpha)

    zs = maps_with_two_element_fibres()
    assert all(ff_check(z, z).verdict == "pass" for z in zs)
    monkeypatch.setattr(classifier, "gamma_mod", swapped)
    for z in zs:
        assert ff_check(z, z).verdict == "fail"


def test_ff_check_fails_when_classify_permutes_a_transport(monkeypatch):
    # fib_hom searches the fibre diagrams of classify(z), built by transport
    # in the classified opfibration, so a wrong transport there is caught
    from tck.classifier import MapToOmega
    from tck.fincat import mark_valid

    build = classifier._classify

    def permuted(z):
        return build(mark_valid(MapToOmega(z.site, z.source,
                                           permute_first_transport(z.fibre_functor))))

    assert all(ff_check(z, z).verdict == "pass" for z in maps_with_two_element_fibres())
    monkeypatch.setattr(classifier, "_classify", permuted)
    for z in maps_with_two_element_fibres():
        assert ff_check(z, z).verdict == "fail"


def test_roundtrip_phi_identity():
    F = representable(WA, "b")
    phi = certify_dopf_pre(identity_two_nat(F))
    iso = roundtrip_phi(phi)
    assert iso is not None


def test_roundtrip_over_point_site_reproduces_cat_equivalence():
    from fixture_corpus import chain3, constant_cat_presheaf

    F = constant_cat_presheaf(PT, chain3())
    for phi in dopf_corpus(F, 3):
        assert roundtrip_phi(phi) is not None
    for z in map_to_omega_corpus(F, 3):
        assert roundtrip_z(z) is not None


def test_roundtrip_corpus_over_walking_arrow():
    F = representable(WA, "b")
    for phi in dopf_corpus(F, 5):
        assert roundtrip_phi(phi) is not None
    for z in map_to_omega_corpus(F, 3):
        assert roundtrip_z(z) is not None


def test_char_pseudonatural_along_pullback():
    # char(pullback of phi along y) is isomorphic to char(phi) reindexed
    F = representable(WA, "b")
    H = representable(WA, "a")
    y = prestack.yoneda(F, "a", "u")
    for phi in dopf_corpus(F, 3):
        pulled, _ = prestack.pointwise_pullback(phi, y)
        lhs = char(pulled)
        rhs = precompose_map_to_omega(char(phi), y)
        assert find_omega_iso(lhs, rhs) is not None


def test_map_to_omega_validation_rejects_broken_naturality():
    from tck.classifier import map_from_parts
    from tck.errors import InvalidTable
    from tck.fincat import constant_presheaf, identity_presheaf_map

    F = terminal_presheaf(WA)
    good = omega_point(F)
    # swap in a two-element presheaf at one object only: reindexing equality fails
    sl_b, _ = slice_cat(WA, "b")
    bad_part = dict(good.object_part)
    bad_part[("b", "*")] = constant_presheaf(sl_b, ["0", "1"])
    bad_arrow = dict(good.arrow_part)
    bad_arrow[("b", "id_*")] = identity_presheaf_map(bad_part[("b", "*")])
    z = map_from_parts(WA, F, bad_part, bad_arrow)
    with pytest.raises(InvalidTable):
        z.validate()
    # the omega search trusts what it builds, so it checks its maps on entry
    for pair in ((z, good), (good, z)):
        with pytest.raises(InvalidTable, match="strict naturality"):
            enumerate_omega_modifications(*pair)


def test_map_to_omega_validation_names_an_object_part_keyed_outside_f():
    from tck.errors import InvalidTable

    z = omega_point(terminal_presheaf(WA))
    parts = ({("b", "nope"): z.object_part[("b", "*")]}, {})
    with pytest.raises(InvalidTable, match=r"object_part key \('b', 'nope'\)"):
        MapToOmega(z.site, z.source, z.fibre_functor, parts).validate()


def test_map_to_omega_validation_names_an_arrow_part_keyed_outside_f():
    from tck.errors import InvalidTable

    z = omega_point(terminal_presheaf(WA))
    parts = ({}, {("b", "nope"): z.arrow_part[("b", "id_*")]})
    with pytest.raises(InvalidTable, match=r"arrow_part key \('b', 'nope'\)"):
        MapToOmega(z.site, z.source, z.fibre_functor, parts).validate()


def test_gamma_mod_over_point_site_is_elements_action():
    # over the one-object site the action on 2-cells is the category of
    # elements construction applied to the underlying set-level map
    from fixture_corpus import chain3, constant_cat_presheaf
    from tck.fincat import FinFunctor

    F = constant_cat_presheaf(PT, chain3())
    zs = map_to_omega_corpus(F, 3)
    for z1 in zs:
        for z2 in zs:
            for mod in enumerate_omega_modifications(z1, z2):
                t = gamma_mod(mod)
                src = classify(z1)
                tgt = classify(z2)
                # independent route: act on fibre elements and force arrows
                # through the elements-of naming
                idp = PT.id_of("*")
                on_objects = {}
                for o in src.total.on_objects["*"].objects:
                    x = src.s.components["*"].on_objects[o]
                    elem = o[2 + len(x):-1]
                    on_objects[o] = f"({x},{mod.components[('*', x)].components[idp][elem]})"
                arr_map = {}
                for name, (o1, _) in src.total.on_objects["*"].arrows.items():
                    nu = src.s.components["*"].on_arrows[name]
                    x = src.s.components["*"].on_objects[o1]
                    elem = o1[2 + len(x):-1]
                    arr_map[name] = \
                        f"({nu},{mod.components[('*', x)].components[idp][elem]})"
                expected = FinFunctor(src.total.on_objects["*"],
                                      tgt.total.on_objects["*"], on_objects, arr_map)
                assert t.components["*"] == expected


def chain(n):
    objs = [f"c{i}" for i in range(n)]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


@functools.cache
def omega_map_pool():
    """Corpus maps to Omega over representable, terminal and constant
    walking-arrow presheaves on the shipped bases and chain3-5."""
    pool = []
    for cat in list(bases().values()) + [chain(4), chain(5)]:
        for F in (representable(cat, cat.objects[-1]), terminal_presheaf(cat),
                  constant_cat_presheaf(cat, walking_arrow())):
            pool.append(map_to_omega_corpus(F, 6))
    return pool


def component_tables(mods):
    return sorted(
        sorted((key, sorted((g, sorted(t.items())) for g, t in m.components.items()))
               for key, m in mod.components.items())
        for mod in mods
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_omega_search_agrees_with_product_filter_oracle(data):
    group = data.draw(st.sampled_from(omega_map_pool()))
    z = data.draw(st.sampled_from(group))
    w = data.draw(st.sampled_from(group))
    try:
        expected = classifier_oracle.enumerate_omega_modifications(z, w, bound=5000)
    except SizeBound:
        return  # too big for the product-and-filter oracle
    assert component_tables(enumerate_omega_modifications(z, w)) == \
        component_tables(expected)
    assert (find_omega_iso(z, w) is not None) == any(m.is_iso() for m in expected)


def test_omega_search_leaves_reject_maps_unnatural_in_x():
    # over the point, reindexing forces nothing, so every choice of a natural
    # map per key is reindex-consistent; some of these choices fail
    # naturality in X along u: a -> b, which on the category of elements is
    # naturality along the arrow <id|u|a>, and the search must reject them
    F = constant_cat_presheaf(PT, walking_arrow())
    maps = map_to_omega_corpus(F, 6)
    unnatural = 0
    for z in maps:
        for w in maps:
            mods = enumerate_omega_modifications(z, w)
            assert component_tables(mods) == \
                component_tables(classifier_oracle.enumerate_omega_modifications(z, w))
            consistent = math.prod(
                len(search_presheaf_maps(z.object_part[key], w.object_part[key]))
                for key in z.object_part
            )
            unnatural += consistent - len(mods)
    assert unnatural > 0


def draw_presheaf_and_functors(cat, data):
    """A representable, terminal or constant walking-arrow presheaf F on cat,
    the object c a representable is drawn at, and two set functors on the
    category of elements of F.  The constant walking-arrow presheaf has
    non-identity arrows in each F(c), so its fibres are not discrete."""
    c = data.draw(st.sampled_from(cat.objects))
    F = data.draw(st.sampled_from([representable(cat, c), terminal_presheaf(cat),
                                   constant_cat_presheaf(cat, walking_arrow())]))
    funs = setfunctor_corpus(elements_category(F), 4)
    return c, F, *(data.draw(st.sampled_from(funs)) for _ in range(2))


def check_round_trips_and_omega_search(cat, data):
    _, F, b1, b2 = draw_presheaf_and_functors(cat, data)
    phi, psi = dopf_from_set_functor(F, b1), dopf_from_set_functor(F, b2)
    try:
        roundtrip_phi(phi)
        assert roundtrip_z(map_to_omega_from_set_functor(F, b2)).is_iso()
        z, w = char(phi), char(psi)
        expected = classifier_oracle.enumerate_omega_modifications(z, w, bound=5000)
        assert component_tables(enumerate_omega_modifications(z, w)) == \
            component_tables(expected)
    except SizeBound:
        reject()


@settings(max_examples=40, deadline=None)
@given(generated_categories(), st.data())
def test_classify_char_round_trips_over_generated_categories(cat, data):
    check_round_trips_and_omega_search(cat, data)


@settings(max_examples=40, deadline=None)
@given(small_monoids(), st.data())
def test_classify_char_round_trips_over_small_monoids(cat, data):
    check_round_trips_and_omega_search(cat, data)


@settings(max_examples=30, deadline=None)
@given(generated_categories(), st.data())
def test_certificates_built_by_construction_match_the_lift_scan(cat, data):
    c, F, b1, b2 = draw_presheaf_and_functors(cat, data)
    funs = setfunctor_corpus(cat, 4)
    z1, z2 = (data.draw(st.sampled_from(funs)) for _ in range(2))
    p, q = cat2.elements_of(z1), cat2.elements_of(z2)
    built = [p, cat2.pullback(p, q.p)[0], cat2.pullback_named(p, q.p)[0]]
    for x in built:
        scanned = cat2.certify_dopf(x.p)
        assert (scanned.lifts, scanned.fibres) == (x.lifts, x.fibres)
    phi, psi = dopf_from_set_functor(F, b1), dopf_from_set_functor(F, b2)
    sl, _ = slice_cat(cat, c)
    Z = data.draw(st.sampled_from(presheaf_corpus(sl, 4)))
    built_pre = [pointwise_pullback(phi, psi.s)[0], classify(char(phi)),
                 classify(map_to_omega_from_set_functor(F, b2)), j_forward(cat, c, Z)]
    for x in built_pre:
        assert certify_dopf_pre(x.s) == x


def test_constructions_never_scan_for_lifts(monkeypatch):
    # classify, j_forward, pointwise_pullback and gamma_mod build their
    # certificates; the lift scan is certify_dopf, which certify_dopf_pre runs
    # on each component
    F = representable(OS, "T")
    funs = setfunctor_corpus(elements_category(F), 3)
    phi, psi = (dopf_from_set_functor(F, b) for b in funs[1:3])
    sl, _ = slice_cat(OS, "T")
    Z = presheaf_corpus(sl, 3)[2]
    scans = []
    scan = cat2.certify_dopf
    monkeypatch.setattr(cat2, "certify_dopf", lambda p: scans.append(p) or scan(p))
    z, w = char(phi), map_to_omega_from_set_functor(F, funs[2])
    classify(z)
    classify(w)
    j_forward(OS, "T", Z)
    pointwise_pullback(phi, psi.s)
    mods = enumerate_omega_modifications(z, w)
    assert mods
    for mod in mods:
        gamma_mod(mod)
    for x in OS.objects:
        cat2.lax_limit_of_arrow(fincat.FinFunctor(PT, OS, {"*": x}, {"id_*": OS.id_of(x)}))
    assert scans == []
    # the wrapper sees the scans that do run
    certify_dopf_pre(phi.s)
    cat2.certify_dopf(phi.s.components["T"])
    assert len(scans) == len(OS.objects) + 1


def test_omega_search_names_itself_when_it_trips_the_bound():
    # three keys that force nothing but themselves, one candidate each:
    # every presheaf-map search takes one node, the omega search three
    F = constant_cat_presheaf(PT, fincat.discrete_category(["x0", "x1", "x2"]))
    z = omega_point(F)
    assert len(enumerate_omega_modifications(z, z, bound=3)) == 1
    with pytest.raises(SizeBound) as exc:
        enumerate_omega_modifications(z, z, bound=2)
    assert exc.value.what == "enumerate_omega_modifications nodes"


def test_classification_dies_with_its_map():
    import gc
    import weakref

    F = representable(WA, "b")
    z = map_to_omega_corpus(F, 2)[1]
    phi = classify(z)
    assert classify(z) is phi
    refs = [weakref.ref(z), weakref.ref(phi)]
    del z, phi
    gc.collect()
    assert [r() for r in refs] == [None, None]


MAP_ORACLES = ("enumerate_presheaf_maps", "presheaf_iso", "enumerate_setfunctor_maps",
               "setfunctor_iso", "_enumerate_component_maps", "fib_hom_cat",
               "fib_iso_cat", "check_comma_universal", "enumerate_functors",
               "enumerate_nats", "natural_iso", "enumerate_two_nats",
               "enumerate_modifications", "search_presheaf_maps")


def test_ff_check_and_roundtrip_never_enumerate_presheaf_maps():
    # the product-and-filter enumerators and the presheaf-map search live in
    # tests/map_oracle.py: no tck module defines, imports or names them, so
    # no search can fall back on them
    import importlib
    import pathlib
    import re

    package = pathlib.Path(classifier.__file__).parent
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"tck.{path.stem}" if path.stem != "__init__" else "tck")
        for name in MAP_ORACLES:
            assert not hasattr(module, name), (path.name, name)
            assert not re.search(rf"\b{name}\b", path.read_text()), (path.name, name)
    F = representable(chain(5), "c4")
    zs = map_to_omega_corpus(F, 4)
    for z in zs:
        assert roundtrip_z(z).is_iso()
    for z1 in zs:
        for z2 in zs:
            assert ff_check(z1, z2).ok
