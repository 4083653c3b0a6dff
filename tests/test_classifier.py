import functools

import pytest
from hypothesis import given, settings, strategies as st

import classifier_oracle
from classifier_oracle import classify_via_hom_enumeration
from map_oracle import enumerate_presheaf_maps, fib_iso_cat, presheaf_iso
from tck import cat2, classifier, fincat, prestack
from tck.classifier import (
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
    precompose_map_to_omega,
    roundtrip_phi,
    roundtrip_z,
)
from tck.corpus import (
    bases,
    constant_cat_presheaf,
    dopf_corpus,
    elements_category,
    map_to_omega_corpus,
    map_to_omega_from_set_functor,
    map_to_omega_over_representable,
    open_site,
    poset_category,
    presheaf_corpus,
    walking_arrow,
)
from tck.errors import SizeBound
from tck.fincat import (
    compose_presheaf_maps,
    delta1,
    point_category,
    slice_cat,
)
from tck.prestack import (
    certify_dopf_pre,
    fib_iso,
    identity_two_nat,
    representable,
    terminal_presheaf,
)

PT = point_category()
WA = walking_arrow()
OS = open_site()


def test_omega_point_is_constant_singleton():
    F = terminal_presheaf(WA)
    z = omega_point(F)
    for (c, x), Z in z.object_part.items():
        sl, _ = slice_cat(WA, c)
        assert Z == delta1(sl)
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
            homs = enumerate_presheaf_maps(delta1(sl), Z)
            assert len(phi.fibre(c, x)) == len(homs)
            assert len(phi.fibre(c, x)) == len(Z.on_objects[WA.id_of(c)])


def test_classify_agrees_with_comma_style_construction():
    F = representable(WA, "b")
    for z in map_to_omega_corpus(F, 4):
        a = classify(z)
        b = classify_via_hom_enumeration(z)
        assert fib_iso(a, b) is not None


def test_classify_on_point_site_reduces_to_elements_of():
    # over the one-object site, prestacks are categories and classify is the
    # category of elements
    from tck.corpus import chain3, constant_cat_presheaf

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
    from tck.corpus import chain3, constant_cat_presheaf

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
    from tck.fincat import identity_presheaf_map

    ident = OmegaModification(
        z, z, {key: identity_presheaf_map(Z) for key, Z in z.object_part.items()}
    )
    t = gamma_mod(ident)
    assert t == identity_two_nat(classify(z).total)


def test_gamma_mod_functorial_on_composable_modifications():
    F = terminal_presheaf(WA)
    zs = map_to_omega_corpus(F, 3)
    for z in zs:
        mods = enumerate_omega_modifications(z, z)
        for m1 in mods:
            for m2 in mods:
                comp = OmegaModification(
                    z, z,
                    {k: compose_presheaf_maps(m2.components[k], m1.components[k])
                     for k in m1.components},
                )
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
        psi = j_forward(base, c, delta1(sl))
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
    assert presheaf_iso(Z, delta1(sl)) is not None


def test_j_round_trips():
    for base, c in ((WA, "b"), (OS, "L")):
        sl, _ = slice_cat(base, c)
        for Z in presheaf_corpus(sl, 8):
            psi = j_forward(base, c, Z)
            back = j_inverse(psi)
            assert presheaf_iso(back, Z) is not None
            again = j_forward(base, c, back)
            assert fib_iso(again, psi) is not None


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


def test_roundtrip_phi_identity():
    F = representable(WA, "b")
    phi = certify_dopf_pre(identity_two_nat(F))
    iso = roundtrip_phi(phi)
    assert iso is not None


def test_roundtrip_over_point_site_reproduces_cat_equivalence():
    from tck.corpus import chain3, constant_cat_presheaf

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
    from tck.classifier import MapToOmega
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
    z = MapToOmega(WA, F, bad_part, bad_arrow)
    with pytest.raises(InvalidTable):
        z.validate()


def test_gamma_mod_over_point_site_is_elements_action():
    # over the one-object site the action on 2-cells is the category of
    # elements construction applied to the underlying set-level map
    from tck.corpus import chain3, constant_cat_presheaf
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
               "fib_iso_cat", "check_comma_universal")


def test_ff_check_and_roundtrip_never_enumerate_presheaf_maps():
    # the product-and-filter enumerators live in tests/map_oracle.py: no tck
    # module defines, imports or names them, so no search can fall back on them
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
