import pytest

from fixture_corpus import dopf_corpus, open_site, terminal_presheaf, walking_arrow
from map_oracle import (
    enumerate_modifications,
    enumerate_setfunctor_maps,
    enumerate_two_nats,
    fib_hom_cat,
)
from tck import cat2, prestack
from tck.corpus import (
    dopf_from_set_functor,
    elements_category,
    poset_category,
    setfunctor_corpus,
)
from tck.errors import InvalidTable, NotOpfibrationAt
from tck.fincat import (
    FinFunctor,
    NatTransform,
    SetPresheaf,
    free_category,
    identity_functor,
    point_category,
)
from tck.prestack import (
    CatPresheaf,
    Modification,
    TwoNat,
    certify_dopf_pre,
    fib_hom,
    fib_iso,
    identity_two_nat,
    pointwise_comma,
    pointwise_pullback,
    representable,
    yoneda,
    yoneda_inv,
)

PT = point_category()
WA = walking_arrow()
OS = open_site()


def sample_presheaf():
    """A small non-discrete presheaf on WA: F(b) = walking arrow, F(a) = point."""
    F = CatPresheaf(
        WA,
        {"a": PT, "b": free_category(["x", "y"], {"m": ("x", "y")})},
        {
            "id_a": identity_functor(PT),
            "id_b": identity_functor(free_category(["x", "y"], {"m": ("x", "y")})),
            "u": FinFunctor(
                free_category(["x", "y"], {"m": ("x", "y")}), PT,
                {"x": "*", "y": "*"},
                {"id_x": "id_*", "id_y": "id_*", "m": "id_*"},
            ),
        },
    )
    F.validate()
    return F


def test_representable_on_point_is_constant_point():
    rep = representable(PT, "*")
    assert rep.on_objects["*"].objects == ("id_*",)


def test_representable_on_walking_arrow_hom_sets():
    rep = representable(WA, "b")
    assert rep.on_objects["a"].objects == ("u",)
    assert rep.on_objects["b"].objects == ("id_b",)


def test_representable_contains_identity():
    for cat in (WA, OS):
        for c in cat.objects:
            rep = representable(cat, c)
            assert cat.id_of(c) in rep.on_objects[c].objects


def test_yoneda_round_trip():
    F = sample_presheaf()
    for c in WA.objects:
        for x in F.on_objects[c].objects:
            nat = yoneda(F, c, x)
            assert yoneda_inv(nat) == x


def test_yoneda_inv_refuses_a_nat_with_a_partial_component_table():
    nat = TwoNat(representable(OS, "T"), terminal_presheaf(OS), {})
    with pytest.raises(InvalidTable, match="component table is not total"):
        yoneda_inv(nat)


def test_yoneda_at_identity():
    F = sample_presheaf()
    nat = yoneda(F, "b", "x")
    assert nat.components["b"].on_objects["id_b"] == "x"


def test_yoneda_bijection_counts():
    F = sample_presheaf()
    for c in WA.objects:
        nats = enumerate_two_nats(representable(WA, c), F)
        assert len(nats) == len(F.on_objects[c].objects)


def test_terminal_presheaf_admits_exactly_one_two_nat():
    T = terminal_presheaf(WA)
    for F in [sample_presheaf(), representable(WA, "a"), representable(WA, "b")]:
        assert len(enumerate_two_nats(F, T)) == 1


def test_certify_identity_two_nat():
    F = sample_presheaf()
    phi = certify_dopf_pre(identity_two_nat(F))
    assert all(len(v) == 1 for v in phi.fibres.values())


def test_certify_glued_elements_construction():
    F = sample_presheaf()
    el = elements_category(F)
    for B in setfunctor_corpus(el, 5):
        phi = dopf_from_set_functor(F, B)
        for c in WA.objects:
            for x in F.on_objects[c].objects:
                assert phi.fibre(c, x) == tuple(
                    sorted(f"({x},{t})" for t in B.on_objects[f"<{c}|{x}>"])
                )


def test_certify_rejects_broken_component():
    # collapse functor WA -> PT seen over the one-object site is not an opfibration
    K = free_category(["x", "y"], {"m": ("x", "y")})
    Fsrc = prestack.CatPresheaf(PT, {"*": K}, {"id_*": identity_functor(K)})
    Ftgt = terminal_presheaf(PT)
    collapse = FinFunctor(K, PT, {"x": "*", "y": "*"},
                          {"id_x": "id_*", "id_y": "id_*", "m": "id_*"})
    s = TwoNat(Fsrc, Ftgt, {"*": collapse})
    s.validate()
    with pytest.raises(NotOpfibrationAt) as err:
        certify_dopf_pre(s)
    assert err.value.component == "*"


def test_two_nat_names_a_source_presheaf_with_no_value_at_an_object():
    # the endpoints are validated before a component is compared with them
    F = sample_presheaf()
    partial = CatPresheaf(WA, {"a": F.on_objects["a"]}, F.on_arrows)
    nat = TwoNat(partial, F, identity_two_nat(F).components)
    with pytest.raises(InvalidTable, match="cat presheaf object table is not total"):
        nat.validate()


def test_pointwise_comma_of_identities_is_arrow_category():
    F = sample_presheaf()
    idf = identity_two_nat(F)
    cone = pointwise_comma(idf, idf)
    for c in WA.objects:
        expected = cat2.comma(
            identity_functor(F.on_objects[c]), identity_functor(F.on_objects[c])
        )
        assert cone.apex.on_objects[c] == expected.apex


def test_pointwise_comma_apex_counts():
    F = sample_presheaf()
    phi = dopf_corpus(F, 3)[2]
    cone = pointwise_comma(identity_two_nat(F), phi.s)
    for c in WA.objects:
        per_component = cat2.comma(identity_functor(F.on_objects[c]), phi.s.components[c])
        assert len(cone.apex.on_objects[c].objects) == len(per_component.apex.objects)


def test_pointwise_pullback_along_identity_returns_p():
    F = sample_presheaf()
    phi = dopf_corpus(F, 2)[1]
    q, top = pointwise_pullback(phi, identity_two_nat(F))
    assert q is phi


def test_pointwise_pullback_fibres_reindex():
    F = sample_presheaf()
    phi = dopf_corpus(F, 3)[2]
    T = terminal_presheaf(WA)
    # pick a 2-natural z: T -> F (a global object of F)
    z = enumerate_two_nats(T, F)[0]
    q, _ = pointwise_pullback(phi, z)
    for c in WA.objects:
        x = z.components[c].on_objects["*"]
        assert len(q.fibre(c, "*")) == len(phi.fibre(c, x))


def test_pullback_of_representable_matches_precomposition():
    # phi over representable(b); pull back along yoneda arrow representable(a) -> representable(b)
    rep_b = representable(WA, "b")
    rep_a = representable(WA, "a")
    phi = dopf_corpus(rep_b, 3)[2]
    yf = yoneda(rep_b, "a", "u")  # the map representable(a) -> representable(b)
    assert yf.source == rep_a
    q, _ = pointwise_pullback(phi, yf)
    for d in WA.objects:
        for g in rep_a.on_objects[d].objects:
            fg = WA.compose("u", g)
            assert len(q.fibre(d, g)) == len(phi.fibre(d, fg))


def test_fib_hom_contains_identity():
    F = sample_presheaf()
    phi = dopf_corpus(F, 2)[1]
    homs = fib_hom(phi, phi)
    assert identity_two_nat(phi.total) in homs


def test_fib_hom_empty_on_incompatible_fibres():
    F = sample_presheaf()
    el = elements_category(F)
    from tck.corpus import constant_setfunctor

    nonempty = dopf_from_set_functor(F, constant_setfunctor(el, ["t"]))
    empty = dopf_from_set_functor(F, constant_setfunctor(el, []))
    assert fib_hom(nonempty, empty) == []


def test_fib_iso_found_for_relabelled_fixture():
    F = sample_presheaf()
    el = elements_category(F)
    from tck.corpus import constant_setfunctor

    a = dopf_from_set_functor(F, constant_setfunctor(el, ["p", "q"]))
    b = dopf_from_set_functor(F, constant_setfunctor(el, ["r", "s"]))
    iso = fib_iso(a, b)
    assert iso is not None


def identity_nat(F: FinFunctor) -> NatTransform:
    return NatTransform(F, F, {x: F.target.id_of(F.on_objects[x]) for x in F.source.objects})


def test_enumerate_modifications_identity_present():
    F = sample_presheaf()
    phi = dopf_corpus(F, 2)[1]
    z = phi.s
    mods = enumerate_modifications(z, z)
    ident = Modification(z, z, {c: identity_nat(z.components[c]) for c in WA.objects})
    assert ident in mods


def test_enumerate_modifications_zero_when_componentwise_empty():
    # two parallel 2-naturals with no natural transformations at some component
    rep_a = representable(WA, "a")
    F = sample_presheaf()
    nats = enumerate_two_nats(rep_a, F)
    # representable(a)(a) = {id_a}; it picks the unique object of F(a);
    # all two-nats share that component, so pick two distinct ones if possible
    if len(nats) >= 2:
        mods01 = enumerate_modifications(nats[0], nats[1])
        mods10 = enumerate_modifications(nats[1], nats[0])
        # one direction must be empty: the components at b differ by the
        # non-invertible arrow m
        assert min(len(mods01), len(mods10)) == 0


def test_modification_counts_match_fib_hom_counts():
    # |Modifications(z, z')| == |fib_hom(classify z, classify z')| is the
    # classifier statement; here check the degenerate identity instance
    F = sample_presheaf()
    phi = dopf_corpus(F, 2)[1]
    homs = fib_hom(phi, phi)
    assert len(homs) >= 1


def test_search_setfunctor_maps_agrees_with_product_filter_oracle():
    # the pruned backtracking search and the brute-force enumerator must
    # return exactly the same natural transformations
    from tck.fincat import search_setfunctor_maps
    from fixture_corpus import chain3, parallel_pair
    from tck.corpus import setfunctor_corpus

    def canon(m):
        return tuple(sorted(
            (c, tuple(sorted(t.items()))) for c, t in m.components.items()
        ))

    for base in (chain3(), parallel_pair()):
        fixtures = setfunctor_corpus(base, 5)
        for A in fixtures[:4]:
            for B in fixtures[:4]:
                brute = enumerate_setfunctor_maps(A, B)
                searched = search_setfunctor_maps(A, B)
                assert sorted(canon(m) for m in brute) == \
                    sorted(canon(m) for m in searched)
                isos = [m for m in brute if m.is_iso()]
                first = search_setfunctor_maps(A, B, iso_only=True, limit=1)
                assert bool(isos) == bool(first)


def test_fib_hom_counts_agree_with_componentwise_product_oracle():
    # fib_hom via the category of elements matches the direct product of
    # per-component triangle functors filtered by strict naturality
    import itertools

    from tck.fincat import compose_functors

    F = sample_presheaf()
    phis = dopf_corpus(F, 4)
    base = F.base
    for phi in phis[2:]:
        for psi in phis[2:]:
            fast = fib_hom(phi, psi)
            objs = sorted(base.objects)
            per_obj = [fib_hom_cat(phi.certificates[c], psi.certificates[c])
                       for c in objs]
            brute = []
            for combo in itertools.product(*per_obj):
                comps = dict(zip(objs, combo))
                if all(
                    compose_functors(psi.total.on_arrows[f], comps[c]) ==
                    compose_functors(comps[d], phi.total.on_arrows[f])
                    for f, (d, c) in base.arrows.items()
                ):
                    brute.append(TwoNat(phi.total, psi.total, comps))
            assert len(fast) == len(brute)
            assert all(t in brute for t in fast)


def test_fib_hom_between_elements_constructions_bijects_with_classifying_maps():
    # maps between glued elements-of constructions correspond to natural
    # transformations of the underlying fibre tables (product-filter oracle)
    F = sample_presheaf()
    el = elements_category(F)
    tables = setfunctor_corpus(el, 4)
    for B1 in tables[1:4]:
        for B2 in tables[1:4]:
            phi1 = dopf_from_set_functor(F, B1)
            phi2 = dopf_from_set_functor(F, B2)
            homs = fib_hom(phi1, phi2)
            oracle = enumerate_setfunctor_maps(B1, B2)
            assert len(homs) == len(oracle)


def test_yoneda_bijection_is_onto_all_two_nats():
    # every 2-natural out of a representable is the image of the object it
    # picks at the identity, for a corpus of targets
    from fixture_corpus import catpresheaf_corpus

    for F in [sample_presheaf()] + catpresheaf_corpus(WA, 3):
        for c in WA.objects:
            nats = enumerate_two_nats(representable(WA, c), F)
            picked = set()
            for nat in nats:
                x = yoneda_inv(nat)
                assert yoneda(F, c, x) == nat
                picked.add(x)
            assert sorted(picked) == sorted(F.on_objects[c].objects)


def test_elements_category_is_built_once_per_presheaf():
    F = sample_presheaf()
    el = elements_category(F)
    assert elements_category(F) is el
    phi = dopf_corpus(F, 1)[0]
    assert prestack.fibre_diagram(phi).base is el
    # the cache stays out of equality and repr
    fresh = sample_presheaf()
    assert fresh == F and repr(fresh) == repr(F)
    assert elements_category(fresh) is not el and elements_category(fresh) == el


def test_category_of_elements_rejects_colliding_generated_names():
    # "<p|q|r>" names both (p, "q|r") and ("p|q", r)
    P = poset_category(["p", "p|q"], [("p", "p|q")])
    Z = SetPresheaf(P, {"p": ("q|r",), "p|q": ("r",)},
                    {"p_p": {"q|r": "q|r"}, "p|q_p|q": {"r": "r"}, "p_p|q": {"r": "q|r"}})
    F = prestack.discrete_presheaf(P, Z)
    with pytest.raises(InvalidTable, match=r"\('p', 'q\|r'\) and \('p\|q', 'r'\)"):
        prestack.elements_category(F)


def test_yoneda_at_an_unknown_object_raises_unknown_object():
    from tck.errors import UnknownObject

    F = sample_presheaf()
    with pytest.raises(UnknownObject):
        yoneda(F, "nope", "x")
    with pytest.raises(UnknownObject):
        yoneda(F, "b", "nope")
