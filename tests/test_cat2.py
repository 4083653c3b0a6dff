import pytest

from category_strategies import idempotent_monoid
from map_oracle import (
    check_comma_universal,
    enumerate_setfunctor_maps,
    fib_hom_cat,
    fib_iso_cat,
    setfunctor_iso,
)
from tck.cat2 import (
    certify_dopf,
    comma,
    elements_of,
    fiber_functor,
    lax_limit_of_arrow,
    lift,
    pullback,
    transport,
)
from tck.corpus import poset_category
from tck.errors import InvalidTable, NotOpfibration
from tck.fincat import (
    FinFunctor,
    FinSetFunctor,
    discrete_category,
    free_category,
    identity_functor,
    point_category,
)

PT = point_category()
WA = free_category(["a", "b"], {"u": ("a", "b")})
CHAIN3 = free_category(["a", "b", "c"], {"u": ("a", "b"), "v": ("b", "c")})


def two_point_fibre_functor():
    """z on WA with z(a) = {x0, x1}, z(b) = {y}, u collapsing."""
    z = FinSetFunctor(
        WA,
        {"a": ("x0", "x1"), "b": ("y",)},
        {
            "id_a": {"x0": "x0", "x1": "x1"},
            "id_b": {"y": "y"},
            "u": {"x0": "y", "x1": "y"},
        },
    )
    z.validate()
    return z


def test_identity_functor_is_certified_with_singleton_fibres():
    for cat in (PT, WA, CHAIN3):
        p = certify_dopf(identity_functor(cat))
        assert all(p.fibres[b] == (b,) for b in cat.objects)


def test_codomain_functor_of_arrow_category_is_rejected():
    # arrow category of WA = comma(Id, Id); its codomain projection fails
    # unique lifting: oracle finds an object with lift count != 1.
    cone = comma(identity_functor(WA), identity_functor(WA))
    with pytest.raises(NotOpfibration):
        certify_dopf(cone.right_leg)


def test_lift_along_identity_opfibration():
    p = certify_dopf(identity_functor(WA))
    assert lift(p, "a", "u") == "u"
    assert lift(p, "a", "id_a") == "id_a"


def test_lift_of_identity_is_identity():
    z = two_point_fibre_functor()
    p = elements_of(z)
    for e in p.total.objects:
        b = p.p.on_objects[e]
        assert lift(p, e, p.base.id_of(b)) == p.total.id_of(e)


def test_elements_lift_matches_action():
    z = two_point_fibre_functor()
    p = elements_of(z)
    # lift of u at (a,x0) lands at (b, z(u)(x0))
    assert transport(p, "(a,x0)", "u") == "(b,y)"
    assert transport(p, "(a,x1)", "u") == "(b,y)"


def test_elements_of_constant_singleton_is_iso_onto_base():
    for cat in (WA, CHAIN3):
        z = FinSetFunctor(
            cat,
            {b: ("*",) for b in cat.objects},
            {f: {"*": "*"} for f in cat.arrows},
        )
        p = elements_of(z)
        assert all(len(p.fibres[b]) == 1 for b in cat.objects)
        assert fib_iso_cat(p, certify_dopf(identity_functor(cat))) is not None


def test_elements_of_two_point_set_on_point_is_discrete():
    z = FinSetFunctor(PT, {"*": ("0", "1")}, {"id_*": {"0": "0", "1": "1"}})
    p = elements_of(z)
    assert len(p.total.objects) == 2
    assert all(p.total.is_identity(f) for f in p.total.arrows)


def test_elements_fibres_equal_sets_on_chain():
    z = FinSetFunctor(
        CHAIN3,
        {"a": ("0", "1"), "b": ("0",), "c": ("0", "1", "2")},
        {
            "id_a": {"0": "0", "1": "1"},
            "id_b": {"0": "0"},
            "id_c": {"0": "0", "1": "1", "2": "2"},
            "u": {"0": "0", "1": "0"},
            "v": {"0": "2"},
            "v*u": {"0": "2", "1": "2"},
        },
    )
    p = elements_of(z)
    for b in CHAIN3.objects:
        assert tuple(sorted(f"({b},{x})" for x in z.on_objects[b])) == p.fibres[b]


def test_pullback_along_identity_returns_p_itself():
    p = elements_of(two_point_fibre_functor())
    q, top = pullback(p, identity_functor(WA))
    assert q is p
    assert top == identity_functor(p.total)


def test_pullback_along_point_gives_discrete_fibre():
    p = elements_of(two_point_fibre_functor())
    pick_a = FinFunctor(PT, WA, {"*": "a"}, {"id_*": "id_a"})
    q, _ = pullback(p, pick_a)
    assert len(q.total.objects) == 2
    assert all(q.total.is_identity(f) for f in q.total.arrows)


def test_pullback_fibres_are_reindexed():
    p = elements_of(two_point_fibre_functor())
    const_b = FinFunctor(CHAIN3, WA,
                         {"a": "b", "b": "b", "c": "b"},
                         {f: "id_b" for f in CHAIN3.arrows})
    const_b.validate()
    q, top = pullback(p, const_b)
    for x in CHAIN3.objects:
        assert len(q.fibres[x]) == len(p.fibres[const_b.on_objects[x]])
        # the projected elements agree with the fibre of p at the image
        assert sorted(top.on_objects[e] for e in q.fibres[x]) == list(
            p.fibres[const_b.on_objects[x]]
        )


def test_comma_of_identities_on_point():
    cone = comma(identity_functor(PT), identity_functor(PT))
    assert len(cone.apex.objects) == 1
    assert len(cone.apex.arrows) == 1


def test_comma_apex_object_count_is_hom_sum():
    f = identity_functor(WA)
    g = identity_functor(WA)
    cone = comma(f, g)
    expected = sum(
        len(WA.hom(a, b)) for a in WA.objects for b in WA.objects
    )
    assert len(cone.apex.objects) == expected == 3


def test_comma_universal_property_spot_check():
    cone = comma(identity_functor(WA), identity_functor(WA))
    ok, ce = check_comma_universal(cone, identity_functor(WA), identity_functor(WA))
    assert ok, ce


def test_lax_limit_on_point_is_identity():
    omega = identity_functor(PT)
    p, _ = lax_limit_of_arrow(omega)
    assert len(p.total.objects) == 1
    assert fib_iso_cat(p, certify_dopf(identity_functor(PT))) is not None


def test_lax_limit_fibres_are_hom_sets():
    omega = FinFunctor(PT, WA, {"*": "a"}, {"id_*": "id_a"})
    omega.validate()
    p, _ = lax_limit_of_arrow(omega)
    for b in WA.objects:
        assert len(p.fibres[b]) == len(WA.hom("a", b))
    assert {len(p.fibres[b]) for b in WA.objects} == {1}


def test_lax_limit_lift_matches_comma_recipe():
    # lifting theta at a: the codomain object of the lift is (star, cod, theta . alpha)
    omega = FinFunctor(PT, CHAIN3, {"*": "a"}, {"id_*": "id_a"})
    omega.validate()
    p, cone = lax_limit_of_arrow(omega)
    for e in p.total.objects:
        a, b, al = cone.left_leg.on_objects[e], cone.right_leg.on_objects[e], \
            cone.filler.components[e]
        for f in CHAIN3.arrows_from(b):
            target = transport(p, e, f)
            # comma recipe: the new filler is f . al
            assert cone.filler.components[target] == CHAIN3.compose(f, al)


def test_lax_limit_certificate_matches_the_lift_scan():
    omegas = [identity_functor(PT)] + [
        FinFunctor(PT, cat, {"*": x}, {"id_*": f"id_{x}"})
        for cat in (WA, CHAIN3) for x in cat.objects
    ]
    for omega in omegas:
        p, cone = lax_limit_of_arrow(omega)
        scanned = certify_dopf(cone.right_leg)
        assert (p.p, p.lifts, p.fibres) == (scanned.p, scanned.lifts, scanned.fibres)


def test_lax_limit_needs_the_point_category_as_source():
    # a second endomorphism e of * would give (*, a, id_a) two lifts of id_a
    omega = FinFunctor(idempotent_monoid(), WA, {"*": "a"}, {"id_*": "id_a", "e": "id_a"})
    with pytest.raises(NotOpfibration):
        certify_dopf(comma(omega, identity_functor(WA)).right_leg)
    with pytest.raises(InvalidTable):
        lax_limit_of_arrow(omega)


def test_fiber_functor_of_identity_is_constant_singleton():
    p = certify_dopf(identity_functor(WA))
    z = fiber_functor(p)
    assert all(len(z.on_objects[b]) == 1 for b in WA.objects)


def test_fiber_functor_round_trip_up_to_natural_iso():
    z = two_point_fibre_functor()
    back = fiber_functor(elements_of(z))
    assert setfunctor_iso(z, back) is not None


def test_elements_fiber_round_trip_over_walking_arrow():
    z = two_point_fibre_functor()
    p = elements_of(z)
    q = elements_of(fiber_functor(p))
    assert fib_iso_cat(p, q) is not None


def test_fib_hom_contains_identity_and_counts_match_nats():
    z = two_point_fibre_functor()
    p = elements_of(z)
    homs = fib_hom_cat(p, p)
    assert identity_functor(p.total) in homs
    # morphisms over the base correspond to natural transformations of the
    # fibre functors; cross-check the cardinality with the set-level oracle

    nats = enumerate_setfunctor_maps(fiber_functor(p), fiber_functor(p))
    assert len(homs) == len(nats)


def test_fib_hom_empty_when_fibres_incompatible():
    znon = two_point_fibre_functor()
    zempty = FinSetFunctor(
        WA,
        {"a": (), "b": ("y",)},
        {"id_a": {}, "id_b": {"y": "y"}, "u": {}},
    )
    zempty.validate()
    p, q = elements_of(znon), elements_of(zempty)
    assert fib_hom_cat(p, q) == []


def test_comma_universal_property_on_lax_limit_cone():
    omega = FinFunctor(PT, CHAIN3, {"*": "a"}, {"id_*": "id_a"})
    omega.validate()
    _, cone = lax_limit_of_arrow(omega)
    ok, ce = check_comma_universal(cone, omega, identity_functor(CHAIN3))
    assert ok, ce


def test_comma_universal_property_on_mixed_cone():
    pick_a = FinFunctor(PT, WA, {"*": "a"}, {"id_*": "id_a"})
    pick_a.validate()
    cone = comma(pick_a, identity_functor(WA))
    ok, ce = check_comma_universal(cone, pick_a, identity_functor(WA))
    assert ok, ce


def test_generated_names_that_collide_are_rejected():
    # "(a,b,c)" names both (a, "b,c") and ("a,b", c)
    P = poset_category(["a", "a,b"], [("a", "a,b")])
    z = FinSetFunctor(P, {"a": ("b,c",), "a,b": ("c",)},
                      {"a_a": {"b,c": "b,c"}, "a,b_a,b": {"c": "c"}, "a_a,b": {"b,c": "c"}})
    z.validate()
    with pytest.raises(InvalidTable, match=r"\('a', 'b,c'\) and \('a,b', 'c'\)"):
        elements_of(z)
    # pullback and comma apexes name their objects the same way
    E = discrete_category(["b,c", "c"])
    p = certify_dopf(FinFunctor(E, PT, {"b,c": "*", "c": "*"},
                                {"id_b,c": "id_*", "id_c": "id_*"}))
    A = discrete_category(["a", "a,b"])
    to_point = FinFunctor(A, PT, {"a": "*", "a,b": "*"}, {"id_a": "id_*", "id_a,b": "id_*"})
    with pytest.raises(InvalidTable, match=r"\('a', 'b,c'\) and \('a,b', 'c'\)"):
        pullback(p, to_point)
    with pytest.raises(InvalidTable, match=r"\('a', 'b,c', 'id_\*'\) and \('a,b', 'c', 'id_\*'\)"):
        comma(to_point, p.p)


def test_lift_and_transport_name_what_they_cannot_lift():
    from tck.errors import UnknownObject

    p = elements_of(two_point_fibre_functor())
    assert lift(p, "(a,x0)", "u") == "(u,x0)"
    assert transport(p, "(a,x0)", "u") == "(b,y)"
    for look in (lift, transport):
        with pytest.raises(UnknownObject):
            look(p, "nope", "u")
        with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
            look(p, "(a,x0)", "nope")
        # u leaves a, not b
        with pytest.raises(InvalidTable, match="does not leave"):
            look(p, "(b,y)", "u")
