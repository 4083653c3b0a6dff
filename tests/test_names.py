"""One string per name: constructions intern the names they store.

The endpoints, identities and composites of a category that a
construction builds, and the keys and values of a functor it builds, must
be the very strings (``is``) that the categories involved are keyed by:
objects as ``objects`` holds them, arrows as ``arrows`` is keyed by them.
Equal names formatted afresh for each table are what this rules out.
"""

import pytest

from fixture_corpus import (
    bases,
    catpresheaf_corpus,
    map_to_omega_corpus,
    square,
    trivial_topology,
)
from tck import cat2, classifier, fincat, prestack, site
from tck.corpus import setfunctor_corpus

CATEGORIES = {**bases(), "square": square()}


def keyed(cat) -> tuple[dict, dict]:
    """Each object and arrow name of cat, keyed by itself."""
    return {o: o for o in cat.objects}, {a: a for a in cat.arrows}


def unshared_names(cat) -> list:
    """The names cat stores that equal, but are not, the name it is keyed by."""
    objs, arrs = keyed(cat)
    out = []
    for d, c in cat.arrows.values():
        out += [x for x in (d, c) if x is not objs[x]]
    for o, i in cat.identities.items():
        out += [n for n, names in ((o, objs), (i, arrs)) if n is not names[n]]
    for (g, f), h in cat.compose_table.items():
        out += [x for x in (g, f, h) if x is not arrs[x]]
    return out


def unshared_entries(fun) -> list:
    """The keys and values of fun that are not the names of its source and
    target they equal."""
    (so, sa), (to, ta) = keyed(fun.source), keyed(fun.target)
    out = []
    for table, src, tgt in ((fun.on_objects, so, to), (fun.on_arrows, sa, ta)):
        for x, y in table.items():
            out += [n for n, names in ((x, src), (y, tgt)) if n is not names[n]]
    return out


def unshared_lifts(p) -> list:
    """The lift-table entries of a certificate that are not its total's names."""
    objs, arrs = keyed(p.total)
    return [(e, g) for (e, _), g in p.lifts.items() if e is not objs[e] or g is not arrs[g]]


def assert_one_string_per_name(p) -> None:
    assert unshared_names(p.total) == []
    assert unshared_entries(p.p) == []
    assert unshared_lifts(p) == []


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_elements_of_stores_one_string_per_name(name):
    for A in setfunctor_corpus(CATEGORIES[name], 4):
        assert_one_string_per_name(cat2.elements_of(A))


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_slices_postcompositions_and_slice_topologies_store_one_string_per_name(name):
    cat = CATEGORIES[name]
    j = trivial_topology(cat)
    for c in cat.objects:
        sl = fincat._slice_of(cat, c)
        assert unshared_names(sl) == []
        _, arrs = keyed(sl)
        assert all(g is arrs[g] for s in site.slice_topology(j, c).minimal.values()
                   for g in s.arrows)
    for f in cat.arrows:
        assert unshared_entries(fincat.postcompose(cat, f)) == []


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_categories_of_elements_and_their_slice_tables_store_one_string_per_name(name):
    base = CATEGORIES[name]
    presheaves = catpresheaf_corpus(base, 4) + [prestack.representable(base, c)
                                                for c in base.objects]
    for F in presheaves:
        el, obj_parts, parts = F._elements
        assert unshared_names(el) == []
        objs, arrs = keyed(el)
        assert all(o is objs[o] for o in obj_parts) and all(n is arrs[n] for n in parts)
        objects, arrows, verticals = F._slice_elements
        for (c, _), names in arrows.items():
            _, slice_arrows = keyed(fincat._slice_of(base, c))
            assert all(a is slice_arrows[a] and n is arrs[n] for a, n in names.items())
        assert all(o is objs[o] for names in objects.values() for o in names.values())
        assert all(n is arrs[n] for names in verticals.values() for n in names.values())


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_classify_and_gamma_share_names_through_elements_functor(name):
    base = CATEGORIES[name]
    for F in catpresheaf_corpus(base, 3):
        if not prestack.elements_category(F).objects:
            continue
        for z in map_to_omega_corpus(F, 2):
            phi = classifier.classify(z)
            for p in phi.certificates.values():
                assert_one_string_per_name(p)
            for f in base.arrows:
                assert unshared_entries(phi.total.on_arrows[f]) == []
            alpha = classifier.find_omega_iso(z, z)
            for comp in classifier.gamma_mod(alpha).components.values():
                assert unshared_entries(comp) == []


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_pullbacks_commas_and_lax_limits_store_one_string_per_name(name):
    cat = CATEGORIES[name]
    ident = fincat.identity_functor(cat)
    cone = cat2.comma(ident, ident)
    assert unshared_names(cone.apex) == []
    assert unshared_entries(cone.left_leg) == [] and unshared_entries(cone.right_leg) == []
    pt = fincat.point_category()
    for c in cat.objects:
        omega = fincat.FinFunctor(pt, cat, {"*": c}, {"id_*": cat.id_of(c)})
        assert_one_string_per_name(cat2.lax_limit_of_arrow(omega)[0])
    for A in setfunctor_corpus(cat, 2):
        q, top = cat2.pullback_named(cat2.elements_of(A), ident)
        assert_one_string_per_name(q)
        assert unshared_entries(top) == []
