import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from category_strategies import generated_categories, idempotent_monoid, small_monoids
from map_oracle import (
    enumerate_functors,
    enumerate_nats,
    enumerate_presheaf_maps,
    natural_iso,
    presheaf_iso,
)
from test_cli import child_env
from tck import fincat
from tck.errors import (
    IllTypedComposite,
    InvalidTable,
    MissingIdentity,
    NonAssociative,
    SizeBound,
    UnknownObject,
)
from tck.fincat import (
    FinCat,
    FinFunctor,
    build_category,
    compose_functors,
    composition_table,
    discrete_category,
    free_category,
    identity_functor,
    opposite,
    point_category,
    postcompose,
    slice_cat,
)


PT = point_category()
WA = free_category(["a", "b"], {"u": ("a", "b")})
CHAIN3 = free_category(["a", "b", "c"], {"u": ("a", "b"), "v": ("b", "c")})


def test_point_category_is_valid():
    PT.validate()
    assert PT.objects == ("*",)
    assert len(PT.arrows) == 1


def test_walking_arrow_tables():
    WA.validate()
    assert set(WA.objects) == {"a", "b"}
    assert set(WA.arrows) == {"id_a", "id_b", "u"}
    assert WA.arrows["u"] == ("a", "b")


def test_build_category_rejects_ill_typed_composite():
    # compose(u, u) declared although cod(u) != dom(u)
    with pytest.raises(IllTypedComposite):
        build_category(
            ["a", "b"],
            {"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b")},
            {"a": "id_a", "b": "id_b"},
            {
                ("id_a", "id_a"): "id_a",
                ("id_b", "id_b"): "id_b",
                ("u", "id_a"): "u",
                ("id_b", "u"): "u",
                ("u", "u"): "u",
            },
        )


def test_build_category_rejects_missing_identity():
    with pytest.raises(MissingIdentity):
        build_category(["a"], {"e": ("a", "a")}, {}, {("e", "e"): "e"})


def test_build_category_rejects_broken_identity_law():
    # e plays identity but e.e = f
    with pytest.raises(MissingIdentity):
        build_category(
            ["a"],
            {"e": ("a", "a"), "f": ("a", "a")},
            {"a": "e"},
            {("e", "e"): "f", ("e", "f"): "f", ("f", "e"): "f", ("f", "f"): "f"},
        )


def test_build_category_rejects_non_associative():
    # Z/2-like table with one associativity defect: s.s = id, but (s.s).s
    # is declared as s while s.(s.s) resolves to s, so break it via a third
    # arrow t with inconsistent products.
    arrows = {"id": ("a", "a"), "s": ("a", "a"), "t": ("a", "a")}
    compose = {
        ("id", "id"): "id", ("id", "s"): "s", ("id", "t"): "t",
        ("s", "id"): "s", ("t", "id"): "t",
        ("s", "s"): "id", ("s", "t"): "id", ("t", "s"): "t", ("t", "t"): "s",
    }
    with pytest.raises(NonAssociative):
        build_category(["a"], arrows, {"a": "id"}, compose)


def first_non_associative_triple(cat):
    """The first failing triple of a scan over every composable triple,
    identities included, in the validator's order."""
    for f in cat.arrows:
        for g in cat.arrows_from(cat.cod(f)):
            gf = cat.compose(g, f)
            for h in cat.arrows_from(cat.cod(g)):
                if cat.compose(h, gf) != cat.compose(cat.compose(h, g), f):
                    return h, g, f
    return None


def one_object_table(order, products):
    """A one-object table on id, a, b with the identity laws and the given
    products of a and b, its arrows listed in the given order."""
    compose = dict(zip([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], products))
    for x in ("id", "a", "b"):
        compose[("id", x)] = compose[(x, "id")] = x
    return FinCat(("*",), {x: ("*", "*") for x in order}, {"*": "id"}, compose)


def test_validate_pins_the_first_non_associative_triple():
    # a.b = a and b.a = b, so (b.a).b = b.b = a while b.(a.b) = b.a = b
    cat = one_object_table(["id", "a", "b"], ["a", "a", "b", "a"])
    with pytest.raises(NonAssociative) as exc:
        cat.validate()
    assert exc.value.triple == ("b", "a", "b") == first_non_associative_triple(cat)


@settings(max_examples=60, deadline=None)
@given(st.permutations(["id", "a", "b"]), st.lists(st.sampled_from(["id", "a", "b"]),
                                                    min_size=4, max_size=4))
def test_validate_skips_identity_triples_but_reports_the_same_one(order, products):
    cat = one_object_table(order, products)
    expected = first_non_associative_triple(cat)
    if expected is None:
        cat.validate()
    else:
        with pytest.raises(NonAssociative) as exc:
            cat.validate()
        assert exc.value.triple == expected


def test_opposite_point_is_self_dual():
    assert opposite(PT) == PT


def test_opposite_reverses_walking_arrow():
    op = opposite(WA)
    assert op.arrows["u"] == ("b", "a")


def test_opposite_preserves_arrow_count_on_five_arrow_category():
    assert len(CHAIN3.arrows) == 6  # 3 ids + u + v + v*u
    op = opposite(CHAIN3)
    assert len(op.arrows) == len(CHAIN3.arrows)
    five = free_category(["a", "b", "c"], {"u": ("a", "b"), "w": ("a", "c")})
    assert len(five.arrows) == 5
    assert len(opposite(five).arrows) == 5


def test_opposite_is_involution_on_the_nose():
    for cat in (PT, WA, CHAIN3):
        assert opposite(opposite(cat)) == cat


def test_slice_walking_arrow_over_b():
    sl, dom = slice_cat(WA, "b")
    # oracle: objects are exactly the arrows into b
    assert set(sl.objects) == set(WA.arrows_into("b")) == {"id_b", "u"}
    non_id = [f for f in sl.arrows if not sl.is_identity(f)]
    assert len(non_id) == 1
    (g,) = non_id
    assert sl.arrows[g] == ("u", "id_b")
    assert dom.on_arrows[g] == "u"


def test_slice_over_object_with_no_incoming_is_point():
    sl, _ = slice_cat(WA, "a")
    assert len(sl.objects) == 1 and len(sl.arrows) == 1


def test_slice_of_point_is_point():
    sl, _ = slice_cat(PT, "*")
    assert len(sl.objects) == 1 and len(sl.arrows) == 1


def test_slice_unknown_object():
    with pytest.raises(UnknownObject):
        slice_cat(WA, "zzz")


def test_slice_dom_compatibility():
    for cat, c in ((WA, "b"), (CHAIN3, "c"), (CHAIN3, "b")):
        sl, dom = slice_cat(cat, c)
        sl.validate()
        dom.validate()
        for f in sl.objects:
            for g in cat.arrows_into(cat.dom(f)):
                assert dom.on_arrows[fincat.slice_arrow_name(g, f)] == g


def test_postcompose_identity_is_identity_functor():
    for cat, c in ((WA, "b"), (CHAIN3, "b")):
        sl, _ = slice_cat(cat, c)
        assert postcompose(cat, cat.id_of(c)) == identity_functor(sl)


def test_postcompose_on_single_object_slice():
    fun = postcompose(WA, "u")
    assert fun.on_objects == {"id_a": "u"}


def test_postcompose_respects_composition_on_chain():
    # postcompose(v.u) = postcompose(v) . postcompose(u) on a 3-object chain
    lhs = postcompose(CHAIN3, "v*u")
    rhs = compose_functors(postcompose(CHAIN3, "v"), postcompose(CHAIN3, "u"))
    assert lhs == rhs


def _raw_functor_count(A, B):
    """Independent oracle: filter all raw object/arrow maps."""
    count = 0
    objs, arrs = list(A.objects), list(A.arrows)
    for ob_imgs in itertools.product(B.objects, repeat=len(objs)):
        omap = dict(zip(objs, ob_imgs))
        for ar_imgs in itertools.product(B.arrows, repeat=len(arrs)):
            amap = dict(zip(arrs, ar_imgs))
            if any(B.arrows[amap[f]] != (omap[A.dom(f)], omap[A.cod(f)]) for f in arrs):
                continue
            if any(amap[A.id_of(x)] != B.id_of(omap[x]) for x in objs):
                continue
            if any(B.compose(amap[g], amap[f]) != amap[h]
                   for (g, f), h in A.compose_table.items()):
                continue
            count += 1
    return count


@pytest.mark.parametrize(
    "A,B,expected",
    [
        (PT, WA, 2),   # one functor per object of WA
        (WA, PT, 1),   # target terminal
        (WA, WA, 3),   # a->a, b->b picks u or id; plus the two constants = 3
    ],
)
def test_enumerate_functors_counts(A, B, expected):
    got = enumerate_functors(A, B)
    assert len(got) == expected == _raw_functor_count(A, B)
    for F in got:
        F.validate()
    # no duplicates
    assert len(set(map(repr, got))) == len(got)


def test_enumerate_functors_size_bound():
    with pytest.raises(SizeBound):
        enumerate_functors(CHAIN3, CHAIN3, bound=2)


def test_enumerate_nats_identity_point():
    idp = identity_functor(PT)
    nats = enumerate_nats(idp, idp)
    assert len(nats) == 1
    assert nats[0].components == {"*": "id_*"}


def test_enumerate_nats_between_constants():
    # between constant functors at a and b on CHAIN3: components drawn from
    # Hom(a, b) with naturality automatic (domain WA)
    const_a = FinFunctor(WA, CHAIN3,
                         {"a": "a", "b": "a"},
                         {"id_a": "id_a", "id_b": "id_a", "u": "id_a"})
    const_b = FinFunctor(WA, CHAIN3,
                         {"a": "b", "b": "b"},
                         {"id_a": "id_b", "id_b": "id_b", "u": "id_b"})
    const_a.validate()
    const_b.validate()
    nats = enumerate_nats(const_a, const_b)
    assert len(nats) == len(CHAIN3.hom("a", "b")) == 1
    for n in nats:
        n.validate()


def test_natural_iso_reflexive():
    F = identity_functor(WA)
    iso = natural_iso(F, F)
    assert iso is not None
    assert iso.components == {"a": "id_a", "b": "id_b"}


def test_natural_iso_absent_when_u_not_invertible():
    pick_a = FinFunctor(PT, WA, {"*": "a"}, {"id_*": "id_a"})
    pick_b = FinFunctor(PT, WA, {"*": "b"}, {"id_*": "id_b"})
    assert natural_iso(pick_a, pick_b) is None


def test_natural_iso_present_for_relabelled_discrete_image():
    D = discrete_category(["x", "y"])
    F = FinFunctor(D, D, {"x": "x", "y": "y"}, {"id_x": "id_x", "id_y": "id_y"})
    G = FinFunctor(D, D, {"x": "y", "y": "x"}, {"id_x": "id_y", "id_y": "id_x"})
    F.validate()
    G.validate()
    assert natural_iso(F, F) is not None
    # F and G are not isomorphic as functors (components would need x->y arrows)
    assert natural_iso(F, G) is None


def test_presheaf_map_enumeration_counts_functions():
    Z = fincat.constant_presheaf(WA, ["0", "1"])
    W = fincat.constant_presheaf(WA, ["p"])
    maps = enumerate_presheaf_maps(Z, W)
    assert len(maps) == 1
    back = enumerate_presheaf_maps(W, Z)
    # a natural map picks one element consistently at a and b: the constant
    # diagrams force equal components along u
    assert len(back) == 2


def test_free_category_rejects_cycles():
    with pytest.raises(InvalidTable):
        free_category(["a", "b"], {"u": ("a", "b"), "v": ("b", "a")})
    with pytest.raises(InvalidTable):
        free_category(["a"], {"e": ("a", "a")})


def test_free_category_checks_long_graphs_without_recursion_and_bounds_its_size():
    # a chain of 1,200 objects is acyclic and has 288,720,400 composites,
    # counted before any path is listed; closing it into a cycle is found
    # by the same walk.  A recursive walk raised RecursionError on both
    objs = [f"c{i:04d}" for i in range(1200)]
    gens = {f"s{i:04d}": (objs[i], objs[i + 1]) for i in range(1199)}
    with pytest.raises(SizeBound) as exc:
        free_category(objs, gens)
    assert (exc.value.what, exc.value.estimate) == ("free_category composites", 288_720_400)
    with pytest.raises(InvalidTable, match="cycle"):
        free_category(objs, {**gens, "back": (objs[-1], objs[0])})
    # n pairs of parallel generators in a row give 2^(n+2) - n - 3 arrows
    # and a composite count that doubles per pair; 11 pairs stay under the
    # bound, 15 do not
    for n, composites in ((11, 81_936), (15, 1_835_028)):
        objs = [f"x{i:02d}" for i in range(n + 1)]
        pairs = {f"{g}{i:02d}": (objs[i], objs[i + 1]) for i in range(n) for g in "ab"}
        if composites <= 10 ** 6:
            cat = free_category(objs, pairs)
            assert (len(cat.arrows), len(cat.compose_table)) == (8_178, composites)
            continue
        with pytest.raises(SizeBound) as exc:
            free_category(objs, pairs)
        assert (exc.value.what, exc.value.estimate) == ("free_category composites", composites)


def test_free_category_square_commutes_by_construction():
    sq = free_category(["p", "q", "r", "s"],
                       {"f": ("p", "q"), "g": ("p", "r"), "h": ("q", "s"), "k": ("r", "s")})
    # in the free category the two paths p -> s are distinct arrows
    assert len(sq.hom("p", "s")) == 2


def test_free_category_refuses_a_generator_named_like_a_composite(tmp_path):
    # the generator h*g and the composite of g and h would be one arrow
    gens = {"g": ("x", "y"), "h": ("y", "z"), "h*g": ("x", "z")}
    with pytest.raises(InvalidTable, match="generated name 'h\\*g' is shared"):
        free_category(["x", "y", "z"], gens)
    with pytest.raises(InvalidTable, match="duplicate object identifiers"):
        free_category(["x", "y", "x"], {"g": ("x", "y")})
    from test_cli import assert_clean_usage_error, tck

    path = tmp_path / "clash.site"
    path.write_text("\n\ncategory C freely-generate\n  objects x y z\n"
                    + "".join(f"  arrow {g} : {d} -> {c}\n" for g, (d, c) in gens.items())
                    + "end\n")
    res = tck("validate", str(path))
    assert_clean_usage_error(res)
    assert res.stderr.startswith("error: line 3: generated name 'h*g' is shared")


def test_free_category_trusts_its_table(monkeypatch):
    # concatenation of paths is associative and the empty path is a unit,
    # so the table is not scanned again; the result reads as validated
    calls = []
    monkeypatch.setattr(FinCat, "validate", lambda self: calls.append(self))
    cat = free_category(["p", "q", "r", "s"],
                        {"f": ("p", "q"), "g": ("p", "r"), "h": ("q", "s"), "k": ("r", "s")})
    assert calls == []
    assert cat.__dict__.get("_valid") is True
    assert (len(cat.arrows), len(cat.compose_table)) == (10, 18)


@st.composite
def small_categories(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return PT
    if kind == 1:
        return WA
    if kind == 2:
        return CHAIN3
    return discrete_category(["x", "y", "z"])


@settings(max_examples=20, deadline=None)
@given(small_categories())
def test_validate_accepts_all_constructed(cat):
    cat.validate()
    opposite(cat).validate()
    for c in cat.objects:
        sl, dom = slice_cat(cat, c)
        sl.validate()
        dom.validate()


@settings(max_examples=20, deadline=None)
@given(small_categories(), st.data())
def test_slice_objects_are_arrows_into(cat, data):
    c = data.draw(st.sampled_from(sorted(cat.objects)))
    sl, _ = slice_cat(cat, c)
    assert set(sl.objects) == {f for f in cat.arrows if cat.cod(f) == c}


def test_reindex_is_precomposition_with_postcompose():
    from fixture_corpus import open_site
    from tck.corpus import presheaf_corpus
    from tck.fincat import SetPresheaf, reindex_slice_presheaf

    OS = open_site()
    for f in ("L_T", "O_T", "T_T"):
        d = OS.dom(f)
        sl_c, _ = slice_cat(OS, OS.cod(f))
        sl_d, _ = slice_cat(OS, d)
        post = postcompose(OS, f)
        for Z in presheaf_corpus(sl_c, 4):
            via_functor = SetPresheaf(
                sl_d,
                {g: Z.on_objects[post.on_objects[g]] for g in sl_d.objects},
                {a: dict(Z.on_arrows[post.on_arrows[a]]) for a in sl_d.arrows},
            )
            via_functor.validate()
            assert reindex_slice_presheaf(OS, f, Z) == via_functor


def test_reindexing_carries_the_validity_record_of_its_input():
    # f*Z is Z after the functor postcompose(f): valid when Z is
    from fixture_corpus import open_site
    from tck.corpus import presheaf_corpus
    from tck.fincat import SetPresheaf, reindex_slice_presheaf

    OS = open_site()
    for f, (_, c) in OS.arrows.items():
        sl_c, _ = slice_cat(OS, c)
        for Z in presheaf_corpus(sl_c, 4):
            fresh = SetPresheaf(Z.base, Z.on_objects, Z.on_arrows)
            assert "_valid" not in reindex_slice_presheaf(OS, f, fresh).__dict__
            Z.validate()
            pulled = reindex_slice_presheaf(OS, f, Z)
            assert "_valid" in pulled.__dict__
            SetPresheaf(pulled.base, pulled.on_objects, pulled.on_arrows).validate()


def _with_slices(cats):
    for cat in cats:
        yield cat
        for c in cat.objects:
            yield slice_cat(cat, c)[0]


def test_hom_index_equals_scan_definitions():
    from fixture_corpus import bases, square

    for cat in _with_slices(list(bases().values()) + [square()]):
        for a in cat.objects + ("not-an-object",):
            assert cat.arrows_into(a) == tuple(
                sorted(f for f, (_, c) in cat.arrows.items() if c == a))
            assert cat.arrows_from(a) == tuple(
                sorted(f for f, (d, _) in cat.arrows.items() if d == a))
            for b in cat.objects:
                assert cat.hom(a, b) == tuple(
                    sorted(f for f, (d, c) in cat.arrows.items() if d == a and c == b))


def test_hom_index_and_slices_stay_out_of_equality_and_repr():
    from fixture_corpus import open_site

    used, fresh = open_site(), open_site()
    used.hom("O", "T")
    sl, _ = slice_cat(used, "T")
    assert used == fresh and repr(used) == repr(fresh)
    assert slice_cat(used, "T")[0] is sl
    # each instance keeps its own slices
    assert slice_cat(fresh, "T")[0] is not sl
    assert slice_cat(fresh, "T")[0] == sl


def test_slices_die_with_their_base():
    import gc
    import weakref

    from fixture_corpus import open_site, open_site_topology
    from tck.site import slice_topology

    cat = open_site()
    j = open_site_topology()
    refs = [weakref.ref(x) for x in (cat, slice_cat(cat, "T")[0], j, slice_topology(j, "T"))]
    assert slice_topology(j, "T") is refs[3]()
    del cat, j
    gc.collect()
    assert [r() for r in refs] == [None] * 4


def test_slicing_leaves_no_reference_cycles():
    # under DEBUG_SAVEALL a collection keeps what it frees in gc.garbage; a
    # cached projection targets the category it is cached on, a cycle
    import gc

    from tck.corpus import poset_category

    names = ["0", "a", "b", "ab"]
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[saved:]
        cat = poset_category(names, [("0", "a"), ("0", "b"), ("a", "ab"), ("b", "ab")])
        for c in cat.objects:
            sl, proj = slice_cat(cat, c)
            assert slice_cat(cat, c)[0] is sl and proj.target is cat
            proj.validate()
        del cat, sl, proj
        gc.collect()
        cyclic = sorted({type(o).__name__ for o in gc.garbage[saved:]
                         if isinstance(o, (FinCat, FinFunctor))})
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    assert cyclic == []


def _old_reindex(cat, f, Z):
    """reindex_slice_presheaf as defined before postcomposition tables."""
    d, _ = cat.arrows[f]
    sl_d, _ = slice_cat(cat, d)
    return fincat.SetPresheaf(
        sl_d,
        {g: Z.on_objects[cat.compose(f, g)] for g in sl_d.objects},
        {
            fincat.slice_arrow_name(h, g):
                Z.on_arrows[fincat.slice_arrow_name(h, cat.compose(f, g))]
            for g in sl_d.objects
            for h in cat.arrows_into(cat.dom(g))
        },
    )


def test_postcomposition_tables_reindex_as_the_definition():
    from fixture_corpus import bases, square
    from tck.corpus import presheaf_corpus

    for cat in list(bases().values()) + [square()]:
        for f in cat.sorted_arrows():
            sl_c, _ = slice_cat(cat, cat.cod(f))
            sl_d, _ = slice_cat(cat, cat.dom(f))
            post = postcompose(cat, f)
            assert post.on_objects == {g: cat.compose(f, g) for g in sl_d.objects}
            assert set(post.on_arrows) == set(sl_d.arrows)
            zs = presheaf_corpus(sl_c, 3)
            for Z in zs:
                assert fincat.reindex_slice_presheaf(cat, f, Z) == _old_reindex(cat, f, Z)
            for m in fincat.search_presheaf_maps(zs[0], zs[-1]):
                old = {g: m.components[cat.compose(f, g)] for g in sl_d.objects}
                assert fincat.reindex_slice_presheaf_map(cat, f, m).components == old


def _presheaf_pairs():
    from fixture_corpus import bases
    from tck.corpus import presheaf_corpus

    for cat in bases().values():
        zs = presheaf_corpus(cat, 5)
        for Z in zs:
            for W in zs:
                yield Z, W


def test_search_presheaf_maps_lists_the_product_filter_maps_in_order():
    for Z, W in _presheaf_pairs():
        brute = enumerate_presheaf_maps(Z, W)
        assert [m.components for m in fincat.search_presheaf_maps(Z, W)] == \
            [m.components for m in brute]
        isos = [m.components for m in brute if m.is_iso()]
        assert [m.components for m in fincat.search_presheaf_maps(Z, W, iso_only=True)] == isos
        first = fincat.search_presheaf_maps(Z, W, iso_only=True, limit=1)
        iso = presheaf_iso(Z, W)
        assert (first[0].components if first else None) == \
            (iso.components if iso is not None else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=4), st.integers(0, 30))
def test_bounded_product_trips_exactly_above_the_tuple_count(pools, bound):
    count = 1
    for pool in pools:
        count *= len(pool)
    if count > bound:
        with pytest.raises(SizeBound) as exc:
            fincat.bounded_product("pools", pools, bound)
        assert (exc.value.what, exc.value.estimate) == ("pools", count)
    else:
        assert list(fincat.bounded_product("pools", pools, bound)) == \
            list(itertools.product(*pools))


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_categories(), small_monoids()))
def test_composition_table_finds_exactly_the_composable_pairs(cat):
    # validate guarantees compose_table is defined exactly on composable pairs
    assert composition_table(cat.arrows, cat.compose) == cat.compose_table


def test_composition_table_lists_pairs_in_the_order_of_a_then_b():
    from fixture_corpus import bases

    for cat in (idempotent_monoid(), *bases().values()):
        table = composition_table(cat.arrows, cat.compose)
        assert table == cat.compose_table
        assert list(table) == [(b, a) for a, (_, c) in cat.arrows.items()
                               for b, (d, _) in cat.arrows.items() if c == d]


def test_slices_compose_once_per_arrow_and_once_per_composable_pair(monkeypatch):
    from tck.corpus import poset_category

    # the opens of the discrete 4-point space: 16 slices, 256 slice arrows
    # (chains x <= y <= c) and 625 composable pairs of them (x <= y <= z <= c)
    name = {m: format(m, "04b") for m in range(16)}
    cat = poset_category(name.values(), [(name[a], name[b]) for a in name for b in name
                                         if a != b and a & ~b == 0])
    composed = []
    compose = FinCat.compose
    monkeypatch.setattr(FinCat, "compose",
                        lambda self, g, f: composed.append((g, f)) or compose(self, g, f))
    slices = [slice_cat(cat, c)[0] for c in cat.objects]
    assert sum(len(sl.arrows) for sl in slices) == 256
    assert sum(len(sl.compose_table) for sl in slices) == 625
    assert len(composed) == 256 + 625


def _reachable(objs, edges):
    """The pairs (a, b) with a path from a to b, by depth-first search."""
    succ = {a: [b for x, b in edges if x == a] for a in objs}
    pairs = set()
    for a in objs:
        stack, seen = [a], {a}
        while stack:
            x = stack.pop()
            pairs.add((a, x))
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations([f"o{i}" for i in range(n)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] < e[1]), max_size=8))))
def test_poset_category_closes_to_the_reachable_pairs(drawn):
    from tck.corpus import poset_category

    # a DAG: edges go up a random linear order of the objects
    order, edges = drawn
    pairs = [(order[i], order[k]) for i, k in edges]
    cat = poset_category(order, pairs)
    reach = _reachable(order, pairs)
    assert cat.arrows == {f"{a}_{b}": (a, b) for a, b in sorted(reach)}
    assert len(cat.compose_table) == sum(
        1 for a, b in reach for b2, c in reach if b == b2)


def test_poset_category_refuses_a_two_cycle():
    from tck.corpus import poset_category

    with pytest.raises(InvalidTable, match="^not a poset: antisymmetry fails$"):
        poset_category(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])


def test_searches_name_themselves_when_they_trip_the_bound():
    from tck.corpus import constant_setfunctor

    Z = fincat.constant_presheaf(WA, ["0", "1"])
    with pytest.raises(SizeBound) as exc:
        fincat.search_presheaf_maps(Z, Z, bound=1)
    assert exc.value.what == "search_presheaf_maps nodes"
    A = constant_setfunctor(WA, ["0", "1"])
    with pytest.raises(SizeBound) as exc:
        fincat.search_setfunctor_maps(A, A, bound=1)
    assert exc.value.what == "search_setfunctor_maps nodes"


def test_search_runs_deeper_than_the_recursion_limit():
    # 1,200 elements at one object are 1,200 variables in one search; a
    # search that recursed once per variable raised RecursionError here
    elems = tuple(f"x{i:04d}" for i in range(1200))
    A = fincat.FinSetFunctor(PT, {"*": elems}, {"id_*": {x: x for x in elems}})
    A.validate()
    (m,) = fincat.search_setfunctor_maps(A, A, limit=1)
    assert m.components == {"*": dict.fromkeys(elems, elems[0])}
    Z = fincat.SetPresheaf(PT, A.on_objects, A.on_arrows)
    (m,) = fincat.search_presheaf_maps(Z, Z, limit=1)
    assert m.components == {"*": dict.fromkeys(elems, elems[0])}


def test_ill_typed_composite_names_the_same_pair_under_every_hash_seed():
    # g.f and g.k are both missing; the pair reported used to follow set order
    code = (
        "from tck.errors import IllTypedComposite\n"
        "from tck.fincat import build_category\n"
        "arrows = {'id_a': ('a', 'a'), 'id_b': ('b', 'b'), 'id_c': ('c', 'c'),\n"
        "          'f': ('a', 'b'), 'k': ('a', 'b'), 'g': ('b', 'c')}\n"
        "ids = {x: 'id_' + x for x in 'abc'}\n"
        "compose = {(ids[arrows[f][1]], f): f for f in arrows}\n"
        "compose.update({(f, ids[arrows[f][0]]): f for f in arrows})\n"
        "try:\n"
        "    build_category('abc', arrows, ids, compose)\n"
        "except IllTypedComposite as exc:\n"
        "    print(exc)\n"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=child_env(PYTHONHASHSEED=str(seed)),
                       check=True).stdout
        for seed in range(1, 7)
    }
    assert len(outs) == 1
    (out,) = outs
    assert "'g'" in out and "'f'" in out and "'k'" not in out


def test_postcompose_along_an_unknown_arrow_raises_invalid_table():
    with pytest.raises(InvalidTable, match="unknown arrow 'nope'"):
        postcompose(WA, "nope")
    # a cached arrow still reads its table
    assert postcompose(WA, "u").on_objects == {"id_a": "u"}
