"""Product-and-filter reference enumerations of maps.

The library finds natural maps between set functors, and fibred maps
between opfibrations, by pruned backtracking (``search_setfunctor_maps``,
``prestack.fib_hom``); ``search_presheaf_maps`` here runs the first of
these on the opposite base, for the tests that search presheaf maps.  The
other oracles here follow the definitions instead: they enumerate every
family of component functions, or every fibrewise object map, and keep
those that are natural.
The functor, natural-transformation, 2-natural and modification
enumerators assign every object and arrow and keep the assignments that are
functorial or natural.  The comma checker enumerates test cones out of
small categories and counts their mediating functors.  They are slow and
meant for small inputs only.
"""

import itertools

from tck.cat2 import CommaCone, DiscOpfibCat
from tck.errors import InvalidTable
from tck.fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinFunctor,
    FinSetFunctor,
    NatTransform,
    PresheafMap,
    SetFunctorMap,
    SetPresheaf,
    bounded_product,
    compose_functors,
    free_category,
    guard,
    opposite,
    point_category,
    search_setfunctor_maps,
)
from tck.prestack import CatPresheaf, Modification, TwoNat


# -- natural maps between set-valued functors ------------------------------------


def _enumerate_component_maps(sources, targets, bound: int):
    """All families of functions sources[k] -> targets[k], keyed by k."""
    keys = sorted(sources)
    per_key = []
    total = 1
    for k in keys:
        elems = sorted(sources[k])
        pool = sorted(targets[k])
        if elems and not pool:
            return []
        total *= max(1, len(pool)) ** len(elems)
        guard("component maps", total, bound)
        per_key.append([dict(zip(elems, img))
                        for img in itertools.product(pool, repeat=len(elems))])
    return (dict(zip(keys, combo)) for combo in itertools.product(*per_key))


def enumerate_presheaf_maps(Z: SetPresheaf, W: SetPresheaf,
                            bound: int = DEFAULT_BOUND) -> list[PresheafMap]:
    """All natural transformations Z => W, by product-and-filter."""
    if Z.base != W.base:
        raise InvalidTable("presheaf maps need a common base")
    base = Z.base
    out: list[PresheafMap] = []
    for comp in _enumerate_component_maps(
        {c: Z.on_objects[c] for c in base.objects},
        {c: W.on_objects[c] for c in base.objects},
        bound,
    ):
        if all(
            W.on_arrows[f][comp[c][x]] == comp[d][Z.on_arrows[f][x]]
            for f, (d, c) in base.arrows.items()
            for x in Z.on_objects[c]
        ):
            out.append(PresheafMap(Z, W, comp))
    return out


def presheaf_iso(Z: SetPresheaf, W: SetPresheaf,
                 bound: int = DEFAULT_BOUND) -> PresheafMap | None:
    if any(len(Z.on_objects[c]) != len(W.on_objects[c]) for c in Z.base.objects):
        return None
    for m in enumerate_presheaf_maps(Z, W, bound):
        if m.is_iso():
            return m
    return None


def enumerate_setfunctor_maps(A: FinSetFunctor, B: FinSetFunctor,
                              bound: int = DEFAULT_BOUND) -> list[SetFunctorMap]:
    if A.base != B.base:
        raise InvalidTable("set functor maps need a common base")
    base = A.base
    out: list[SetFunctorMap] = []
    for comp in _enumerate_component_maps(
        {c: A.on_objects[c] for c in base.objects},
        {c: B.on_objects[c] for c in base.objects},
        bound,
    ):
        if all(
            comp[c][A.on_arrows[f][x]] == B.on_arrows[f][comp[d][x]]
            for f, (d, c) in base.arrows.items()
            for x in A.on_objects[d]
        ):
            out.append(SetFunctorMap(A, B, comp))
    return out


def setfunctor_iso(A: FinSetFunctor, B: FinSetFunctor,
                   bound: int = DEFAULT_BOUND) -> SetFunctorMap | None:
    if any(len(A.on_objects[c]) != len(B.on_objects[c]) for c in A.base.objects):
        return None
    for m in enumerate_setfunctor_maps(A, B, bound):
        if m.is_iso():
            return m
    return None


def search_presheaf_maps(Z: SetPresheaf, W: SetPresheaf, bound: int = DEFAULT_BOUND,
                         iso_only: bool = False, limit: int | None = None) -> list[PresheafMap]:
    """Natural transformations Z => W by tck's backtracking search, in
    lexicographic order: a presheaf on C is a set functor on C^op, whose
    search forces images along the arrows of C^op out of an object, which
    are the arrows of C into it."""
    if Z.base != W.base:
        raise InvalidTable("presheaf maps need a common base")
    op = opposite(Z.base)
    A, B = (FinSetFunctor(op, X.on_objects, X.on_arrows) for X in (Z, W))
    return [PresheafMap(Z, W, m.components)
            for m in search_setfunctor_maps(A, B, bound, iso_only, limit,
                                            what="search_presheaf_maps nodes")]


# -- morphisms of opfibrations over a fixed base ---------------------------------


def fib_hom_cat(p: DiscOpfibCat, q: DiscOpfibCat,
                bound: int = DEFAULT_BOUND) -> list[FinFunctor]:
    """All functors over the common base from total(p) to total(q).

    Candidates are fibrewise object maps; the arrow map of any such functor
    is forced by unique lifting and then checked.
    """
    if p.base != q.base:
        raise InvalidTable("fib_hom_cat: different bases")
    B = p.base
    total = 1
    for b in B.objects:
        n, m = len(p.fibres[b]), len(q.fibres[b])
        if n > 0 and m == 0:
            return []
        total *= max(1, m) ** n
        guard("fib_hom_cat", total, bound)
    per_obj = []
    keys = []
    for b in sorted(B.objects):
        elems = list(p.fibres[b])
        keys.append(elems)
        per_obj.append([dict(zip(elems, img))
                        for img in itertools.product(q.fibres[b], repeat=len(elems))])
    out = []
    for combo in itertools.product(*per_obj):
        omap: dict[str, str] = {}
        for d in combo:
            omap.update(d)
        amap = {}
        ok = True
        for g, (e, e2) in p.total.arrows.items():
            base_arrow = p.p.on_arrows[g]
            lifted = q.lifts[(omap[e], base_arrow)]
            if q.total.cod(lifted) != omap[e2]:
                ok = False
                break
            amap[g] = lifted
        if not ok:
            continue
        h = FinFunctor(p.total, q.total, omap, amap)
        try:
            h.validate()
        except InvalidTable:
            continue
        if compose_functors(q.p, h) == p.p:
            out.append(h)
    return out


def fib_iso_cat(p: DiscOpfibCat, q: DiscOpfibCat,
                bound: int = DEFAULT_BOUND) -> FinFunctor | None:
    """Lexicographically first isomorphism over the base, if any."""
    if any(len(p.fibres[b]) != len(q.fibres[b]) for b in p.base.objects):
        return None
    for h in fib_hom_cat(p, q, bound):
        if all(
            len(set(h.on_objects[e] for e in p.fibres[b])) == len(q.fibres[b])
            for b in p.base.objects
        ):
            return h
    return None


# -- functors, natural transformations, 2-naturals and modifications ------------


def enumerate_functors(A: FinCat, B: FinCat, bound: int = DEFAULT_BOUND) -> list[FinFunctor]:
    """All functors A -> B, by brute force over object and arrow assignments."""
    objs = list(A.objects)
    nonid = [f for f in A.sorted_arrows() if not A.is_identity(f)]
    out: list[FinFunctor] = []
    for images in bounded_product("enumerate_functors object maps",
                                  [sorted(B.objects)] * len(objs), bound):
        omap = dict(zip(objs, images))
        homs = [B.hom(omap[A.dom(f)], omap[A.cod(f)]) for f in nonid]
        for choice in bounded_product("enumerate_functors arrow maps", homs, bound):
            amap = dict(zip(nonid, choice))
            for x in objs:
                amap[A.id_of(x)] = B.id_of(omap[x])
            if all(B.compose(amap[g], amap[f]) == amap[h]
                   for (g, f), h in A.compose_table.items()):
                out.append(FinFunctor(A, B, omap, amap))
    return out


def enumerate_nats(F: FinFunctor, G: FinFunctor, bound: int = DEFAULT_BOUND) -> list[NatTransform]:
    """All natural transformations between the parallel functors F and G."""
    if F.source != G.source or F.target != G.target:
        raise InvalidTable("enumerate_nats needs parallel functors")
    A, B = F.source, F.target
    objs = list(A.objects)
    homs = [B.hom(F.on_objects[x], G.on_objects[x]) for x in objs]
    out: list[NatTransform] = []
    for choice in bounded_product("enumerate_nats", homs, bound):
        comp = dict(zip(objs, choice))
        if all(
            B.compose(G.on_arrows[u], comp[x]) == B.compose(comp[y], F.on_arrows[u])
            for u, (x, y) in A.arrows.items()
        ):
            out.append(NatTransform(F, G, comp))
    return out


def natural_iso(F: FinFunctor, G: FinFunctor, bound: int = DEFAULT_BOUND) -> NatTransform | None:
    """Lexicographically first natural isomorphism F => G, if any."""
    for nat in enumerate_nats(F, G, bound):
        if all(F.target.is_invertible(a) for a in nat.components.values()):
            return nat
    return None


def enumerate_two_nats(F: CatPresheaf, G: CatPresheaf,
                       bound: int = DEFAULT_BOUND) -> list[TwoNat]:
    """All strict 2-natural transformations F => G, by product-and-filter."""
    if F.base != G.base:
        raise InvalidTable("presheaves on different sites")
    base = F.base
    objs = sorted(base.objects)
    per_obj = [enumerate_functors(F.on_objects[c], G.on_objects[c], bound) for c in objs]
    out = []
    for combo in bounded_product("enumerate_two_nats", per_obj, bound):
        comps = dict(zip(objs, combo))
        if all(
            compose_functors(G.on_arrows[f], comps[c]) ==
            compose_functors(comps[d], F.on_arrows[f])
            for f, (d, c) in base.arrows.items()
        ):
            out.append(TwoNat(F, G, comps))
    return out


def enumerate_modifications(z: TwoNat, w: TwoNat,
                            bound: int = DEFAULT_BOUND) -> list[Modification]:
    """All modifications z => w between parallel 2-naturals."""
    if z.source != w.source or z.target != w.target:
        raise InvalidTable("enumerate_modifications needs parallel 2-naturals")
    base = z.source.base
    objs = sorted(base.objects)
    per_obj = [enumerate_nats(z.components[c], w.components[c], bound) for c in objs]
    out = []
    for combo in bounded_product("enumerate_modifications", per_obj, bound):
        comps = dict(zip(objs, combo))
        m = Modification(z, w, comps)
        try:
            m.validate()
        except InvalidTable:
            continue
        out.append(m)
    return out


# -- universal property spot check ------------------------------------------------


def check_comma_universal(cone: CommaCone, f: FinFunctor, g: FinFunctor,
                          test_cats: list[FinCat] | None = None,
                          bound: int = DEFAULT_BOUND) -> tuple[bool, object]:
    """Verify the comma universal property against enumerated test cones.

    For every functor pair (a, b) out of each test category and every filler
    a-to-b transformation, exactly one mediating functor into the apex must
    exist.  Returns (ok, counterexample).
    """
    if test_cats is None:
        test_cats = [
            point_category(),
            free_category(["a", "b"], {"u": ("a", "b")}),
            free_category(["a", "b", "c"], {"u": ("a", "b"), "v": ("b", "c")}),
        ]
    A, B = f.source, g.source
    for T in test_cats:
        for a in enumerate_functors(T, A, bound):
            fa = compose_functors(f, a)
            for b in enumerate_functors(T, B, bound):
                gb = compose_functors(g, b)
                for lam in enumerate_nats(fa, gb, bound):
                    mediators = [
                        m
                        for m in enumerate_functors(T, cone.apex, bound)
                        if compose_functors(cone.left_leg, m) == a
                        and compose_functors(cone.right_leg, m) == b
                        and all(
                            cone.filler.components[m.on_objects[t]] == lam.components[t]
                            for t in T.objects
                        )
                    ]
                    if len(mediators) != 1:
                        return False, (T, a, b, lam, len(mediators))
    return True, None
