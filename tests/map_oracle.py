"""Product-and-filter reference enumerations of maps.

The library finds natural maps between set-valued functors, and fibred
maps between opfibrations, by pruned backtracking (``search_presheaf_maps``,
``search_setfunctor_maps``, ``prestack.fib_hom``).  The oracles here follow
the definitions instead: they enumerate every family of component
functions, or every fibrewise object map, and keep those that are natural.
The comma checker enumerates test cones out of small categories and counts
their mediating functors.  They are slow and meant for small inputs only.
"""

import itertools

from tck.cat2 import CommaCone, DiscOpfibCat
from tck.errors import InvalidTable
from tck.fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinFunctor,
    FinSetFunctor,
    PresheafMap,
    SetFunctorMap,
    SetPresheaf,
    compose_functors,
    enumerate_functors,
    enumerate_nats,
    free_category,
    guard,
    point_category,
)


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
