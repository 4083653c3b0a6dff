"""Reference implementations for the classifier layer.

``tck.classifier`` searches omega-modifications as natural maps between
fibre functors on the category of elements.  The oracles here follow the
definitions instead: the modification oracle enumerates every presheaf map
at every key of the derived parts with the product-and-filter enumerator
and filters by naturality in X and the reindexing axiom, and the
comma-style construction builds the classified opfibration from enumerated
maps out of the constant singleton rather than from the fibre formula.
The hand-glued opfibration of a set functor on the category of elements
spells the element and pair names itself rather than classifying.
They are slow and meant for small inputs only.
"""

from dataclasses import dataclass
from typing import Mapping

from map_oracle import enumerate_presheaf_maps
from tck import cat2
from tck.classifier import MapToOmega
from tck.errors import InvalidTable
from tck.fincat import (
    DEFAULT_BOUND,
    FinFunctor,
    FinSetFunctor,
    PresheafMap,
    compose_presheaf_maps,
    constant_presheaf,
    guard,
    reindex_slice_presheaf_map,
    slice_cat,
)
from tck.prestack import (
    CatPresheaf,
    DiscOpfibPre,
    TwoNat,
    certify_dopf_pre,
    elements_category,
)


def classify_via_hom_enumeration(z: MapToOmega,
                                 bound: int = DEFAULT_BOUND) -> DiscOpfibPre:
    """Comma-style construction of the classified opfibration.

    Independently of the fibre formula, objects over (c, X) are the
    enumerated natural maps from the constant singleton into the assigned
    presheaf; this cross-validates classify on small inputs.
    """
    site = z.site
    F = z.source

    def enc(m: PresheafMap) -> str:
        return repr(sorted((c, tuple(sorted(t.items()))) for c, t in m.components.items()))

    homs: dict[tuple[str, str], list[PresheafMap]] = {}
    for c in site.objects:
        sl, _ = slice_cat(site, c)
        d1 = constant_presheaf(sl, "*")
        for x in F.on_objects[c].objects:
            homs[(c, x)] = enumerate_presheaf_maps(d1, z.object_part[(c, x)], bound)
    labels = {
        key: {enc(m): f"h{i}" for i, m in enumerate(sorted(maps, key=enc))}
        for key, maps in homs.items()
    }
    comps = {}
    cats = {}
    for c in site.objects:
        Fc = F.on_objects[c]
        sets = {x: tuple(sorted(labels[(c, x)].values())) for x in Fc.objects}
        acts = {}
        for nu in Fc.arrows:
            x = Fc.dom(nu)
            table = {}
            for m in homs[(c, x)]:
                m2 = compose_presheaf_maps(z.arrow_part[(c, nu)], m)
                table[labels[(c, x)][enc(m)]] = labels[(c, Fc.cod(nu))][enc(m2)]
            acts[nu] = table
        bc = FinSetFunctor(Fc, sets, acts)
        bc.validate()
        cats[c] = cat2.elements_of(bc)
        comps[c] = cats[c].p
    on_arrows = {}
    for f, (d, c) in site.arrows.items():
        src, tgt = cats[c].total, cats[d].total
        on_objects = {}
        arr_map = {}
        inv = {key: {v: k for k, v in lab.items()} for key, lab in labels.items()}
        by_enc = {key: {enc(m): m for m in maps} for key, maps in homs.items()}
        for o in src.objects:
            x = comps[c].on_objects[o]
            t = o[2 + len(x):-1]
            m = by_enc[(c, x)][inv[(c, x)][t]]
            fx = F.on_arrows[f].on_objects[x]
            m2 = reindex_slice_presheaf_map(site, f, m)
            on_objects[o] = f"({fx},{labels[(d, fx)][enc(m2)]})"
        for name, (o1, _) in src.arrows.items():
            nu = comps[c].on_arrows[name]
            x = comps[c].on_objects[o1]
            t = o1[2 + len(x):-1]
            m = by_enc[(c, x)][inv[(c, x)][t]]
            m2 = reindex_slice_presheaf_map(site, f, m)
            fx = F.on_arrows[f].on_objects[x]
            arr_map[name] = f"({F.on_arrows[f].on_arrows[nu]},{labels[(d, fx)][enc(m2)]})"
        fun = FinFunctor(src, tgt, on_objects, arr_map)
        fun.validate()
        on_arrows[f] = fun
    G = CatPresheaf(site, {c: cats[c].total for c in site.objects}, on_arrows)
    G.validate()
    s = TwoNat(G, F, comps)
    s.validate()
    return certify_dopf_pre(s)


def dopf_from_set_functor_by_hand(F, B: FinSetFunctor) -> DiscOpfibPre:
    """Glue pointwise categories of elements into a certified opfibration over F.

    B is a covariant set functor on elements_category(F); the result has
    fibre B(<c|X>) over (c, X).  This is the hand-glued reference for
    tck.corpus.dopf_from_set_functor, which classifies the map into the
    classifier whose fibre functor is B: it spells the element names and
    takes the pair names of cat2.elements_of apart itself.
    """
    base = F.base
    el = elements_category(F)
    if B.base != el:
        raise InvalidTable("set functor does not live on elements_category(F)")

    def vert(c: str, nu: str, x: str) -> str:
        return f"<{base.id_of(c)}|{nu}|{x}>"

    def restr(f: str, x: str) -> str:
        d = base.dom(f)
        fx = F.on_arrows[f].on_objects[x]
        return f"<{f}|{F.on_objects[d].id_of(fx)}|{x}>"

    comps = {}
    totals = {}
    for c in base.objects:
        Fc = F.on_objects[c]
        bc = FinSetFunctor(
            Fc,
            {x: B.on_objects[f"<{c}|{x}>"] for x in Fc.objects},
            {nu: dict(B.on_arrows[vert(c, nu, Fc.dom(nu))]) for nu in Fc.arrows},
        )
        bc.validate()
        totals[c] = cat2.elements_of(bc)
        comps[c] = totals[c].p
    on_arrows = {}
    for f, (d, c) in base.arrows.items():
        src, tgt = totals[c].total, totals[d].total
        on_objects = {}
        for o in src.objects:
            x = comps[c].on_objects[o]
            t = o[1 + len(x) + 1:-1]
            on_objects[o] = f"({F.on_arrows[f].on_objects[x]},{B.on_arrows[restr(f, x)][t]})"
        arr_map = {}
        for name, (o1, _) in src.arrows.items():
            nu = comps[c].on_arrows[name]
            x = comps[c].on_objects[o1]
            t = o1[1 + len(x) + 1:-1]
            arr_map[name] = (
                f"({F.on_arrows[f].on_arrows[nu]},{B.on_arrows[restr(f, x)][t]})"
            )
        fun = FinFunctor(src, tgt, on_objects, arr_map)
        fun.validate()
        on_arrows[f] = fun
    G = CatPresheaf(base, {c: totals[c].total for c in base.objects}, on_arrows)
    G.validate()
    s = TwoNat(G, F, comps)
    s.validate()
    return certify_dopf_pre(s)


@dataclass(frozen=True)
class ComponentTable:
    """An omega-modification as the definition gives it: one presheaf map
    per (c, X)."""

    components: Mapping[tuple[str, str], PresheafMap]

    def is_iso(self) -> bool:
        return all(m.is_iso() for m in self.components.values())


def is_omega_modification(z: MapToOmega, w: MapToOmega,
                          components: Mapping[tuple[str, str], PresheafMap]) -> bool:
    """Natural maps Z_(c,X) => W_(c,X), natural in X against the arrow
    parts, and satisfying the reindexing axiom along every arrow."""
    site = z.site
    F = z.source
    for c in site.objects:
        Fc = F.on_objects[c]
        for nu in Fc.arrows:
            x, x2 = Fc.dom(nu), Fc.cod(nu)
            if compose_presheaf_maps(components[(c, x2)], z.arrow_part[(c, nu)]) != \
               compose_presheaf_maps(w.arrow_part[(c, nu)], components[(c, x)]):
                return False
    for f, (d, c) in site.arrows.items():
        for x in F.on_objects[c].objects:
            fx = F.on_arrows[f].on_objects[x]
            if components[(d, fx)] != reindex_slice_presheaf_map(site, f, components[(c, x)]):
                return False
    return True


def enumerate_omega_modifications(z: MapToOmega, w: MapToOmega,
                                  bound: int = DEFAULT_BOUND) -> list[ComponentTable]:
    """All omega-modifications z => w, in sorted key order.

    Every presheaf map at every key is enumerated up front by product and
    filter; choosing the component at (c, X) forces the component at
    (d, F(f)X) for every f: d -> c, and the definition is checked at the
    end.
    """
    if z.source != w.source or z.site != w.site:
        raise InvalidTable("enumerate_omega_modifications needs parallel maps")
    site = z.site
    F = z.source
    keys = sorted(z.object_part)
    candidates = {
        key: enumerate_presheaf_maps(z.object_part[key], w.object_part[key], bound)
        for key in keys
    }
    total = 1
    for key in keys:
        total *= max(1, len(candidates[key]))
        guard("enumerate_omega_modifications", total, bound)

    out: list[ComponentTable] = []

    def propagate(assignment: dict, key, m) -> bool:
        stack = [(key, m)]
        while stack:
            (c, x), cur = stack.pop()
            if (c, x) in assignment:
                if assignment[(c, x)] != cur:
                    return False
                continue
            assignment[(c, x)] = cur
            for f in site.arrows:
                if site.cod(f) != c:
                    continue
                d = site.dom(f)
                fx = F.on_arrows[f].on_objects[x]
                stack.append(((d, fx), reindex_slice_presheaf_map(site, f, cur)))
        return True

    def backtrack(i: int, assignment: dict) -> None:
        if i == len(keys):
            if is_omega_modification(z, w, assignment):
                out.append(ComponentTable(dict(assignment)))
            return
        key = keys[i]
        if key in assignment:
            backtrack(i + 1, assignment)
            return
        for m in candidates[key]:
            trial = dict(assignment)
            if propagate(trial, key, m):
                backtrack(i + 1, trial)

    backtrack(0, {})
    return out
