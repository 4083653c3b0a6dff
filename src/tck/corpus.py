"""Deterministic desk-scale fixtures: base categories, sites, presheaf and
opfibration generators.

Everything here is randomness-free; corpora are generated in a fixed order
so reports and frozen test values are reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import InvalidTable
from .fincat import (
    FinCat,
    FinFunctor,
    FinSetFunctor,
    SetPresheaf,
    build_category,
    composition_table,
    free_category,
    point_category,
)
from .site import GrothTopology, topology_from_generators


# -- base categories ---------------------------------------------------------------


def walking_arrow() -> FinCat:
    return free_category(["a", "b"], {"u": ("a", "b")})


def chain3() -> FinCat:
    return free_category(["a", "b", "c"], {"u": ("a", "b"), "v": ("b", "c")})


def parallel_pair() -> FinCat:
    arrows = {"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("a", "b")}
    compose = {
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u",
        ("id_b", "u"): "u",
        ("v", "id_a"): "v",
        ("id_b", "v"): "v",
    }
    return build_category(["a", "b"], arrows, {"a": "id_a", "b": "id_b"}, compose)


def span() -> FinCat:
    return free_category(["a", "b", "c"], {"f": ("a", "b"), "g": ("a", "c")})


def poset_category(objects: Iterable[str], strict_pairs: Iterable[tuple[str, str]]) -> FinCat:
    """Category of a finite poset; arrow a <= b is named ``a_b``."""
    objs = sorted(objects)
    above = {a: {a} for a in objs}
    for a, b in strict_pairs:
        above.setdefault(a, set()).add(b)
    # transitive closure by Warshall: route every a through each k in turn
    for k in above:
        for a in above:
            if k in above[a]:
                above[a] |= above[k]
    rel = {(a, b) for a, bs in above.items() for b in bs}
    for a, b in rel:
        if a != b and (b, a) in rel:
            raise InvalidTable("not a poset: antisymmetry fails")
    arrows = {f"{a}_{b}": (a, b) for a, b in sorted(rel)}
    identities = {a: f"{a}_{a}" for a in objs}
    compose = composition_table(arrows, lambda b, a: f"{arrows[a][0]}_{arrows[b][1]}")
    return build_category(objs, arrows, identities, compose)


def open_site() -> FinCat:
    """Opens of the 2-point discrete space: O (empty), L, R, T (whole)."""
    return poset_category(
        ["O", "L", "R", "T"],
        [("O", "L"), ("O", "R"), ("O", "T"), ("L", "T"), ("R", "T")],
    )


def square() -> FinCat:
    """The commutative square poset p -> q, p -> r, q -> s, r -> s."""
    return poset_category(
        ["p", "q", "r", "s"],
        [("p", "q"), ("p", "r"), ("p", "s"), ("q", "s"), ("r", "s")],
    )


def bases() -> dict[str, FinCat]:
    """The six shipped base categories (each with at most 4 objects)."""
    return {
        "point": point_category(),
        "walking_arrow": walking_arrow(),
        "chain3": chain3(),
        "parallel_pair": parallel_pair(),
        "span": span(),
        "open_site": open_site(),
    }


def open_site_topology() -> GrothTopology:
    """The open-cover topology: L, R jointly cover T; the empty family covers O."""
    topo, _ = topology_from_generators(
        open_site(), {"T": [["L_T", "R_T"]], "O": [[]]}
    )
    return topo


# -- deterministic set-valued fixtures ------------------------------------------------


def hom_from(cat: FinCat, x: str, tag: str = "") -> FinSetFunctor:
    """Covariant representable Hom(x, -); element labels carry the tag."""
    pre = f"{tag}." if tag else ""
    return FinSetFunctor(
        cat,
        {y: tuple(sorted(pre + g for g in cat.hom(x, y))) for y in cat.objects},
        {
            f: {pre + g: pre + cat.compose(f, g) for g in cat.hom(x, d)}
            for f, (d, c) in cat.arrows.items()
        },
    )


def hom_into(cat: FinCat, x: str, tag: str = "") -> SetPresheaf:
    """Contravariant representable Hom(-, x); element labels carry the tag."""
    pre = f"{tag}." if tag else ""
    return SetPresheaf(
        cat,
        {y: tuple(sorted(pre + g for g in cat.hom(y, x))) for y in cat.objects},
        {
            f: {pre + g: pre + cat.compose(g, f) for g in cat.hom(c, x)}
            for f, (d, c) in cat.arrows.items()
        },
    )


def constant_setfunctor(cat: FinCat, labels: Iterable[str]) -> FinSetFunctor:
    elems = tuple(sorted(labels))
    return FinSetFunctor(
        cat,
        {c: elems for c in cat.objects},
        {f: {x: x for x in elems} for f in cat.arrows},
    )


def _disjoint_sum(parts):
    """The sum of set-valued functors of one variance on a common base whose
    element names are disjoint, validated."""
    base = parts[0].base
    on_objects = {
        c: tuple(sorted(itertools.chain.from_iterable(p.on_objects[c] for p in parts)))
        for c in base.objects
    }
    on_arrows = {}
    for f in base.arrows:
        table: dict[str, str] = {}
        for p in parts:
            table.update(p.on_arrows[f])
        on_arrows[f] = table
    out = type(parts[0])(base, on_objects, on_arrows)
    out.validate()
    return out


sum_setfunctors = sum_presheaves = _disjoint_sum


def setfunctor_corpus(cat: FinCat, count: int) -> list[FinSetFunctor]:
    """At least ``count`` distinct covariant set-valued functors, fibres <= 3."""
    out: list[FinSetFunctor] = []
    seen = set()

    def push(z: FinSetFunctor) -> None:
        key = repr((z.on_objects, sorted((f, tuple(sorted(t.items())))
                                         for f, t in z.on_arrows.items())))
        if key not in seen:
            z.validate()
            seen.add(key)
            out.append(z)

    push(constant_setfunctor(cat, []))
    push(constant_setfunctor(cat, ["k0"]))
    push(constant_setfunctor(cat, ["k0", "k1"]))
    for x in cat.objects:
        push(hom_from(cat, x, f"r{x}"))
    for x, y in itertools.combinations_with_replacement(cat.objects, 2):
        push(sum_setfunctors([hom_from(cat, x, f"s{x}"), hom_from(cat, y, f"t{y}")]))
        if len(out) >= count and len(out) >= 6:
            break
    i = 0
    while len(out) < count:
        push(sum_setfunctors([
            hom_from(cat, cat.objects[i % len(cat.objects)], f"u{i}"),
            constant_setfunctor(cat, [f"w{i}"]),
        ]))
        i += 1
    return out


def presheaf_corpus(cat: FinCat, count: int) -> list[SetPresheaf]:
    """At least ``count`` distinct presheaves, sections <= 4 per object."""
    out: list[SetPresheaf] = []
    seen = set()

    def push(z: SetPresheaf) -> None:
        key = repr((z.on_objects, sorted((f, tuple(sorted(t.items())))
                                         for f, t in z.on_arrows.items())))
        if key not in seen:
            z.validate()
            seen.add(key)
            out.append(z)

    from .fincat import constant_presheaf

    push(constant_presheaf(cat, []))
    push(constant_presheaf(cat, ["k0"]))
    push(constant_presheaf(cat, ["k0", "k1"]))
    for x in cat.objects:
        push(hom_into(cat, x, f"r{x}"))
    for x, y in itertools.combinations_with_replacement(cat.objects, 2):
        push(sum_presheaves([hom_into(cat, x, f"s{x}"), hom_into(cat, y, f"t{y}")]))
    i = 0
    while len(out) < count:
        push(sum_presheaves([
            hom_into(cat, cat.objects[i % len(cat.objects)], f"u{i}"),
            constant_presheaf(cat, [f"w{i}"]),
        ]))
        i += 1
    return out


def nonseparated_presheaf() -> SetPresheaf:
    """Two global sections on T that agree on the joint cover of open_site."""
    cat = open_site()
    single = ("*",)
    on_objects = {"O": single, "L": single, "R": single, "T": ("0", "1")}
    on_arrows = {}
    for f, (d, c) in cat.arrows.items():
        if c == "T" and d != "T":
            on_arrows[f] = {"0": "*", "1": "*"}
        elif c == "T":
            on_arrows[f] = {"0": "0", "1": "1"}
        else:
            on_arrows[f] = {"*": "*"}
    z = SetPresheaf(cat, on_objects, on_arrows)
    z.validate()
    return z


# -- opfibrations over a Cat-valued presheaf --------------------------------------------

# fibre tables live on the category of elements of F, defined in prestack
from .prestack import elements_category  # noqa: E402


def dopf_from_set_functor(F, B: FinSetFunctor):
    """Glue pointwise categories of elements into a certified opfibration over F.

    B is a covariant set functor on elements_category(F); the result has
    fibre B(<c|X>) over (c, X).
    """
    from . import cat2, prestack

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
    G = prestack.CatPresheaf(base, {c: totals[c].total for c in base.objects}, on_arrows)
    G.validate()
    s = prestack.TwoNat(G, F, comps)
    s.validate()
    return prestack.certify_dopf_pre(s)


def dopf_corpus(F, count: int):
    """At least ``count`` certified opfibrations over F, fibres <= 3."""
    el = elements_category(F)
    return [dopf_from_set_functor(F, B) for B in setfunctor_corpus(el, count)]


# -- Cat-valued presheaf fixtures ---------------------------------------------------


def constant_cat_presheaf(base: FinCat, K: FinCat):
    from . import prestack
    from .fincat import identity_functor

    F = prestack.CatPresheaf(
        base,
        {c: K for c in base.objects},
        {f: identity_functor(K) for f in base.arrows},
    )
    F.validate()
    return F


def catpresheaf_corpus(base: FinCat, count: int):
    """Non-representable Cat-valued presheaves on the base, deterministic."""
    from . import prestack

    out = []
    # pushout-like discrete presheaf: two points upstairs collapsing downstream
    for Z in presheaf_corpus(base, max(3, count)):
        out.append(prestack.discrete_presheaf(base, Z))
        if len(out) >= count - 2:
            break
    out.append(constant_cat_presheaf(base, walking_arrow()))
    out.append(constant_cat_presheaf(base, point_category()))
    return out[:max(count, 3)]


# -- maps into the classifier -----------------------------------------------------------


def map_to_omega_from_set_functor(F, B: FinSetFunctor):
    """The map into the classifier whose fibre functor is B, validated."""
    from .classifier import MapToOmega

    if B.base != elements_category(F):
        raise InvalidTable("set functor does not live on elements_category(F)")
    z = MapToOmega(F.base, F, B)
    z.validate()
    return z


def map_to_omega_corpus(F, count: int):
    el = elements_category(F)
    return [map_to_omega_from_set_functor(F, B) for B in setfunctor_corpus(el, count)]


def map_to_omega_over_representable(base: FinCat, c: str, Z: SetPresheaf):
    """The map representable(c) -> classifier corresponding to Z on slice(C, c)."""
    from . import prestack
    from .classifier import map_from_parts
    from .fincat import identity_presheaf_map, reindex_slice_presheaf

    rep = prestack.representable(base, c)
    object_part = {}
    arrow_part = {}
    for d in base.objects:
        hom = rep.on_objects[d]
        for f in base.hom(d, c):
            object_part[(d, f)] = reindex_slice_presheaf(base, f, Z)
            arrow_part[(d, hom.id_of(f))] = identity_presheaf_map(object_part[(d, f)])
    z = map_from_parts(base, rep, object_part, arrow_part)
    z.validate()
    return z


def open_site_product_sheaf(a_labels: Iterable[str], b_labels: Iterable[str]) -> SetPresheaf:
    """Sections over a disjoint union: A over L, B over R, A x B over T."""
    cat = open_site()
    A = tuple(sorted(a_labels))
    B = tuple(sorted(b_labels))
    prod = {f"{x}&{y}": (x, y) for x in A for y in B}
    on_objects = {"O": ("*",), "L": A, "R": B, "T": tuple(sorted(prod))}
    on_arrows = {}
    for f, (d, c) in cat.arrows.items():
        src = on_objects[c]
        if d == c:
            on_arrows[f] = {x: x for x in src}
        elif d == "O":
            on_arrows[f] = {x: "*" for x in src}
        elif (d, c) == ("L", "T"):
            on_arrows[f] = {p: prod[p][0] for p in src}
        elif (d, c) == ("R", "T"):
            on_arrows[f] = {p: prod[p][1] for p in src}
        else:
            raise InvalidTable(f"unexpected arrow {f!r} in open_site")
    Z = SetPresheaf(cat, on_objects, on_arrows)
    Z.validate()
    return Z


def open_site_sheaf_corpus(count: int) -> list[SetPresheaf]:
    """Distinct sheaves on the open site with its open-cover topology; a
    member that is no sheaf raises InvalidTable with its counterexample."""
    from .fincat import delta1
    from .site import is_sheaf

    cat = open_site()
    topo = open_site_topology()
    out = [delta1(cat)]
    for x in cat.objects:
        out.append(hom_into(cat, x, f"r{x}"))
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            out.append(open_site_product_sheaf(
                [f"a{i}" for i in range(n1)], [f"b{i}" for i in range(n2)]
            ))
    for i, Z in enumerate(out):
        rep = is_sheaf(Z, topo)
        if not rep.ok:
            raise InvalidTable(f"open-site corpus member {i} is no sheaf: "
                               f"{rep.counterexamples[0]}")
    return out[:max(count, 1)]
