"""Deterministic generators the benchmark draws from: poset categories,
representables, corpora of set-valued functors and presheaves, and the
opfibrations and maps into the classifier built from a set functor on
the category of elements.

Everything here is randomness-free; corpora are generated in a fixed order
so reports and frozen test values are reproducible.  The fixtures that
only tests use live in tests/fixture_corpus.py.
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
)


# -- base categories ---------------------------------------------------------------


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


# -- maps into the classifier -----------------------------------------------------------


def map_to_omega_from_set_functor(F, B: FinSetFunctor):
    """The map into the classifier whose fibre functor is B, validated."""
    from .classifier import MapToOmega

    if B.base != elements_category(F):
        raise InvalidTable("set functor does not live on elements_category(F)")
    z = MapToOmega(F.base, F, B)
    z.validate()
    return z
