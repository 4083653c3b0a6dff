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
import math
from typing import Iterable

from .classifier import MapToOmega, classify
from .errors import InvalidTable
from .fincat import (
    FinCat,
    FinSetFunctor,
    SetPresheaf,
    build_category,
    composition_table,
    constant_presheaf,
)
from .prestack import certify_dopf_pre, elements_category


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


def _corpus(cat: FinCat, count: int, constant, hom, enough: float) -> list:
    """At least ``count`` distinct functors of one variance, given its
    constant functor and its representables: constants, representables,
    sums of two representables until ``enough`` members exist, then sums
    of a representable and a constant."""
    out: list = []
    seen = set()

    def push(z) -> None:
        key = repr((z.on_objects, sorted((f, tuple(sorted(t.items())))
                                         for f, t in z.on_arrows.items())))
        if key not in seen:
            z.validate()
            seen.add(key)
            out.append(z)

    push(constant(cat, []))
    push(constant(cat, ["k0"]))
    push(constant(cat, ["k0", "k1"]))
    for x in cat.objects:
        push(hom(cat, x, f"r{x}"))
    for x, y in itertools.combinations_with_replacement(cat.objects, 2):
        push(_disjoint_sum([hom(cat, x, f"s{x}"), hom(cat, y, f"t{y}")]))
        if len(out) >= enough:
            break
    if len(out) < count and not cat.objects:
        raise InvalidTable(f"a category with no objects carries one functor of each "
                           f"variance, not {count}")
    i = 0
    while len(out) < count:
        push(_disjoint_sum([
            hom(cat, cat.objects[i % len(cat.objects)], f"u{i}"),
            constant(cat, [f"w{i}"]),
        ]))
        i += 1
    return out


def setfunctor_corpus(cat: FinCat, count: int) -> list[FinSetFunctor]:
    """At least ``count`` distinct covariant set-valued functors, fibres <= 3."""
    return _corpus(cat, count, constant_setfunctor, hom_from, max(count, 6))


def presheaf_corpus(cat: FinCat, count: int) -> list[SetPresheaf]:
    """At least ``count`` distinct presheaves, sections <= 4 per object."""
    return _corpus(cat, count, constant_presheaf, hom_into, math.inf)


# -- opfibrations and maps into the classifier built from a set functor ---------------


def dopf_from_set_functor(F, B: FinSetFunctor):
    """The certified opfibration over F with fibre B(<c|X>) over (c, X).

    B is a covariant set functor on elements_category(F); classify builds
    the opfibration and certify_dopf_pre certifies each component.
    """
    return certify_dopf_pre(classify(map_to_omega_from_set_functor(F, B)).s)


def map_to_omega_from_set_functor(F, B: FinSetFunctor):
    """The map into the classifier whose fibre functor is B, validated."""
    if B.base != elements_category(F):
        raise InvalidTable("set functor does not live on elements_category(F)")
    z = MapToOmega(F.base, F, B)
    z.validate()
    return z
