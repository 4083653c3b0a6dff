"""Finite categories with explicit composition tables.

Everything downstream (slices, opfibrations, presheaves, classifiers)
consumes these values.  All values are immutable after construction and
every operation is a pure function.  Identifiers are opaque strings and
equality is identifier equality; enumeration order is lexicographic on
identifiers so that oracle outputs are reproducible.

Validation happens at the boundary, once per instance: ``validate`` on
every value type records its success on the instance, outside equality,
hashing and repr, so a second call costs nothing; a failure is not
recorded.  Values the library builds from validated inputs are valid by
construction and are not re-validated.

A FinCat indexes its hom-sets once: the first ``hom``/``arrows_into``/
``arrows_from`` call builds all three as sorted tuples in a cached
attribute, which stays out of equality, hashing and repr.  The principal
sieve of each arrow and the composable pairs with no identity in them are
cached the same way.  Slices, and the postcomposition tables that reindex
slice presheaves along an arrow, are cached on the category they are
taken of, and die with it.  tck reads a slice through ``_slice_of``; the
domain projection is built only for public callers of ``slice_cat``.

A construction interns (``sys.intern``) each name it stores: a slice's
objects, arrows, identities and composites, and a postcomposition's
tables, here; cat2, prestack and site's slice topologies do the same
for what they build.  Equal names are then one string, however many
tables hold them.
A name formatted only to look a table up, such as ``slice_arrow_name``'s
result, stays a plain string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, wraps
from sys import intern
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    IllTypedComposite,
    InvalidTable,
    MissingIdentity,
    NonAssociative,
    SizeBound,
    UnknownObject,
)

DEFAULT_BOUND = 10**6


def guard(what: str, estimate: int, bound: int) -> None:
    if estimate > bound:
        raise SizeBound(what, estimate, bound)


def bounded_product(what: str, pools: Sequence[Sequence], bound: int) -> Iterator[tuple]:
    """itertools.product(*pools), guarded on its exact tuple count: an empty
    pool makes the count 0, so an empty enumeration never trips the bound."""
    guard(what, math.prod(map(len, pools)), bound)
    return itertools.product(*pools)


def validates_once(check):
    """Turn a check into a ``validate`` that runs it at most once per
    instance: a success is recorded in the instance dict, where a
    cached_property would keep it, and a failure raises on every call."""

    @wraps(check)
    def validate(self) -> None:
        if "_valid" not in self.__dict__:
            check(self)
            mark_valid(self)

    return validate


def mark_valid(value):
    """Record value as validated, as a successful ``validate`` does; for a
    value valid by construction that a public entry point would check."""
    value.__dict__["_valid"] = True
    return value


def named_parts(parts: Iterable[tuple[str, ...]], name: Callable[..., str]) -> dict[str, tuple]:
    """name(*part) -> part for each part.  Generated names need not be
    injective (``(a,b,c)`` names both ("a", "b,c") and ("a,b", "c")), so two
    parts sharing a name raise InvalidTable naming both."""
    out: dict[str, tuple] = {}
    for part in parts:
        key = name(*part)
        other = out.setdefault(key, part)
        if other != part:
            raise InvalidTable(f"generated name {key!r} is shared by {other!r} and {part!r}")
    return out


def composition_table(arrows: Mapping[str, tuple[str, str]],
                      compose: Callable[[str, str], str]) -> dict[tuple[str, str], str]:
    """(b, a) -> compose(b, a) for exactly the composable pairs of the named
    arrows, cod a == dom b, in the order of a and then of b.  The arrows are
    indexed by domain once, so no pair is tested."""
    out_of: dict[str, list[str]] = {}
    for f, (d, _) in arrows.items():
        out_of.setdefault(d, []).append(f)
    return {(b, a): compose(b, a) for a, (_, c) in arrows.items() for b in out_of.get(c, ())}


# -- categories ----------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class FinCat:
    """A finite category: object/arrow tables plus a total composition table.

    ``arrows`` maps an arrow id to ``(dom, cod)``; ``compose_table`` maps
    ``(g, f)`` with ``cod(f) == dom(g)`` to the id of ``g after f``.
    """

    objects: tuple[str, ...]
    arrows: Mapping[str, tuple[str, str]]
    identities: Mapping[str, str]
    compose_table: Mapping[tuple[str, str], str]

    # lookups

    def dom(self, f: str) -> str:
        return self.arrows[f][0]

    def cod(self, f: str) -> str:
        return self.arrows[f][1]

    def id_of(self, c: str) -> str:
        return self.identities[c]

    def compose(self, g: str, f: str) -> str:
        """g after f; only defined when cod(f) == dom(g)."""
        return self.compose_table[(g, f)]

    def is_identity(self, f: str) -> bool:
        d, c = self.arrows[f]
        return d == c and self.identities[d] == f

    @cached_property
    def _index(self) -> tuple[dict, dict, dict]:
        """hom-sets, arrows into and arrows from each object, as sorted tuples."""
        hom: dict[tuple[str, str], list[str]] = {}
        into: dict[str, list[str]] = {}
        out: dict[str, list[str]] = {}
        for f in sorted(self.arrows):
            d, c = self.arrows[f]
            hom.setdefault((d, c), []).append(f)
            into.setdefault(c, []).append(f)
            out.setdefault(d, []).append(f)
        return tuple({k: tuple(v) for k, v in t.items()} for t in (hom, into, out))

    @cached_property
    def _steps(self) -> dict[str, list[tuple[str, str]]]:
        """Per object, the non-identity arrows out of it with their
        codomains: what a choice there forces in a map search."""
        out: dict[str, list[tuple[str, str]]] = {c: [] for c in self.objects}
        for f in sorted(self.arrows):
            if not self.is_identity(f):
                d, c = self.arrows[f]
                out[d].append((f, c))
        return out

    @cached_property
    def _slices(self) -> dict[str, tuple["FinCat", dict, dict]]:
        """_slice_of's cache by object: the slice and its projection's
        object and arrow tables, from which slice_cat builds the projection
        for public callers."""
        return {}

    @cached_property
    def _postcompositions(self) -> dict[str, tuple]:
        """postcomposition tables by arrow (see _postcomposition)."""
        return {}

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._index[0].get((a, b), ())

    def arrows_into(self, c: str) -> tuple[str, ...]:
        return self._index[1].get(c, ())

    def arrows_from(self, d: str) -> tuple[str, ...]:
        return self._index[2].get(d, ())

    def sorted_arrows(self) -> tuple[str, ...]:
        return tuple(sorted(self.arrows))

    @cached_property
    def _inverses(self) -> dict[str, str]:
        """The inverse of each invertible arrow."""
        out = {}
        for f, (d, c) in self.arrows.items():
            for g in self.hom(c, d):
                if self.compose(g, f) == self.id_of(d) and self.compose(f, g) == self.id_of(c):
                    out[f] = g
                    break
        return out

    def is_invertible(self, f: str) -> bool:
        return f in self._inverses

    @cached_property
    def _proper_composites(self) -> tuple[tuple[str, str, str], ...]:
        """The compose_table entries (g, f, g.f) with neither g nor f an
        identity, in table order.  On a valid category the identity laws
        settle the other entries for any functor that preserves identities,
        so a validator that checks identities first need only scan these."""
        ids = set(self.identities.values())
        return tuple((g, f, h) for (g, f), h in self.compose_table.items()
                     if g not in ids and f not in ids)

    @cached_property
    def _principal(self) -> dict[str, frozenset[str]]:
        """The principal sieve of each arrow f: the arrows f.g for g into dom f."""
        return {f: frozenset(self.compose(f, g) for g in self.arrows_into(d))
                for f, (d, _) in self.arrows.items()}

    # validation

    @validates_once
    def validate(self) -> None:
        arrows, identities, table = self.arrows, self.identities, self.compose_table
        seen = set(self.objects)
        if len(seen) != len(self.objects):
            raise InvalidTable("duplicate object identifiers")
        for f, (d, c) in arrows.items():
            if d not in seen or c not in seen:
                raise InvalidTable(f"arrow {f!r} has unknown endpoint ({d!r}, {c!r})")
        for c in self.objects:
            i = identities.get(c)
            if i is None or i not in arrows:
                raise MissingIdentity(c, "no identity arrow assigned")
            if arrows[i] != (c, c):
                raise MissingIdentity(c, f"assigned identity {i!r} is not an endo-arrow on {c!r}")
        # compose defined exactly on composable pairs, with correct endpoints;
        # the first bad pair in sorted order is reported
        ill_typed = [(g, f) for g, f in table
                     if g not in arrows or f not in arrows or arrows[f][1] != arrows[g][0]]
        for g, f in sorted(ill_typed)[:1]:
            raise IllTypedComposite(g, f, f"cod({f!r}) != dom({g!r})")
        out = self._index[2]
        missing = [(g, f) for f, (_, c) in arrows.items() for g in out.get(c, ())
                   if (g, f) not in table]
        for g, f in sorted(missing)[:1]:
            raise IllTypedComposite(g, f, "composable pair missing from table")
        for (g, f), h in table.items():
            if h not in arrows:
                raise IllTypedComposite(g, f, f"result {h!r} is not an arrow")
            if arrows[h] != (arrows[f][0], arrows[g][1]):
                raise IllTypedComposite(g, f, f"result {h!r} has wrong endpoints")
        # identity laws
        for f, (d, c) in arrows.items():
            if table[(identities[c], f)] != f:
                raise MissingIdentity(c, f"left identity law fails on {f!r}")
            if table[(f, identities[d])] != f:
                raise MissingIdentity(d, f"right identity law fails on {f!r}")
        # associativity over the composable triples with no identity in them:
        # the identity laws settle the others, so the first failing triple
        # is the one a scan of all triples finds first
        ids = set(identities.values())
        for f, (_, c) in arrows.items():
            if f in ids:
                continue
            for g in out.get(c, ()):
                if g in ids:
                    continue
                gf = table[(g, f)]
                for h in out.get(arrows[g][1], ()):
                    if h not in ids and table[(h, gf)] != table[(table[(h, g)], f)]:
                        raise NonAssociative(h, g, f)


def build_category(
    objects: Iterable[str],
    arrows: Mapping[str, tuple[str, str]],
    identities: Mapping[str, str],
    compose_table: Mapping[tuple[str, str], str],
) -> FinCat:
    """Assemble and validate a FinCat from raw tables."""
    cat = FinCat(
        objects=tuple(sorted(objects)),
        arrows=dict(arrows),
        identities=dict(identities),
        compose_table=dict(compose_table),
    )
    cat.validate()
    return cat


def point_category(obj: str = "*", ident: str = "id_*") -> FinCat:
    """The terminal category on a single object."""
    return build_category([obj], {ident: (obj, obj)}, {obj: ident}, {(ident, ident): ident})


def discrete_category(labels: Iterable[str]) -> FinCat:
    labels = sorted(labels)
    arrows = {f"id_{x}": (x, x) for x in labels}
    identities = {x: f"id_{x}" for x in labels}
    compose = {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in labels}
    return build_category(labels, arrows, identities, compose)


def opposite(cat: FinCat) -> FinCat:
    """Reverse all arrows; an involution on the nose."""
    return build_category(
        cat.objects,
        {f: (c, d) for f, (d, c) in cat.arrows.items()},
        cat.identities,
        {(f, g): h for (g, f), h in cat.compose_table.items()},
    )


# -- slices ---------------------------------------------------------------------


def slice_arrow_name(g: str, f: str) -> str:
    """Canonical name of the slice arrow with underlying g and target object f."""
    return f"{g}>{f}"


def _slice_arrow(g: str, f: str) -> str:
    """slice_arrow_name, interned: the name a slice stores."""
    return intern(slice_arrow_name(g, f))


def _slice_of(cat: FinCat, c: str) -> FinCat:
    """The slice over c, cached on ``cat`` with its projection's tables.

    Objects are the arrows of ``cat`` into ``c``, named by the arrow they
    wrap; for every g composable into f there is one arrow (f.g) -> f named
    ``g>f``.  tck reads only the slice, so it builds no projection.
    """
    if c not in cat.objects:
        raise UnknownObject(c)
    hit = cat._slices.get(c)
    if hit is None:
        objs = [intern(f) for f in cat.arrows_into(c)]
        parts = named_parts(((g, f) for f in objs for g in cat.arrows_into(cat.dom(f))),
                            _slice_arrow)
        arrows = {name: (intern(cat.compose(f, g)), f) for name, (g, f) in parts.items()}
        identities = {f: _slice_arrow(cat.id_of(cat.dom(f)), f) for f in objs}
        compose = composition_table(arrows, lambda b, a: _slice_arrow(
            cat.compose(parts[b][0], parts[a][0]), parts[b][1]))
        # valid because cat is and names are injective; the projection keeps composites of g
        sl = FinCat(tuple(sorted(objs)), arrows, identities, compose)
        hit = cat._slices[c] = (sl, {f: cat.dom(f) for f in objs},
                                {name: g for name, (g, _) in parts.items()})
    return hit[0]


def slice_cat(cat: FinCat, c: str) -> tuple[FinCat, "FinFunctor"]:
    """The slice over c (see _slice_of) together with the domain projection.

    The projection is built on each call, for public callers only: cached,
    it would target ``cat`` from ``cat``'s own cache, a reference cycle.
    """
    sl = _slice_of(cat, c)
    _, on_objects, on_arrows = cat._slices[c]
    return sl, FinFunctor(sl, cat, on_objects, on_arrows)


def _postcomposition(cat: FinCat, f: str) -> tuple:
    """What f: d -> c does to slices, as tables cached on ``cat``.

    Returns slice(C, d), the pairs (g, f.g) for its objects, and the pairs
    (h>g, h>f.g) of slice-arrow names for its arrows.  An unknown f raises
    InvalidTable, checked only when the cache misses.
    """
    hit = cat._postcompositions.get(f)
    if hit is not None:
        return hit
    if f not in cat.arrows:
        raise InvalidTable(f"unknown arrow {f!r}")
    d, _ = cat.arrows[f]
    sl_d = _slice_of(cat, d)
    objects = tuple((g, intern(cat.compose(f, g))) for g in sl_d.objects)
    arrows = tuple(
        (_slice_arrow(h, g), _slice_arrow(h, fg))
        for g, fg in objects
        for h in cat.arrows_into(cat.dom(g))
    )
    hit = cat._postcompositions[f] = (sl_d, objects, arrows)
    return hit


def postcompose(cat: FinCat, f: str) -> "FinFunctor":
    """slice(C, dom f) -> slice(C, cod f), sending g to f.g."""
    src, objects, arrows = _postcomposition(cat, f)
    tgt = _slice_of(cat, cat.cod(f))
    # valid because h>g goes to h>f.g and slice arrows compose by their h
    return FinFunctor(src, tgt, dict(objects), dict(arrows))


# -- functors and natural transformations ---------------------------------------


@dataclass(frozen=True, eq=True)
class FinFunctor:
    source: FinCat
    target: FinCat
    on_objects: Mapping[str, str]
    on_arrows: Mapping[str, str]

    @validates_once
    def validate(self) -> None:
        if set(self.on_objects) != set(self.source.objects):
            raise InvalidTable("functor object map is not total")
        for x, y in self.on_objects.items():
            if y not in self.target.objects:
                raise InvalidTable(f"object image {y!r} not in target")
        if set(self.on_arrows) != set(self.source.arrows):
            raise InvalidTable("functor arrow map is not total")
        for f, m in self.on_arrows.items():
            d, c = self.source.arrows[f]
            if m not in self.target.arrows or \
               self.target.arrows[m] != (self.on_objects[d], self.on_objects[c]):
                raise InvalidTable(f"arrow image {m!r} of {f!r} missing or has wrong endpoints")
        for x in self.source.objects:
            if self.on_arrows[self.source.id_of(x)] != self.target.id_of(self.on_objects[x]):
                raise InvalidTable(f"identity on {x!r} not preserved")
        for g, f, h in self.source._proper_composites:
            if self.target.compose(self.on_arrows[g], self.on_arrows[f]) != self.on_arrows[h]:
                raise InvalidTable(f"composition not preserved on ({g!r}, {f!r})")


def identity_functor(cat: FinCat) -> FinFunctor:
    return FinFunctor(cat, cat,
                      {x: x for x in cat.objects},
                      {f: f for f in cat.arrows})


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    if g.source != f.target:
        raise InvalidTable("functors not composable")
    return FinFunctor(
        f.source,
        g.target,
        {x: g.on_objects[y] for x, y in f.on_objects.items()},
        {a: g.on_arrows[b] for a, b in f.on_arrows.items()},
    )


@dataclass(frozen=True, eq=True)
class NatTransform:
    source: FinFunctor
    target: FinFunctor
    components: Mapping[str, str]

    @validates_once
    def validate(self) -> None:
        F, G = self.source, self.target
        if F.source != G.source or F.target != G.target:
            raise InvalidTable("natural transformation endpoints are not parallel")
        B = F.target
        for x in F.source.objects:
            a = self.components.get(x)
            if a is None or a not in B.arrows or \
               B.arrows[a] != (F.on_objects[x], G.on_objects[x]):
                raise InvalidTable(f"component at {x!r} missing or ill-typed")
        for u, (x, y) in F.source.arrows.items():
            if B.compose(G.on_arrows[u], self.components[x]) != \
               B.compose(self.components[y], F.on_arrows[u]):
                raise InvalidTable(f"naturality square fails on {u!r}")


# -- set-valued functors ---------------------------------------------------------


class _SetValued:
    """What SetPresheaf and FinSetFunctor share: an arrow acts between the
    element tables, towards its domain on a presheaf (``_contravariant``)."""

    def _ends(self, f: str) -> tuple[str, str]:
        """The objects f acts from and to."""
        d, c = self.base.arrows[f]
        return (c, d) if self._contravariant else (d, c)

    @validates_once
    def validate(self) -> None:
        base, on_objects, on_arrows = self.base, self.on_objects, self.on_arrows
        if set(on_objects) != set(base.objects):
            raise InvalidTable(f"{self._what} object table is not total")
        for c, elems in on_objects.items():
            if len(set(elems)) != len(elems) or tuple(sorted(elems)) != tuple(elems):
                raise InvalidTable(f"element table at {c!r} must be sorted and duplicate-free")
        if set(on_arrows) != set(base.arrows):
            raise InvalidTable(f"{self._what} arrow table is not total")
        letter, contravariant = self._letter, self._contravariant
        members = {c: set(elems) for c, elems in on_objects.items()}
        for f, fun in on_arrows.items():
            src, tgt = self._ends(f)
            if set(fun) != members[src]:
                raise InvalidTable(f"action of {f!r} not defined on all of {letter}({src!r})")
            for x, y in fun.items():
                if y not in members[tgt]:
                    raise InvalidTable(f"action of {f!r} sends {x!r} outside {letter}({tgt!r})")
        for c in base.objects:
            if any(on_arrows[base.identities[c]][x] != x for x in on_objects[c]):
                raise InvalidTable(f"identity on {c!r} does not act as identity")
        acts_from = 1 if contravariant else 0  # the end of (dom, cod) f acts from
        for f, g, fg in base._proper_composites:
            # f.g acts as f and then g on a presheaf, as g and then f on a set functor
            first, then = (f, g) if contravariant else (g, f)
            act_first, act_then, act_both = on_arrows[first], on_arrows[then], on_arrows[fg]
            for x in on_objects[base.arrows[first][acts_from]]:
                if act_both[x] != act_then[act_first[x]]:
                    raise InvalidTable(f"functoriality fails on composite ({f!r}, {g!r})")


@dataclass(frozen=True, eq=True)
class SetPresheaf(_SetValued):
    """Contravariant finite-set-valued functor: f: d -> c acts Z(c) -> Z(d)."""

    base: FinCat
    on_objects: Mapping[str, tuple[str, ...]]
    on_arrows: Mapping[str, Mapping[str, str]]
    _contravariant, _what, _letter = True, "presheaf", "Z"


@dataclass(frozen=True, eq=True)
class FinSetFunctor(_SetValued):
    """Covariant finite-set-valued functor: f: d -> c acts A(d) -> A(c)."""

    base: FinCat
    on_objects: Mapping[str, tuple[str, ...]]
    on_arrows: Mapping[str, Mapping[str, str]]
    _contravariant, _what, _letter = False, "set functor", "A"


class _SetValuedMap:
    """What PresheafMap and SetFunctorMap share: components per object."""

    @validates_once
    def validate(self) -> None:
        if self.source.base != self.target.base:
            raise InvalidTable(f"{self.source._what} map endpoints live on different bases")
        base = self.source.base
        for c in base.objects:
            comp = self.components.get(c)
            if comp is None or set(comp) != set(self.source.on_objects[c]):
                raise InvalidTable(f"component at {c!r} missing or not total")
            for x, y in comp.items():
                if y not in self.target.on_objects[c]:
                    raise InvalidTable(f"component at {c!r} sends {x!r} outside target")
        for f in base.arrows:
            src, tgt = self.source._ends(f)
            for x in self.source.on_objects[src]:
                if self.target.on_arrows[f][self.components[src][x]] != \
                   self.components[tgt][self.source.on_arrows[f][x]]:
                    raise InvalidTable(f"naturality fails on arrow {f!r}")

    def is_iso(self) -> bool:
        return all(
            len(comp) == len(self.target.on_objects[c]) == len(set(comp.values()))
            for c, comp in self.components.items()
        )


@dataclass(frozen=True, eq=True)
class PresheafMap(_SetValuedMap):
    """Natural transformation between SetPresheaves on the same base."""

    source: SetPresheaf
    target: SetPresheaf
    components: Mapping[str, Mapping[str, str]]


@dataclass(frozen=True, eq=True)
class SetFunctorMap(_SetValuedMap):
    """Natural transformation between FinSetFunctors on the same base."""

    source: FinSetFunctor
    target: FinSetFunctor
    components: Mapping[str, Mapping[str, str]]


def compose_presheaf_maps(b: PresheafMap, a: PresheafMap) -> PresheafMap:
    if a.target != b.source:
        raise InvalidTable("presheaf maps not composable")
    return PresheafMap(
        a.source,
        b.target,
        {c: {x: b.components[c][y] for x, y in comp.items()}
         for c, comp in a.components.items()},
    )


def invert_presheaf_map(a: PresheafMap) -> PresheafMap:
    if not a.is_iso():
        raise InvalidTable("presheaf map is not invertible")
    return PresheafMap(
        a.target,
        a.source,
        {c: {y: x for x, y in comp.items()} for c, comp in a.components.items()},
    )


def identity_presheaf_map(Z: SetPresheaf) -> PresheafMap:
    return PresheafMap(Z, Z, {c: {x: x for x in elems} for c, elems in Z.on_objects.items()})


def constant_presheaf(base: FinCat, labels: Iterable[str]) -> SetPresheaf:
    elems = tuple(sorted(labels))
    return SetPresheaf(
        base,
        {c: elems for c in base.objects},
        {f: {x: x for x in elems} for f in base.arrows},
    )


# -- reindexing of slice presheaves ----------------------------------------------


def reindex_slice_presheaf(cat: FinCat, f: str, Z: SetPresheaf) -> SetPresheaf:
    """Precompose Z on slice(C, cod f) with postcompose(f); lands on
    slice(C, dom f).  Z after a functor is valid when Z is, so the result
    carries Z's validity record."""
    sl_d, objects, arrows = _postcomposition(cat, f)
    out = SetPresheaf(
        sl_d,
        {g: Z.on_objects[fg] for g, fg in objects},
        {a: Z.on_arrows[b] for a, b in arrows},
    )
    return mark_valid(out) if "_valid" in Z.__dict__ else out


def reindex_slice_components(cat: FinCat, f: str,
                             components: Mapping[str, Mapping[str, str]]) -> dict:
    """The component table of a map of presheaves on slice(C, cod f),
    reindexed along f to slice(C, dom f)."""
    _, objects, _ = _postcomposition(cat, f)
    return {g: components[fg] for g, fg in objects}


def reindex_slice_presheaf_map(cat: FinCat, f: str, m: PresheafMap) -> PresheafMap:
    return PresheafMap(
        reindex_slice_presheaf(cat, f, m.source),
        reindex_slice_presheaf(cat, f, m.target),
        reindex_slice_components(cat, f, m.components),
    )


# -- natural maps by backtracking -------------------------------------------------


def _search_maps(A, B, what: str, bound: int, iso_only: bool, limit: int | None,
                 ) -> list[dict[str, dict[str, str]]]:
    """Component tables of the natural maps A => B by element-wise backtracking.

    ``A.base._steps[c]`` lists the pairs (f, e) along which a choice at
    object c forces one at e: choosing v as the image of x in A(c) forces
    B(f)(v) as the image of A(f)(x) in A(e); identities, which force
    nothing, are left out.  Variables are visited in sorted order, so the
    tables come in lexicographic order; the search stops after the first
    ``limit`` tables when a limit is given, and the bound caps the number
    of search nodes, counted under ``what``.

    The search is iterative: one frame per chosen variable holds its index,
    the values left to try and the trail of what the current value forced,
    so its depth is bounded by memory, not by the interpreter's recursion
    limit, and no closure keeps the search state in a reference cycle.
    """
    base = A.base
    step = base._steps
    if iso_only and any(
        len(A.on_objects[c]) != len(B.on_objects[c]) for c in base.objects
    ):
        return []
    variables = [(c, x) for c in sorted(base.objects) for x in A.on_objects[c]]
    assignment: dict[tuple[str, str], str] = {}
    used: dict[str, set[str]] = {c: set() for c in base.objects}
    results: list[dict[str, dict[str, str]]] = []
    nodes = 0
    frames: list[tuple[int, Iterator[str], list[tuple[str, str]]]] = []
    i: int | None = 0
    while i is not None:
        while i < len(variables) and variables[i] in assignment:
            i += 1  # forced by an earlier choice
        if i < len(variables):
            frames.append((i, iter(B.on_objects[variables[i][0]]), []))
        else:
            comps: dict[str, dict[str, str]] = {c: {} for c in base.objects}
            for c, x in variables:
                comps[c][x] = assignment[(c, x)]
            results.append(comps)
            if len(results) == limit:
                break
        # the next value of the innermost frame that propagates; None when
        # every frame is spent
        i = None
        while frames and i is None:
            k, values, trail = frames[-1]
            _undo(assignment, used, trail)
            for v in values:
                nodes += 1
                guard(what, nodes, bound)
                if _propagate(A, B, step, iso_only, assignment, used, variables[k], v, trail):
                    i = k + 1
                    break
                _undo(assignment, used, trail)
            else:
                frames.pop()
    return results


def _propagate(A, B, step: Mapping[str, Iterable[tuple[str, str]]], iso_only: bool,
               assignment: dict, used: dict, var: tuple[str, str], val: str,
               trail: list) -> bool:
    """Assign val to var and everything it forces along ``step``, appending
    each new assignment to trail; False at the first clash: a variable
    forced to a second value, or with iso_only a value used twice at one
    object."""
    stack = [(var, val)]
    while stack:
        (c, x), v = stack.pop()
        cur = assignment.get((c, x))
        if cur is not None:
            if cur != v:
                return False
            continue
        if iso_only and v in used[c]:
            return False
        assignment[(c, x)] = v
        used[c].add(v)
        trail.append((c, x))
        for f, e in step[c]:
            stack.append(((e, A.on_arrows[f][x]), B.on_arrows[f][v]))
    return True


def _undo(assignment: dict, used: dict, trail: list) -> None:
    """Take back the assignments on trail, leaving it empty."""
    while trail:
        c, x = trail.pop()
        used[c].discard(assignment.pop((c, x)))


def search_setfunctor_maps(A: FinSetFunctor, B: FinSetFunctor,
                           bound: int = DEFAULT_BOUND,
                           iso_only: bool = False,
                           limit: int | None = None,
                           what: str = "search_setfunctor_maps nodes") -> list[SetFunctorMap]:
    """Natural transformations A => B by element-wise backtracking.

    Choosing the image of one element forces images along every arrow out
    of it, so the search prunes far earlier than filtering the product of
    all component functions; results come in lexicographic order, the first
    ``limit`` of them when a limit is given.  The bound caps the number of
    search nodes, counted under ``what``.
    """
    if A.base != B.base:
        raise InvalidTable("set functor maps need a common base")
    return [SetFunctorMap(A, B, comps) for comps in _search_maps(
        A, B, what, bound, iso_only, limit)]


# -- free categories on acyclic generators ---------------------------------------


def free_category(objects: Iterable[str], generators: Mapping[str, tuple[str, str]]) -> FinCat:
    """The free category on an acyclic generating graph.

    A composite path (g1 then g2) is named ``g2*g1``; identities are named
    ``id_<object>``.  Cyclic generators are rejected (the free category
    would be infinite), as is a graph whose composites, counted exactly
    before any path is listed, exceed the default bound (SizeBound).  Two
    paths that share a name, as a generator named ``h*g`` does with the
    composite of g and h, raise InvalidTable.
    """
    objs = sorted(objects)
    if len(set(objs)) != len(objs):
        raise InvalidTable("duplicate object identifiers")
    adj: dict[str, list[tuple[str, str]]] = {x: [] for x in objs}
    for g, (d, c) in sorted(generators.items()):
        if d not in adj or c not in objs:
            raise InvalidTable(f"generator {g!r} has unknown endpoint")
        adj[d].append((g, c))
    # x -> (the paths out of x, the composites of one with a path out of its
    # end), in depth-first post-order: each object after every object it
    # reaches.  The walk keeps its own stack, and reaching an object still
    # on it closes a cycle
    size: dict[str, tuple[int, int]] = {}
    for root in objs:
        walk = {} if root in size else {root: iter(adj[root])}
        while walk:
            x = next(reversed(walk))
            y = next((y for _, y in walk[x] if y not in size), None)
            if y is None:
                del walk[x]
                n = 1 + sum(size[z][0] for _, z in adj[x])
                size[x] = n, n + sum(size[z][1] for _, z in adj[x])
            elif y in walk:
                raise InvalidTable("generating graph has a cycle; free category would be infinite")
            else:
                walk[y] = iter(adj[y])
    guard("free_category composites", sum(c for _, c in size.values()), DEFAULT_BOUND)

    # every path out of each object, listed in the same order
    paths: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for x in size:
        items: list[tuple[tuple[str, ...], str]] = [((), x)]
        for g, y in adj[x]:
            items.extend(((g,) + rest, end) for rest, end in paths[y])
        paths[x] = items

    def name(path: tuple[str, ...], start: str) -> str:
        return "*".join(reversed(path)) if path else f"id_{start}"

    parts = named_parts(((path, x, end) for x, items in paths.items() for path, end in items),
                        lambda path, x, end: name(path, x))
    arrows = {f: (x, end) for f, (_, x, end) in parts.items()}
    identities = {x: f"id_{x}" for x in objs}
    compose: dict[tuple[str, str], str] = {}
    for x, items in paths.items():
        for path, end in items:
            f = name(path, x)
            for path2, _ in paths[end]:
                compose[(name(path2, end), f)] = name(path + path2, x)
    # valid because paths are: the names are distinct, the empty path is a
    # unit and concatenation is associative
    return mark_valid(FinCat(tuple(objs), arrows, identities, compose))
