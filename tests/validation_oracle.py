"""Reference validators for categories, set-valued functors, 2-natural
transformations and maps into the classifier, and the category of
elements as it was first built.

``tck.fincat`` and ``tck.prestack`` validate on tables bound to locals,
one set of elements per object, and, for a 2-natural transformation, on
the tables of its naturality squares.  The oracles here read every table
through the accessor methods, test membership in the element tuples, and
compare each square as two composite functors built with
``compose_functors``.  ``tck.classifier`` compares the parts a map was
given by with its fibre functor in place; the oracle builds the derived
parts and compares them whole.  They run the same checks in the same
order, so the first failure, its class and its message must equal the
library's.  ``elements_of`` builds its composition table through
``composition_table`` with a composite per pair, and its tables must
equal ``tck.cat2``'s, in dict order.
"""

from tck.cat2 import DiscOpfibCat, _fibres, _pair
from tck.errors import IllTypedComposite, InvalidTable, MissingIdentity, NonAssociative
from tck.fincat import FinCat, FinFunctor, compose_functors, composition_table, named_parts
from tck.prestack import elements_category


def validate_category(self) -> None:
    """What ``FinCat.validate`` checks."""
    seen = set(self.objects)
    if len(seen) != len(self.objects):
        raise InvalidTable("duplicate object identifiers")
    for f, (d, c) in self.arrows.items():
        if d not in seen or c not in seen:
            raise InvalidTable(f"arrow {f!r} has unknown endpoint ({d!r}, {c!r})")
    for c in self.objects:
        i = self.identities.get(c)
        if i is None or i not in self.arrows:
            raise MissingIdentity(c, "no identity arrow assigned")
        if self.arrows[i] != (c, c):
            raise MissingIdentity(c, f"assigned identity {i!r} is not an endo-arrow on {c!r}")
    ill_typed = [(g, f) for g, f in self.compose_table
                 if g not in self.arrows or f not in self.arrows or self.cod(f) != self.dom(g)]
    for g, f in sorted(ill_typed)[:1]:
        raise IllTypedComposite(g, f, f"cod({f!r}) != dom({g!r})")
    missing = [(g, f) for f in self.arrows for g in self.arrows_from(self.cod(f))
               if (g, f) not in self.compose_table]
    for g, f in sorted(missing)[:1]:
        raise IllTypedComposite(g, f, "composable pair missing from table")
    for (g, f), h in self.compose_table.items():
        if h not in self.arrows:
            raise IllTypedComposite(g, f, f"result {h!r} is not an arrow")
        if self.arrows[h] != (self.dom(f), self.cod(g)):
            raise IllTypedComposite(g, f, f"result {h!r} has wrong endpoints")
    for f in self.arrows:
        if self.compose(self.id_of(self.cod(f)), f) != f:
            raise MissingIdentity(self.cod(f), f"left identity law fails on {f!r}")
        if self.compose(f, self.id_of(self.dom(f))) != f:
            raise MissingIdentity(self.dom(f), f"right identity law fails on {f!r}")
    ids = set(self.identities.values())
    for f in self.arrows:
        if f in ids:
            continue
        for g in self.arrows_from(self.cod(f)):
            if g in ids:
                continue
            gf = self.compose(g, f)
            for h in self.arrows_from(self.cod(g)):
                if h not in ids and self.compose(h, gf) != self.compose(self.compose(h, g), f):
                    raise NonAssociative(h, g, f)


def validate_set_valued(self) -> None:
    """What ``SetPresheaf.validate`` and ``FinSetFunctor.validate`` check."""
    if set(self.on_objects) != set(self.base.objects):
        raise InvalidTable(f"{self._what} object table is not total")
    for c, elems in self.on_objects.items():
        if len(set(elems)) != len(elems) or tuple(sorted(elems)) != tuple(elems):
            raise InvalidTable(f"element table at {c!r} must be sorted and duplicate-free")
    if set(self.on_arrows) != set(self.base.arrows):
        raise InvalidTable(f"{self._what} arrow table is not total")
    letter = self._letter
    for f, fun in self.on_arrows.items():
        src, tgt = self._ends(f)
        if set(fun) != set(self.on_objects[src]):
            raise InvalidTable(f"action of {f!r} not defined on all of {letter}({src!r})")
        for x, y in fun.items():
            if y not in self.on_objects[tgt]:
                raise InvalidTable(f"action of {f!r} sends {x!r} outside {letter}({tgt!r})")
    for c in self.base.objects:
        i = self.base.id_of(c)
        if any(self.on_arrows[i][x] != x for x in self.on_objects[c]):
            raise InvalidTable(f"identity on {c!r} does not act as identity")
    acts_from = 1 if self._contravariant else 0
    for f, g, fg in self.base._proper_composites:
        first, then = (f, g) if self._contravariant else (g, f)
        for x in self.on_objects[self.base.arrows[first][acts_from]]:
            if self.on_arrows[fg][x] != self.on_arrows[then][self.on_arrows[first][x]]:
                raise InvalidTable(f"functoriality fails on composite ({f!r}, {g!r})")


def validate_two_nat(self) -> None:
    """What ``TwoNat.validate`` checks once both presheaves are valid."""
    if self.source.base != self.target.base:
        raise InvalidTable("two-natural transformation across different sites")
    base = self.source.base
    if set(self.components) != set(base.objects):
        raise InvalidTable("component table is not total")
    for c in base.objects:
        comp = self.components[c]
        if comp.source != self.source.on_objects[c] or \
           comp.target != self.target.on_objects[c]:
            raise InvalidTable(f"component at {c!r} has wrong endpoints")
        comp.validate()
    for f, (d, c) in base.arrows.items():
        lhs = compose_functors(self.target.on_arrows[f], self.components[c])
        rhs = compose_functors(self.components[d], self.source.on_arrows[f])
        if lhs != rhs:
            raise InvalidTable(f"strict naturality fails on {f!r}")


def validate_map_to_omega(self) -> None:
    """What ``MapToOmega.validate`` checks, against the derived parts."""
    F = self.source
    if F.base != self.site:
        raise InvalidTable("map-to-omega site does not match its source presheaf")
    if self.fibre_functor.base != elements_category(F):
        raise InvalidTable("fibre functor does not live on elements_category(F)")
    if self.parts is not None:
        object_part, arrow_part = self.parts
        for key, Z in object_part.items():
            if Z.base != self.object_part[key].base:
                raise InvalidTable(f"object_part at {key!r} is not on slice(C, {key[0]!r})")
            if Z != self.object_part[key]:
                raise InvalidTable(f"strict naturality of object_part fails at {key!r}")
        for key, m in arrow_part.items():
            if m != self.arrow_part[key]:
                raise InvalidTable(f"strict naturality of arrow_part fails at {key!r}")
    self.fibre_functor.validate()


def elements_of(z):
    """``cat2.elements_of``, with each composite found through the part
    tables of a pair."""
    z.validate()
    B = z.base
    obj_parts = named_parts(((b, x) for b in B.objects for x in z.on_objects[b]), _pair)
    arr_parts = named_parts(((f, x) for f in B.arrows for x in z.on_objects[B.dom(f)]), _pair)
    arrows = {
        name: (_pair(B.dom(f), x), _pair(B.cod(f), z.on_arrows[f][x]))
        for name, (f, x) in arr_parts.items()
    }
    identities = {o: _pair(B.id_of(b), x) for o, (b, x) in obj_parts.items()}
    compose = composition_table(arrows, lambda n2, n1: _pair(
        B.compose(arr_parts[n2][0], arr_parts[n1][0]), arr_parts[n1][1]))
    total = FinCat(tuple(sorted(obj_parts)), arrows, identities, compose)
    proj = FinFunctor(total, B, {o: b for o, (b, _) in obj_parts.items()},
                      {n: f for n, (f, _) in arr_parts.items()})
    lifts = {(_pair(B.dom(f), x), f): n for n, (f, x) in arr_parts.items()}
    return DiscOpfibCat(proj, _fibres(proj), lifts)
