"""Finite sites: sieves, Grothendieck topologies, sheaf conditions, plus
construction.

On a finite category the covering sieves at c are exactly the sieves that
contain one least cover M_c = ∩ J(c), and f*M_c ⊇ M_d for f: d -> c;
`GrothTopology.minimal` derives M_c from a covers table once per topology.
Topologies are entered as generating families per object; M_c is found as
a fixpoint of the stability and transitivity axioms and the covers are the
sieves above it, with every cover beyond the generated ones reported so
nothing covers silently.  A raw covers table is validated on the M_c, and
every cover and sieve is visited only to list the counterexamples of a
table that fails.  The sheaf conditions and the plus construction take the
matching families on M_c, the terminal stage of the colimit over covering
sieves: Z is a sheaf (separated) iff Z(c) -> Match(M_c, Z) is a bijection
(an injection) at every c.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import AxiomViolation, InvalidTable, MixedCodomain, UnknownObject
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    PresheafMap,
    SetPresheaf,
    bounded_product,
    compose_presheaf_maps,
    guard,
    slice_arrow_name,
    slice_cat,
    validates_once,
)
from .report import Report


# -- sieves -----------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class Sieve:
    at: str
    arrows: frozenset[str]

    def sorted_arrows(self) -> tuple[str, ...]:
        return tuple(sorted(self.arrows))

    def __le__(self, other: "Sieve") -> bool:
        return self.at == other.at and self.arrows <= other.arrows


def maximal_sieve(cat: FinCat, c: str) -> Sieve:
    if c not in cat.objects:
        raise UnknownObject(c)
    return Sieve(c, frozenset(cat.arrows_into(c)))


def empty_sieve(c: str) -> Sieve:
    return Sieve(c, frozenset())


def sieve_generate(cat: FinCat, arrows: Iterable[str]) -> Sieve:
    """Close a family of arrows with common codomain under precomposition."""
    arrows = list(arrows)
    if not arrows:
        raise MixedCodomain(arrows)
    cods = {cat.cod(f) for f in arrows}
    if len(cods) != 1:
        raise MixedCodomain(arrows)
    (c,) = cods
    closed = {
        cat.compose(f, g)
        for f in arrows
        for g in cat.arrows_into(cat.dom(f))
    }
    return Sieve(c, frozenset(closed))


def sieve_generate_at(cat: FinCat, c: str, arrows: Iterable[str]) -> Sieve:
    """Like sieve_generate but tolerates the empty family (empty sieve at c)."""
    arrows = list(arrows)
    if not arrows:
        if c not in cat.objects:
            raise UnknownObject(c)
        return empty_sieve(c)
    s = sieve_generate(cat, arrows)
    if s.at != c:
        raise MixedCodomain(arrows)
    return s


def principal_sieves(cat: FinCat, c: str) -> list[frozenset[str]]:
    """The arrows of the sieve generated by each arrow into c."""
    return [sieve_generate(cat, [g]).arrows for g in cat.arrows_into(c)]


def _by_arrows(sieves: Iterable[Sieve]) -> list[Sieve]:
    return sorted(sieves, key=lambda s: s.sorted_arrows())


def is_sieve(cat: FinCat, s: Sieve) -> bool:
    return all(cat.cod(f) == s.at for f in s.arrows) and all(
        cat.compose(f, g) in s.arrows
        for f in s.arrows
        for g in cat.arrows_into(cat.dom(f))
    )


def pullback_sieve(cat: FinCat, g: str, s: Sieve) -> Sieve:
    """g*S = the arrows h into dom(g) with g.h in S."""
    if cat.cod(g) != s.at:
        raise InvalidTable(f"pullback_sieve: {g!r} does not land at {s.at!r}")
    d = cat.dom(g)
    return Sieve(d, frozenset(h for h in cat.arrows_into(d) if cat.compose(g, h) in s.arrows))


def all_sieves(cat: FinCat, c: str, bound: int = DEFAULT_BOUND) -> list[Sieve]:
    """Every sieve on c, by filtering subsets of the arrows into c."""
    into = cat.arrows_into(c)
    guard("all_sieves", 2 ** len(into), bound)
    out = []
    for k in range(len(into) + 1):
        for sub in itertools.combinations(into, k):
            s = Sieve(c, frozenset(sub))
            if is_sieve(cat, s):
                out.append(s)
    return out


# -- topologies ---------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class GrothTopology:
    base: FinCat
    covers: Mapping[str, frozenset[Sieve]]

    @cached_property
    def minimal(self) -> dict[str, Sieve]:
        """The least cover M_c = ∩ J(c) per object.  A raw table where M_c
        does not cover, or f*M_c ⊉ M_d for some f: d -> c, is no topology:
        AxiomViolation names "intersection" or "stability"."""
        cat = self.base
        minimal = {
            c: Sieve(c, maximal_sieve(cat, c).arrows.intersection(
                *(s.arrows for s in self.covers[c])))
            for c in cat.objects
        }
        for c, m in minimal.items():
            if m not in self.covers[c]:
                raise AxiomViolation("intersection", (c, m.sorted_arrows()))
        for f, (d, c) in cat.arrows.items():
            if not minimal[d] <= pullback_sieve(cat, f, minimal[c]):
                raise AxiomViolation("stability", (c, minimal[c].sorted_arrows(), f))
        return minimal

    @cached_property
    def _slices(self) -> dict[str, "GrothTopology"]:
        """slice_topology results by object."""
        return {}


def trivial_topology(cat: FinCat) -> GrothTopology:
    return GrothTopology(cat, {c: frozenset({maximal_sieve(cat, c)}) for c in cat.objects})


def topology_from_generators(
    cat: FinCat,
    generators: Mapping[str, Iterable[Iterable[str]]],
    bound: int = DEFAULT_BOUND,
) -> tuple[GrothTopology, Report]:
    """The least topology in which the generated sieves cover.

    M_c starts as the intersection of the sieves generated at c and shrinks
    to a fixpoint of stability (M_d ∩= f*M_c for f: d -> c) and
    transitivity (M_c = {f.h : f in M_c, h in M_dom f}); the covers at c
    are then the sieves containing M_c.  Every cover beyond the maximal and
    the generated sieves is reported.
    """
    minimal = {c: maximal_sieve(cat, c) for c in cat.objects}
    user: set[Sieve] = set()
    for c, fams in generators.items():
        if c not in cat.objects:
            raise UnknownObject(c)
        for fam in fams:
            s = sieve_generate_at(cat, c, fam)
            minimal[c] = Sieve(c, minimal[c].arrows & s.arrows)
            user.add(s)
    changed = True
    while changed:
        changed = False
        for f, (d, c) in cat.arrows.items():
            pulled = pullback_sieve(cat, f, minimal[c])
            if not minimal[d] <= pulled:
                minimal[d] = Sieve(d, minimal[d].arrows & pulled.arrows)
                changed = True
        for c, m in minimal.items():
            composite = frozenset(
                cat.compose(f, h) for f in m.arrows for h in minimal[cat.dom(f)].arrows
            )
            if composite != m.arrows:
                minimal[c] = Sieve(c, composite)
                changed = True
    covers = {}
    total = 0
    for c, m in minimal.items():
        # every sieve above M_c is reached by adding one principal sieve at a time
        principal = principal_sieves(cat, c)
        seen = {m.arrows}
        todo = [m.arrows]
        while todo:
            s = todo.pop()
            for up in {s | p for p in principal} - seen:
                seen.add(up)
                todo.append(up)
                guard("covering_sieves", total + len(seen), bound)
        total += len(seen)
        covers[c] = frozenset(Sieve(c, s) for s in seen)
    report = Report("topology_from_generators")
    for c in sorted(covers):
        mx = maximal_sieve(cat, c)
        for s in _by_arrows(covers[c]):
            if s not in user and s != mx:
                report.note(("saturated", c, s.sorted_arrows()))
    return GrothTopology(cat, covers), report


def validate_topology(j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """Verify coverage, well-formedness, maximality, stability and
    transitivity.

    Given maximality, j is stable and transitive iff at every object c the
    least cover M_c = ∩ J(c) covers, J(c) is closed under adding a principal
    sieve (so J(c) is every sieve above M_c), f*M_c ⊇ M_d for f: d -> c and
    M_c ⊆ {f.h : f in M_c, h in M_dom f}; that is checked in polynomial time
    with one pullback per arrow.  Only a table that fails pulls back every
    cover and is scanned over all_sieves, which lists every counterexample.
    """
    cat = j.base
    report = Report("validate_topology")
    if set(j.covers) != set(cat.objects):
        return report.fail(("coverage", "covers table not total"))
    for c in cat.objects:
        for s in _by_arrows(j.covers[c]):
            if s.at != c or not is_sieve(cat, s):
                return report.fail(("well-formed", c, s.sorted_arrows()))
    for c in cat.objects:
        if maximal_sieve(cat, c) not in j.covers[c]:
            report.fail(("maximality", c))
    if report.ok and _axioms_on_least_covers(j):
        return report
    for c in cat.objects:
        for s in _by_arrows(j.covers[c]):
            for g in cat.arrows_into(c):
                if pullback_sieve(cat, g, s) not in j.covers[cat.dom(g)]:
                    report.fail(("stability", c, s.sorted_arrows(), g))
    for c in cat.objects:
        for r in all_sieves(cat, c, bound):
            if r in j.covers[c]:
                continue
            for s in _by_arrows(j.covers[c]):
                if all(pullback_sieve(cat, f, r) in j.covers[cat.dom(f)] for f in s.arrows):
                    report.fail(("transitivity", c, r.sorted_arrows(), s.sorted_arrows()))
                    break
    return report


def _axioms_on_least_covers(j: GrothTopology) -> bool:
    """Stability and transitivity of a well-formed covers table that holds
    the maximal sieves, decided on the least covers M_c (see
    validate_topology)."""
    cat = j.base
    try:
        minimal = j.minimal
    except AxiomViolation:
        return False
    for c in cat.objects:
        covers = {s.arrows for s in j.covers[c]}
        if any(s | p not in covers
               for p in principal_sieves(cat, c) for s in covers if not p <= s):
            return False
    return all(
        m.arrows <= {cat.compose(f, h) for f in m.arrows for h in minimal[cat.dom(f)].arrows}
        for m in minimal.values()
    )


def representable_presheaf(cat: FinCat, b: str) -> SetPresheaf:
    """Hom(-, b) as a finite-set-valued presheaf."""
    if b not in cat.objects:
        raise UnknownObject(b)
    return SetPresheaf(
        cat,
        {d: cat.hom(d, b) for d in cat.objects},
        {
            f: {g: cat.compose(g, f) for g in cat.hom(c, b)}
            for f, (d, c) in cat.arrows.items()
        },
    )


def subcanonical_check(j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """Run is_sheaf on every representable presheaf."""
    report = Report("subcanonical_check")
    for b in j.base.objects:
        rep = is_sheaf(representable_presheaf(j.base, b), j, bound)
        if not rep.ok:
            report.fail(("representable", b, rep.counterexamples[0]))
    return report


def slice_topology(j: GrothTopology, c: str) -> GrothTopology:
    """The topology induced on slice(C, c): a sieve covers f iff its
    dom-image covers dom(f) in the base.  The result is validated once and
    cached on j."""
    hit = j._slices.get(c)
    if hit is not None:
        return hit
    cat = j.base
    sl, _ = slice_cat(cat, c)

    def lift_sieve(f: str, s: Sieve) -> Sieve:
        return Sieve(f, frozenset(slice_arrow_name(g, f) for g in s.arrows))

    covers = {
        f: frozenset(lift_sieve(f, s) for s in j.covers[cat.dom(f)]) for f in sl.objects
    }
    out = GrothTopology(sl, covers)
    rep = validate_topology(out)
    if not rep.ok:
        raise AxiomViolation("slice-topology", (c, rep.counterexamples[0]))
    j._slices[c] = out
    return out


# -- matching families and sheaf conditions -------------------------------------------


@dataclass(frozen=True, eq=True)
class MatchingFamily:
    presheaf: SetPresheaf
    sieve: Sieve
    assignment: Mapping[str, str]

    @validates_once
    def validate(self) -> None:
        cat = self.presheaf.base
        if set(self.assignment) != set(self.sieve.arrows):
            raise InvalidTable("matching family not defined on exactly the sieve")
        for f in self.sieve.arrows:
            if self.assignment[f] not in self.presheaf.on_objects[cat.dom(f)]:
                raise InvalidTable(f"value at {f!r} outside the presheaf")
        for f in self.sieve.arrows:
            for g in cat.arrows_into(cat.dom(f)):
                if self.assignment[cat.compose(f, g)] != \
                   self.presheaf.on_arrows[g][self.assignment[f]]:
                    raise InvalidTable(f"compatibility fails on ({f!r}, {g!r})")


def matching_families(Z: SetPresheaf, s: Sieve,
                      bound: int = DEFAULT_BOUND) -> list[MatchingFamily]:
    """All compatible assignments over the sieve, by product-and-filter."""
    cat = Z.base
    arrows = sorted(s.arrows)
    pools = [Z.on_objects[cat.dom(f)] for f in arrows]
    out = []
    for choice in bounded_product("matching_families", pools, bound):
        m = dict(zip(arrows, choice))
        if all(
            m[cat.compose(f, g)] == Z.on_arrows[g][m[f]]
            for f in arrows
            for g in cat.arrows_into(cat.dom(f))
        ):
            out.append(MatchingFamily(Z, s, m))
    return out


def amalgamations(Z: SetPresheaf, s: Sieve, m: MatchingFamily) -> list[str]:
    """All sections at the sieve's object restricting to the family."""
    cat = Z.base
    return [
        x
        for x in Z.on_objects[s.at]
        if all(Z.on_arrows[f][x] == m.assignment[f] for f in s.arrows)
    ]


def is_sheaf(Z: SetPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """Z(c) -> Match(M_c, Z) is a bijection at every c."""
    return _sheaf_condition("is_sheaf", Z, j, bound, lambda n: n != 1)


def is_separated(Z: SetPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """Z(c) -> Match(M_c, Z) is an injection at every c."""
    return _sheaf_condition("is_separated", Z, j, bound, lambda n: n > 1)


def _sheaf_condition(command: str, Z: SetPresheaf, j: GrothTopology, bound: int,
                     fails: Callable[[int], bool]) -> Report:
    """Fail on the first matching family on some M_c whose number of
    amalgamations fails; since f*M_c ⊇ M_d, the M_c decide the condition
    for every cover."""
    if Z.base != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    report = Report(command)
    for c, m in j.minimal.items():
        for fam in matching_families(Z, m, bound):
            n = len(amalgamations(Z, m, fam))
            if fails(n):
                return report.fail((c, m.sorted_arrows(), dict(sorted(fam.assignment.items())), n))
    return report


# -- plus construction ------------------------------------------------------------------


@dataclass(frozen=True)
class PlusConstruction:
    presheaf: SetPresheaf
    unit: PresheafMap


def plus(Z: SetPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> PlusConstruction:
    """One application of the plus construction.

    The colimit over the covers at c has a terminal stage at M_c = ∩ J(c),
    so Z+(c) is the set of matching families on M_c, labelled q0, q1, ...
    in sorted family order.  A family restricts along f: d -> c through
    f*M_c ⊇ M_d.  A raw j that is no topology raises AxiomViolation (see
    GrothTopology.minimal).
    """
    cat = Z.base
    if cat != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    minimal = j.minimal
    families: dict[str, dict[str, dict[str, str]]] = {}
    labels: dict[str, dict[frozenset, str]] = {}
    for c, m in minimal.items():
        keys = sorted(tuple(sorted(fam.assignment.items()))
                      for fam in matching_families(Z, m, bound))
        families[c] = {f"q{i}": dict(key) for i, key in enumerate(keys)}
        labels[c] = {frozenset(key): f"q{i}" for i, key in enumerate(keys)}
    sections = {c: tuple(sorted(families[c])) for c in cat.objects}
    on_arrows = {
        f: {q: labels[d][frozenset((h, families[c][q][cat.compose(f, h)])
                                   for h in minimal[d].arrows)]
            for q in sections[c]}
        for f, (d, c) in cat.arrows.items()
    }
    presheaf = SetPresheaf(cat, sections, on_arrows)
    unit = PresheafMap(Z, presheaf, {
        c: {x: labels[c][frozenset((f, Z.on_arrows[f][x]) for f in minimal[c].arrows)]
            for x in Z.on_objects[c]}
        for c in cat.objects
    })
    # valid because restricting along f then g reads family[f.g.h], as f.g does
    return PlusConstruction(presheaf, unit)


@dataclass(frozen=True)
class Sheafification:
    presheaf: SetPresheaf
    unit: PresheafMap
    first: PlusConstruction
    second: PlusConstruction


def sheafify(Z: SetPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> Sheafification:
    """Plus applied twice; the unit is the composite of the two units."""
    first = plus(Z, j, bound)
    second = plus(first.presheaf, j, bound)
    return Sheafification(
        second.presheaf,
        compose_presheaf_maps(second.unit, first.unit),
        first,
        second,
    )
