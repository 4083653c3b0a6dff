"""Finite sites: sieves, Grothendieck topologies, sheaf conditions, plus
construction.

On a finite category the covering sieves at c are exactly the sieves that
contain one least cover M_c = ∩ J(c), and f*M_c ⊇ M_d for f: d -> c.  So
every topology tck builds is held as its M_c (`GrothTopology.from_minimal`:
generated, trivial and slice topologies), and its `covers` lists the
sieves above M_c only when read.  A raw covers table, as `raw` document
blocks give, keeps its table and derives M_c from it.
`GrothTopology.minimal` is the one place that checks the axioms, once per
topology and in polynomial time: on a raw table it also checks that the
table is total, that each cover is a sieve and that J(c) is closed under
adding a principal sieve, and every cover and sieve is visited only to
list the counterexamples of a table that fails.  A set of arrows into c
is a sieve iff it holds the principal sieve {f.g : g into dom f} of each
of its arrows f; the category caches those, so checking, generating and
listing sieves composes no arrows.  Topologies are entered as generating families per
object; M_c is found as a fixpoint of the stability and transitivity
axioms, and a slice topology lifts M_dom f.  The sheaf conditions and the
plus construction take the matching families on M_c, the terminal stage
of the colimit over covering sieves: Z is a sheaf (separated) iff
Z(c) -> Match(M_c, Z) is a bijection (an injection) at every c.

The arrow geometry of the M_c is compiled once per topology into a
`RestrictionPlan` (`GrothTopology.plan`): each M_c's arrows in sorted
order, the compatibility triples (i, g, k) with arrows[k] = arrows[i].g,
and for each f: d -> c the positions in M_c of f.h for h in M_d.  A
matching family is then a tuple of values in arrow order, checked against
the triples whose g is no identity (Z is validated first, and Z(id) = id
settles the others), restricted along f by reading positions, and
compared with the restriction tuples of Z(c); no presheaf recomposes
arrows.  `compatible_families` is the one enumeration of such tuples:
the matching families here, and in `stacks` the morphism families of
the stack conditions and the isos of effectiveness witnesses.  A sieve
plan also indexes the cocycle condition of descent data
(`SievePlan.cocycles`), so checking a datum composes no arrow of the
base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import AxiomViolation, InvalidTable, MixedCodomain, UnknownObject
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    PresheafMap,
    SetPresheaf,
    bounded_product,
    compose_presheaf_maps,
    guard,
    mark_valid,
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
    """Close a family of arrows with common codomain under precomposition:
    the union of their principal sieves."""
    arrows = list(arrows)
    if not arrows:
        raise MixedCodomain(arrows)
    unknown = next((f for f in arrows if f not in cat.arrows), None)
    if unknown is not None:
        raise InvalidTable(f"unknown arrow {unknown!r}")
    cods = {cat.cod(f) for f in arrows}
    if len(cods) != 1:
        raise MixedCodomain(arrows)
    (c,) = cods
    principal = cat._principal
    return Sieve(c, frozenset().union(*(principal[f] for f in arrows)))


def sieve_generate_at(cat: FinCat, c: str, arrows: Iterable[str]) -> Sieve:
    """Like sieve_generate but tolerates the empty family (empty sieve at c);
    an unknown c raises UnknownObject whatever the family."""
    if c not in cat.objects:
        raise UnknownObject(c)
    arrows = list(arrows)
    if not arrows:
        return empty_sieve(c)
    s = sieve_generate(cat, arrows)
    if s.at != c:
        raise MixedCodomain(arrows)
    return s


def principal_sieves(cat: FinCat, c: str) -> list[frozenset[str]]:
    """The arrows of the sieve generated by each arrow into c."""
    principal = cat._principal
    return [principal[g] for g in cat.arrows_into(c)]


def _by_arrows(sieves: Iterable[Sieve]) -> list[Sieve]:
    return sorted(sieves, key=lambda s: s.sorted_arrows())


def is_sieve(cat: FinCat, s: Sieve) -> bool:
    """A set of arrows into s.at is a sieve iff it holds the principal sieve
    of each of its arrows."""
    principal = cat._principal
    return all(cat.cod(f) == s.at for f in s.arrows) and all(
        principal[f] <= s.arrows for f in s.arrows
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


# -- restriction plans --------------------------------------------------------------


@dataclass(frozen=True)
class SievePlan:
    """A sieve's arrows in sorted order, their domains, and its
    compatibility triples: (i, g, k) for every arrows[i] and every g into
    its domain, identities included, with arrows[k] = arrows[i].g.  A
    family over the sieve is a tuple t of values in arrow order, and it is
    compatible iff t[k] = Z(g)(t[i]) for every triple.

    ``checks`` keeps the triples whose g is no identity: on a presheaf
    Z(id) = id, so an identity triple (i, id, i) holds for every t.  The
    test is on g, not on i != k: for an idempotent e with f.e = f the
    triple (i, e, i) is a real check.  ``triples`` stays whole for the
    pseudo-functorial data (descent data, Cat-valued stacks), where the
    iso at an identity is data, and for validating a family against a
    presheaf that is not known to be valid.

    ``cocycles`` indexes the cocycle condition of such data, which hold
    one iso per triple: (a, b, n, h) for every triple a = (i, g, k) and
    every h into dom g, where b is the triple (k, h) and n the triple
    (i, g.h), in the order of a and then of h."""

    arrows: tuple[str, ...]
    doms: tuple[str, ...]
    triples: tuple[tuple[int, str, int], ...]
    checks: tuple[tuple[int, str, int], ...]
    cocycles: tuple[tuple[int, int, int, str], ...]


def sieve_plan(cat: FinCat, s: Sieve) -> SievePlan:
    arrows = s.sorted_arrows()
    position = {f: i for i, f in enumerate(arrows)}
    doms = tuple(cat.dom(f) for f in arrows)
    triples = []
    for i, f in enumerate(arrows):
        for g in cat.arrows_into(doms[i]):
            k = position.get(cat.compose(f, g))
            if k is None:
                raise InvalidTable(f"{f!r}.{g!r} leaves the sieve at {s.at!r}")
            triples.append((i, g, k))
    checks = tuple(t for t in triples if not cat.is_identity(t[1]))
    triple_at = {(i, g): a for a, (i, g, _) in enumerate(triples)}
    cocycles = tuple((a, triple_at[k, h], triple_at[i, cat.compose(g, h)], h)
                     for a, (i, g, k) in enumerate(triples) for h in cat.arrows_into(doms[k]))
    return SievePlan(arrows, doms, tuple(triples), checks, cocycles)


@dataclass(frozen=True)
class RestrictionPlan:
    """The sieve plan of each least cover M_c, and for each arrow f: d -> c
    a reader of the positions in M_c of f.h for h in M_d, in M_d's arrow
    order: a family t on M_c restricts along f to restrict[f](t), the
    tuple of t at those positions."""

    covers: Mapping[str, SievePlan]
    restrict: Mapping[str, Callable[[tuple], tuple]]


def _reader(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """t -> tuple(t[i] for i in positions) as one itemgetter call; a slice
    keeps the result a tuple for fewer than two positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _restriction_plan(j: "GrothTopology") -> RestrictionPlan:
    """The plan of j's least covers; f.h lies in M_c for h in M_d because
    GrothTopology.minimal checked f*M_c ⊇ M_d."""
    cat = j.base
    covers = {c: sieve_plan(cat, m) for c, m in j.minimal.items()}
    position = {c: {f: i for i, f in enumerate(p.arrows)} for c, p in covers.items()}
    restrict = {
        f: _reader(tuple(position[c][cat.compose(f, h)] for h in covers[d].arrows))
        for f, (d, c) in cat.arrows.items()
    }
    return RestrictionPlan(covers, restrict)


# -- topologies ---------------------------------------------------------------------


def sieves_above(cat: FinCat, m: Sieve) -> frozenset[Sieve]:
    """Every sieve on m.at that contains m, each reached from m by adding
    one principal sieve at a time; SizeBound("covering_sieves") trips past
    the default bound."""
    principal = principal_sieves(cat, m.at)
    seen = {m.arrows}
    todo = [m.arrows]
    while todo:
        s = todo.pop()
        for up in {s | p for p in principal} - seen:
            seen.add(up)
            todo.append(up)
            guard("covering_sieves", len(seen), DEFAULT_BOUND)
    return frozenset(Sieve(m.at, s) for s in seen)


class _SievesAbove(Mapping):
    """The covers of a topology held as its least covers: c -> the sieves
    above least[c], listed on the first read of c."""

    def __init__(self, cat: FinCat, least: Mapping[str, Sieve]):
        self.cat, self.least, self.listed = cat, least, {}

    def __getitem__(self, c: str) -> frozenset[Sieve]:
        if c not in self.listed:
            self.listed[c] = sieves_above(self.cat, self.least[c])
        return self.listed[c]

    def __iter__(self):
        return iter(self.least)

    def __len__(self) -> int:
        return len(self.least)

    def __repr__(self) -> str:
        return f"sieves above {self.least!r}"


@dataclass(frozen=True, eq=True)
class GrothTopology:
    base: FinCat
    covers: Mapping[str, frozenset[Sieve]]

    @classmethod
    def from_minimal(cls, base: FinCat, minimal: Mapping[str, Sieve]) -> "GrothTopology":
        """The topology whose covers at c are the sieves above minimal[c];
        `minimal` checks the axioms on them, and `covers` lists them only
        when read."""
        return cls(base, _SievesAbove(base, dict(minimal)))

    @cached_property
    def minimal(self) -> dict[str, Sieve]:
        """The least cover M_c = ∩ J(c) per object, as built or derived
        from a raw covers table, with the axioms checked on it once.  A
        table that is no topology raises AxiomViolation naming
        "coverage" (the table misses an object, the first one named),
        "well-formed" (a raw cover, or a built M_c, is no sieve on c),
        "intersection" (M_c does not cover), "stability" (f*M_c ⊉ M_d for
        some f: d -> c) or "transitivity" (M_c ⊄ {f.h : f in M_c, h in
        M_dom f}, or a raw J(c) misses S ∪ ↓g for a cover S).  The raw
        checks cost a pass over the table and list no sieve."""
        cat, covers = self.base, self.covers
        missing = sorted(set(cat.objects) - set(covers))
        if missing:
            raise AxiomViolation("coverage", missing[0])
        raw = not isinstance(covers, _SievesAbove)
        minimal = {
            c: Sieve(c, maximal_sieve(cat, c).arrows.intersection(
                *(s.arrows for s in covers[c]))) if raw else covers.least[c]
            for c in cat.objects
        }
        for c, m in minimal.items():
            for s in _by_arrows(covers[c]) if raw else (m,):
                if s.at != c or not is_sieve(cat, s):
                    raise AxiomViolation("well-formed", (c, s.sorted_arrows()))
            if raw and m not in covers[c]:
                raise AxiomViolation("intersection", (c, m.sorted_arrows()))
        for f, (d, c) in cat.arrows.items():
            if not minimal[d] <= pullback_sieve(cat, f, minimal[c]):
                raise AxiomViolation("stability", (c, minimal[c].sorted_arrows(), f))
        for c, m in minimal.items():
            if not m.arrows <= _composite(cat, minimal, m):
                raise AxiomViolation("transitivity", (c, m.sorted_arrows()))
            for s in _by_arrows(covers[c]) if raw else ():
                for up in (Sieve(c, s.arrows | p) for p in principal_sieves(cat, c)):
                    if up not in covers[c]:
                        raise AxiomViolation("transitivity",
                                             (c, up.sorted_arrows(), s.sorted_arrows()))
        return minimal

    @cached_property
    def plan(self) -> RestrictionPlan:
        """The restriction plan of the least covers, compiled once; a raw
        table that is no topology raises as `minimal` does."""
        return _restriction_plan(self)

    @cached_property
    def _slices(self) -> dict[str, "GrothTopology"]:
        """slice_topology results by object."""
        return {}


def trivial_topology(cat: FinCat) -> GrothTopology:
    return GrothTopology.from_minimal(cat, {c: maximal_sieve(cat, c) for c in cat.objects})


def topology_from_generators(
    cat: FinCat, generators: Mapping[str, Iterable[Iterable[str]]]
) -> tuple[GrothTopology, Report]:
    """The least topology in which the generated sieves cover.

    M_c starts as the intersection of the sieves generated at c and shrinks
    to a fixpoint of stability (M_d ∩= f*M_c for f: d -> c) and
    transitivity (M_c = {f.h : f in M_c, h in M_dom f}); the covers at c
    are the sieves above M_c, listed only when read.  The report notes
    ("least-cover", c, arrows of M_c) once per object.
    """
    minimal = {c: maximal_sieve(cat, c) for c in cat.objects}
    for c, fams in generators.items():
        if c not in cat.objects:
            raise UnknownObject(c)
        for fam in fams:
            minimal[c] = Sieve(c, minimal[c].arrows & sieve_generate_at(cat, c, fam).arrows)
    changed = True
    while changed:
        changed = False
        for f, (d, c) in cat.arrows.items():
            pulled = pullback_sieve(cat, f, minimal[c])
            if not minimal[d] <= pulled:
                minimal[d] = Sieve(d, minimal[d].arrows & pulled.arrows)
                changed = True
        for c, m in minimal.items():
            composite = _composite(cat, minimal, m)
            if composite != m.arrows:
                minimal[c] = Sieve(c, composite)
                changed = True
    report = Report("topology_from_generators", witnesses=[
        ("least-cover", c, m.sorted_arrows()) for c, m in sorted(minimal.items())])
    return GrothTopology.from_minimal(cat, minimal), report


def _composite(cat: FinCat, minimal: Mapping[str, Sieve], m: Sieve) -> frozenset[str]:
    """{f.h : f in m, h in M_dom f}, which holds m iff transitivity does at m.at."""
    return frozenset(cat.compose(f, h) for f in m.arrows for h in minimal[cat.dom(f)].arrows)


def validate_topology(j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """Verify coverage, well-formedness, maximality, stability and
    transitivity.

    j passes iff `GrothTopology.minimal` does: at every object c the least
    cover M_c = ∩ J(c) covers, f*M_c ⊇ M_d for f: d -> c, M_c ⊆ {f.h : f in
    M_c, h in M_dom f}, and a raw J(c) is closed under adding a principal
    sieve (so J(c) is every sieve above M_c; maximality follows).  That
    takes one pullback per arrow and lists no sieve.  Only a table that
    fails pulls back every cover and is scanned over all_sieves, which
    lists every counterexample.
    """
    cat = j.base
    report = Report("validate_topology")
    if set(j.covers) != set(cat.objects):
        return report.fail(("coverage", "covers table not total"))
    try:
        j.minimal
        return report
    except AxiomViolation:
        pass
    for c in cat.objects:
        for s in _by_arrows(j.covers[c]):
            if s.at != c or not is_sieve(cat, s):
                return report.fail(("well-formed", c, s.sorted_arrows()))
    for c in cat.objects:
        if maximal_sieve(cat, c) not in j.covers[c]:
            report.fail(("maximality", c))
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


def representable_presheaf(cat: FinCat, b: str) -> SetPresheaf:
    """Hom(-, b) as a finite-set-valued presheaf, valid because cat is."""
    if b not in cat.objects:
        raise UnknownObject(b)
    return mark_valid(SetPresheaf(
        cat,
        {d: cat.hom(d, b) for d in cat.objects},
        {
            f: {g: cat.compose(g, f) for g in cat.hom(c, b)}
            for f, (d, c) in cat.arrows.items()
        },
    ))


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
    dom-image covers dom(f) in the base, so M_f lifts M_dom f.  A base
    table that is no topology raises as its `minimal` does; the result is
    cached on j."""
    hit = j._slices.get(c)
    if hit is not None:
        return hit
    cat = j.base
    sl, _ = slice_cat(cat, c)
    out = j._slices[c] = GrothTopology.from_minimal(sl, {
        f: Sieve(f, frozenset(slice_arrow_name(g, f) for g in j.minimal[cat.dom(f)].arrows))
        for f in sl.objects
    })
    return out


# -- matching families and sheaf conditions -------------------------------------------


@dataclass(frozen=True, eq=True)
class MatchingFamily:
    presheaf: SetPresheaf
    sieve: Sieve
    assignment: Mapping[str, str]

    @validates_once
    def validate(self) -> None:
        if set(self.assignment) != set(self.sieve.arrows):
            raise InvalidTable("matching family not defined on exactly the sieve")
        p = sieve_plan(self.presheaf.base, self.sieve)
        check_family(self.presheaf, p, tuple(self.assignment[f] for f in p.arrows))


def check_family(Z: SetPresheaf, p: SievePlan, t: tuple[str, ...]) -> None:
    """Raise InvalidTable unless t, a value per arrow of p's sieve in arrow
    order, is a matching family of Z, which need not be valid: every value
    lies in Z over its arrow's domain, and every triple of p holds."""
    for f, d, x in zip(p.arrows, p.doms, t):
        if x not in Z.on_objects[d]:
            raise InvalidTable(f"value at {f!r} outside the presheaf")
    for i, g, k in p.triples:
        if t[k] != Z.on_arrows[g][t[i]]:
            raise InvalidTable(f"compatibility fails on ({p.arrows[i]!r}, {g!r})")


def matching_families(Z: SetPresheaf, s: Sieve,
                      bound: int = DEFAULT_BOUND) -> list[MatchingFamily]:
    """All compatible assignments over the sieve."""
    Z.validate()
    p = sieve_plan(Z.base, s)
    return [MatchingFamily(Z, s, dict(zip(p.arrows, t))) for t in _families(Z, p, bound)]


def compatible_families(what: str, pools: Sequence[Sequence],
                        checks: Sequence[tuple[int, Mapping, int]], bound: int) -> list[tuple]:
    """The tuples t of bounded_product(what, pools, bound), in product
    order, with t[k] = act[t[i]] for every (i, act, k) in checks, where
    act maps each value of pools[i]: the one enumeration of compatible
    families, of sections, of morphisms or of isos, over a sieve plan."""
    out = []
    for t in bounded_product(what, pools, bound):
        for i, act, k in checks:
            if t[k] != act[t[i]]:
                break
        else:
            out.append(t)
    return out


def _families(Z: SetPresheaf, p: SievePlan, bound: int) -> list[tuple[str, ...]]:
    """The matching families on p's sieve as value tuples in arrow order,
    in the order of the product of the value pools.  Only p.checks are
    compared: Z is valid, so Z(id) = id settles the identity triples."""
    return compatible_families("matching_families", [Z.on_objects[d] for d in p.doms],
                               [(i, Z.on_arrows[g], k) for i, g, k in p.checks], bound)


def restrictions(Z: SetPresheaf, p: SievePlan, c: str) -> list[tuple[str, ...]]:
    """The family each x in Z(c) restricts to on p's sieve at c, in the
    order of Z(c)."""
    z_fs = [Z.on_arrows[f] for f in p.arrows]
    return [tuple([z_f[x] for z_f in z_fs]) for x in Z.on_objects[c]]


def tally(items: Iterable[str], keys: Iterable[tuple]) -> dict[tuple, list[str]]:
    """key -> the items with that key, in the order given: the sections
    (or arrows) that restrict to each family, found in one pass."""
    out: dict[tuple, list[str]] = {}
    for item, key in zip(items, keys):
        out.setdefault(key, []).append(item)
    return out


def amalgamations(Z: SetPresheaf, s: Sieve, m: MatchingFamily) -> list[str]:
    """All sections at the sieve's object restricting to the family."""
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
    for every cover.  The amalgamations of a family are the sections that
    restrict to it, counted once over Z(c)."""
    if Z.base != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    Z.validate()
    report = Report(command)
    for c, p in j.plan.covers.items():
        by_family = tally(Z.on_objects[c], restrictions(Z, p, c))
        for t in _families(Z, p, bound):
            n = len(by_family.get(t, ()))
            if fails(n):
                return report.fail((c, p.arrows, dict(zip(p.arrows, t)), n))
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
    f*M_c ⊇ M_d, by the positions the plan holds for f; along an identity
    it stays put.  The labels' string order, which orders Z+(c), is their
    numeric order up to q9.  A raw j that is no topology raises
    AxiomViolation (see GrothTopology.minimal).
    """
    cat = Z.base
    if cat != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    Z.validate()
    plan = j.plan
    labels: dict[str, dict[tuple[str, ...], str]] = {}
    families: dict[str, list[tuple[str, tuple[str, ...]]]] = {}  # (q, family) by label
    for c, p in plan.covers.items():
        found = sorted(_families(Z, p, bound))
        labels[c] = {t: f"q{i}" for i, t in enumerate(found)}
        families[c] = list(zip(labels[c].values(), found))
        if len(found) > 10:  # q10 sorts before q2
            families[c].sort()
    sections = {c: tuple(q for q, _ in families[c]) for c in cat.objects}
    identities = cat.identities
    on_arrows: dict[str, dict[str, str]] = {}
    for f, (d, c) in cat.arrows.items():
        if not families[c]:
            on_arrows[f] = {}
        elif d == c and identities[c] == f:
            on_arrows[f] = {q: q for q in sections[c]}
        else:
            at_d, read = labels[d], plan.restrict[f]
            on_arrows[f] = {q: at_d[read(t)] for q, t in families[c]}
    # valid because restricting along f then g reads family[f.g.h], as f.g does
    presheaf = mark_valid(SetPresheaf(cat, sections, on_arrows))
    unit = mark_valid(PresheafMap(Z, presheaf, {
        c: dict(zip(Z.on_objects[c],
                    map(labels[c].__getitem__, restrictions(Z, plan.covers[c], c))))
        for c in cat.objects
    }))
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
