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
table is total, that each J(c) holds the maximal sieve, that each cover is
a sieve and that J(c) is closed under adding a principal sieve.  No sieve
is listed to validate a table; one that fails is reported by the first
axiom `minimal` finds broken, with its witness.  The generated, trivial
and slice topologies satisfy the axioms as built, so they are recorded
as checked when built, the way `mark_valid` records a value; a
`from_minimal` topology and a raw table are checked on first read.  A
set of arrows into c is a sieve iff it holds the principal sieve
{f.g : g into dom f} of each of its arrows f; the category caches
those, so checking, generating and listing sieves composes no arrows.
Topologies are entered as generating families per object; M_c is found
as a fixpoint of the stability and transitivity axioms, and a slice
topology lifts M_dom f.  The sheaf conditions and the
plus construction take the matching families on M_c, the terminal stage
of the colimit over covering sieves: Z is a sheaf (separated) iff
Z(c) -> Match(M_c, Z) is a bijection (an injection) at every c.

The arrow geometry of the M_c is compiled once per topology into a
`RestrictionPlan` (`GrothTopology.plan`): each M_c's arrows in sorted
order, the compatibility triples (i, g, k) with arrows[k] = arrows[i].g,
whether M_c is maximal, and every f: d -> c in the base's arrow order
with a reader of the positions in M_c of f.h for h in M_d.  A matching
family is then a tuple of values in arrow order, checked against the
triples whose g is no identity (Z is validated first, and Z(id) = id
settles the others), restricted along f by reading positions, and
compared with the restriction tuples of Z(c); no presheaf recomposes
arrows.  The kernels search only where a least cover can fail:
- where some domain of M_c has no section, Match(M_c, Z), Z+(c) and Z(c)
  are empty and the sheaf conditions hold at c vacuously;
- where M_c is maximal (id_c ∈ M_c), every family is the restriction
  tuple of its value at id_c, so Match(M_c, Z) ≅ Z(c) and the sheaf
  conditions hold at c; the families are the sorted restriction tuples.
No family is enumerated at such a c and no bound is spent there, so no
SizeBound names a maximal least cover.  The value pools of a valid Z are
sorted, so product order is sorted order.  `compatible_families` is the
one enumeration of such tuples: the matching families here, and in
`stacks` the morphism families of the stack conditions and the isos of
effectiveness witnesses.  A sieve plan also indexes the cocycle
condition of descent data (`SievePlan.cocycles`), so checking a datum
composes no arrow of the base; the index is built on its first read, so
the sheaf kernels and `plus`, which never read it, never build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
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
    _known(cat, arrows)
    cods = {cat.cod(f) for f in arrows}
    if len(cods) != 1:
        raise MixedCodomain(arrows)
    (c,) = cods
    principal = cat._principal
    return Sieve(c, frozenset().union(*(principal[f] for f in arrows)))


def _known(cat: FinCat, arrows: Iterable[str]) -> None:
    """Raise InvalidTable naming the first of arrows that cat lacks."""
    unknown = next((f for f in arrows if f not in cat.arrows), None)
    if unknown is not None:
        raise InvalidTable(f"unknown arrow {unknown!r}")


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
    of each of its arrows; a set holding an unknown arrow is none."""
    principal = cat._principal
    return s.arrows <= frozenset(cat.arrows_into(s.at)) and all(
        principal[f] <= s.arrows for f in s.arrows
    )


def pullback_sieve(cat: FinCat, g: str, s: Sieve) -> Sieve:
    """g*S = the arrows h into dom(g) with g.h in S."""
    _known(cat, [g])
    if cat.cod(g) != s.at:
        raise InvalidTable(f"pullback_sieve: {g!r} does not land at {s.at!r}")
    d = cat.dom(g)
    return Sieve(d, frozenset(h for h in cat.arrows_into(d) if cat.compose(g, h) in s.arrows))


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

    ``maximal`` says that the sieve holds the identity of its object c, so
    it is every arrow into c.  A compatible family t is then the
    restriction tuple of its value at id_c, and each x in Z(c) restricts
    to its own family: Match(S, Z) ≅ Z(c), with no search.

    ``base`` is the category the plan is on; it stays out of equality,
    hashing and repr."""

    arrows: tuple[str, ...]
    doms: tuple[str, ...]
    triples: tuple[tuple[int, str, int], ...]
    checks: tuple[tuple[int, str, int], ...]
    maximal: bool
    base: FinCat = field(compare=False, repr=False)

    @cached_property
    def cocycles(self) -> tuple[tuple[int, int, int, str], ...]:
        """The index of the cocycle condition of data that hold one iso per
        triple: (a, b, n, h) for every triple a = (i, g, k) and every h
        into dom g, where b is the triple (k, h) and n the triple
        (i, g.h), in the order of a and then of h.  Built on first read:
        only descent data read it, and the sheaf kernels never do."""
        cat, triples = self.base, self.triples
        triple_at = {(i, g): a for a, (i, g, _) in enumerate(triples)}
        return tuple((a, triple_at[k, h], triple_at[i, cat.compose(g, h)], h)
                     for a, (i, g, k) in enumerate(triples)
                     for h in cat.arrows_into(self.doms[k]))


def sieve_plan(cat: FinCat, s: Sieve) -> SievePlan:
    """The plan of s; InvalidTable if s is no sieve on s.at: an unknown
    arrow, an arrow into another object, or f.g outside s."""
    arrows = s.sorted_arrows()
    _known(cat, arrows)
    position = {f: i for i, f in enumerate(arrows)}
    doms = tuple(cat.dom(f) for f in arrows)
    triples = []
    for i, f in enumerate(arrows):
        if cat.cod(f) != s.at:
            raise InvalidTable(f"{f!r} does not land at {s.at!r}")
        for g in cat.arrows_into(doms[i]):
            k = position.get(cat.compose(f, g))
            if k is None:
                raise InvalidTable(f"{f!r}.{g!r} leaves the sieve at {s.at!r}")
            triples.append((i, g, k))
    checks = tuple(t for t in triples if not cat.is_identity(t[1]))
    return SievePlan(arrows, doms, tuple(triples), checks,
                     cat.identities.get(s.at) in s.arrows, cat)


@dataclass(frozen=True)
class RestrictionPlan:
    """The sieve plan of each least cover M_c, and every arrow f: d -> c as
    (f, d, c, read) in the base's arrow order.  read takes a family t on
    M_c to its restriction along f, the tuple of t at the positions in M_c
    of f.h for h in M_d, in M_d's arrow order; it is None at an identity,
    along which a family stays put."""

    covers: Mapping[str, SievePlan]
    arrows: tuple[tuple[str, str, str, Callable[[tuple], tuple] | None], ...]


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
    arrows = tuple(
        (f, d, c, None if cat.is_identity(f) else
         _reader(tuple(position[c][cat.compose(f, h)] for h in covers[d].arrows)))
        for f, (d, c) in cat.arrows.items()
    )
    return RestrictionPlan(covers, arrows)


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
        `minimal` checks the axioms on them on its first read, since
        nothing is recorded as checked here, and `covers` lists them only
        when read."""
        return cls(base, _SievesAbove(base, dict(minimal)))

    @cached_property
    def minimal(self) -> dict[str, Sieve]:
        """The least cover M_c = ∩ J(c) per object, as built or derived
        from a raw covers table, with the axioms checked on it once.  A
        table that is no topology raises AxiomViolation naming the first
        axiom found broken, in this order:
        "coverage" (the table misses an object, the first one named);
        then object by object, "maximality" (a raw J(c) misses the
        maximal sieve on c), "well-formed" (a raw cover, or a built M_c,
        is no sieve on c; one that holds an unknown arrow raises
        InvalidTable naming it instead) and "intersection" (M_c does not
        cover); then "stability" (f*M_c ⊉ M_d for some f: d -> c, in
        arrow order); then "transitivity" (M_c ⊄ {f.h : f in M_c, h in
        M_dom f}, or a raw J(c) misses S ∪ ↓g for a cover S).  Where
        several covers in one J(c) fail, the first in sorted arrow order
        is named.  The raw checks cost a pass over the table, list no
        sieve and sort only the covers that fail.

        `topology_from_generators` and `slice_topology` build least
        covers that satisfy the axioms, and record them here as checked
        (`_built`); `from_minimal` records nothing."""
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
            if raw and maximal_sieve(cat, c) not in covers[c]:
                raise AxiomViolation("maximality", c)
            bad = [s for s in (covers[c] if raw else (m,)) if s.at != c or not is_sieve(cat, s)]
            if bad:
                s = _by_arrows(bad)[0]
                _known(cat, s.sorted_arrows())
                raise AxiomViolation("well-formed", (c, s.sorted_arrows()))
            if raw and m not in covers[c]:
                raise AxiomViolation("intersection", (c, m.sorted_arrows()))
        for f, (d, c) in cat.arrows.items():
            if not minimal[d] <= pullback_sieve(cat, f, minimal[c]):
                raise AxiomViolation("stability", (c, minimal[c].sorted_arrows(), f))
        for c, m in minimal.items():
            if not m.arrows <= _composite(cat, minimal, m):
                raise AxiomViolation("transitivity", (c, m.sorted_arrows()))
            if raw:
                _check_upward_closed(cat, c, covers[c])
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


def _built(base: FinCat, least: Mapping[str, Sieve]) -> GrothTopology:
    """GrothTopology.from_minimal(base, least) for least covers tck built
    to satisfy the axioms, with `minimal` recorded as checked, the way
    mark_valid records a value."""
    j = GrothTopology.from_minimal(base, least)
    j.__dict__["minimal"] = j.covers.least
    return j


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
    # the last round changed nothing, so every axiom holds
    return _built(cat, minimal), report


def _composite(cat: FinCat, minimal: Mapping[str, Sieve], m: Sieve) -> frozenset[str]:
    """{f.h : f in m, h in M_dom f}, which holds m iff transitivity does at m.at."""
    return frozenset(cat.compose(f, h) for f in m.arrows for h in minimal[cat.dom(f)].arrows)


def _check_upward_closed(cat: FinCat, c: str, covers: Iterable[Sieve]) -> None:
    """Raise AxiomViolation("transitivity") unless S ∪ ↓g is a cover for
    every cover S and every g into c, naming the first failing S in
    sorted arrow order and its first g.  The covers are sieves on c, so
    they are compared as arrow sets, and S ∪ ↓g = S for g in S."""
    table = {s.arrows for s in covers}
    principal, into = cat._principal, cat.arrows_into(c)

    def first_up(s: Sieve) -> frozenset[str] | None:
        for g in into:
            if g not in s.arrows:
                up = s.arrows | principal[g]
                if up not in table:
                    return up
        return None

    bad = [s for s in covers if first_up(s) is not None]
    if bad:
        s = _by_arrows(bad)[0]
        raise AxiomViolation("transitivity", (c, tuple(sorted(first_up(s))), s.sorted_arrows()))


def validate_topology(j: GrothTopology) -> Report:
    """Verify coverage, well-formedness, maximality, stability and
    transitivity, as `GrothTopology.minimal` decides them.

    j passes iff `minimal` does: one pass over a raw table, one pullback
    per arrow and no sieve listed, and nothing at all on a topology tck
    built, which recorded `minimal` as checked.  A table that is no
    topology fails with the one axiom `minimal` finds broken first, as
    (kind, *witness), the way `is_sheaf` reports its first failing
    family.
    """
    report = Report("validate_topology")
    try:
        j.minimal
    except AxiomViolation as exc:
        witness = exc.witness if isinstance(exc.witness, tuple) else (exc.witness,)
        report.fail((exc.kind, *witness))
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
    # lifted from j's checked least covers, so a topology
    out = j._slices[c] = _built(sl, {
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
    in the order of the product of the value pools, which is sorted order:
    Z is valid, so each pool is sorted.  A domain with no section leaves
    no family, and then no action is read.  Only p.checks are compared:
    Z(id) = id settles the identity triples."""
    pools = [Z.on_objects[d] for d in p.doms]
    if not all(pools):
        return []
    return compatible_families("matching_families", pools,
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
    restrict to it, counted once over Z(c).  A maximal M_c settles c with
    no search and no bound: each family there has exactly one
    amalgamation."""
    if Z.base != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    Z.validate()
    report = Report(command)
    for c, p in j.plan.covers.items():
        if p.maximal:  # each family has one amalgamation
            continue
        families = _families(Z, p, bound)
        if not families:  # no family has amalgamations to count
            continue
        by_family = tally(Z.on_objects[c], restrictions(Z, p, c))
        for t in families:
            n = len(by_family.get(t, ()))
            if fails(n):
                return report.fail((c, p.arrows, dict(zip(p.arrows, t)), n))
    return report


# -- plus construction ------------------------------------------------------------------


@dataclass(frozen=True)
class PlusConstruction:
    presheaf: SetPresheaf
    unit: PresheafMap


@cache
def _labels(n: int) -> tuple[str, ...]:
    """q0, ..., q(n-1): the sections of a Z+(c) with n of them."""
    return tuple(f"q{i}" for i in range(n))


def plus(Z: SetPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> PlusConstruction:
    """One application of the plus construction.

    The colimit over the covers at c has a terminal stage at M_c = ∩ J(c),
    so Z+(c) is the set of matching families on M_c, labelled q0, q1, ...
    in sorted family order, which is the product order of Z's sorted
    pools.  Z+(c) is empty, with no action read, where some domain of M_c
    has no section.  The restriction tuples of Z(c) are read once per
    object: they give the unit, and at a maximal M_c they are the
    families, sorted, with no enumeration and no bound spent.  A family
    restricts along f by the reader the plan compiled for f, and along an
    identity it stays put; the arrow tables are built in one pass over the
    plan's arrows.  The labels' string order, which orders Z+(c), is their
    numeric order up to q9.  A raw j that is no topology raises
    AxiomViolation (see GrothTopology.minimal).
    """
    cat = Z.base
    if cat != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    Z.validate()
    plan = j.plan
    rows: dict[str, list[tuple[str, ...]]] = {}
    labels: dict[str, dict[tuple[str, ...], str]] = {}
    sections: dict[str, tuple[str, ...]] = {}
    families: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {}  # (q, family)
    for c, p in plan.covers.items():
        if p.maximal:
            rows[c] = restrictions(Z, p, c)
            found = sorted(rows[c])
        else:
            found = _families(Z, p, bound)
            rows[c] = restrictions(Z, p, c) if found else []
        if not found:  # and so no section, as each restricts to a family
            labels[c], sections[c], families[c] = {}, (), ()
            continue
        n = len(found)
        qs = _labels(n)
        labels[c] = dict(zip(found, qs))
        if n > 10:  # q10 sorts before q2
            qs, found = zip(*sorted(zip(qs, found)))
        sections[c], families[c] = qs, tuple(zip(qs, found))
    on_arrows: dict[str, dict[str, str]] = {}
    for f, d, c, read in plan.arrows:
        if not families[c]:
            on_arrows[f] = {}
        elif read is None:
            on_arrows[f] = {q: q for q in sections[c]}
        else:
            at_d = labels[d]
            on_arrows[f] = {q: at_d[read(t)] for q, t in families[c]}
    # valid because restricting along f then g reads family[f.g.h], as f.g does
    presheaf = mark_valid(SetPresheaf(cat, sections, on_arrows))
    unit = mark_valid(PresheafMap(Z, presheaf, {
        c: dict(zip(Z.on_objects[c], map(labels[c].__getitem__, rows[c]))) if rows[c] else {}
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
