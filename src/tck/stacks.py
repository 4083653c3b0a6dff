"""Descent data, stack conditions, and the sheaf-valued classifier.

The stack classifier is never materialized: its gluing property is probed
on concrete descent data of sheaves-on-slices.  A datum glues to the
sheafification M of its gluing presheaf Z, and the compatibility isos are
read off the unit Z -> M: reindexing commutes with sheafification, so the
unit is an iso after reindexing along each arrow of the sieve.  The probe
verifies the compatibility squares and that M is a sheaf, which decides
morphism gluing: Hom(-, M) is a sheaf when M is one, so every compatible
family of maps into M glues, uniquely.

The stack conditions are decided on the least covers, through the sieve
plans of `site`: conditions ii and iii are the sheaf condition of each
hom-presheaf, decided from one tally of restriction tuples per pair of
objects as `site` decides a sheaf; morphism families and effectiveness
isos come from `site.compatible_families`.  A presheaf with discrete
values is a set-valued one, whose stack conditions are the sheaf
conditions of its object presheaf: with at most one arrow per hom-set, a
morphism family is a pair of sections with one restriction tuple, and a
descent datum is a matching family.  `check_stack` decides such an F on
the site kernels, with the report the Cat-valued search would give.  Both
paths skip a maximal least cover, where no condition can fail, so they
search nothing and spend no bound there.  The discrete path meets an
empty least cover through `site._families`, which returns its one
family, the empty one, with no pool built and the estimate of 1 spent,
so the same strata trip the bound.  Cat-valued and sheaf-valued
descent data are validated by one scaffold in sieve-plan order, and they
differ only in their object and iso checks and their join, which also
states effectiveness; one walker over the plan's cocycle index checks the
cocycle condition of both.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, Sequence

from .classifier import MapToOmega, char
from .errors import FactorizationFailed, InvalidTable, SizeBound
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    PresheafMap,
    SetPresheaf,
    bounded_product,
    compose_presheaf_maps,
    guard,
    invert_presheaf_map,
    mark_valid,
    reindex_slice_presheaf,
    reindex_slice_presheaf_map,
    slice_arrow_name,
    _slice_of,
    value_class,
)
from .prestack import CatPresheaf, DiscOpfibPre
from .report import BOUNDED_PASS, FAIL, Report
from .site import (
    GrothTopology,
    Sieve,
    SievePlan,
    _families,
    _first_miscount,
    compatible_families,
    is_sheaf,
    restrictions,
    sheafify,
    sieve_plan,
    slice_topology,
    tally,
)


# -- descent data over a Cat-valued presheaf ----------------------------------------


@value_class
class DescentDatum:
    presheaf: CatPresheaf
    sieve: Sieve
    objects: Mapping[str, str]               # f in S -> object of F(dom f)
    isos: Mapping[tuple[str, str], str]      # (f, g) -> iso F(g)(M_f) -> M_{f.g}


@value_class
class EffectivenessWitness:
    obj: str                                  # M in F(c)
    isos: Mapping[str, str]                   # f -> iso F(f)(M) -> M_f


def validate_descent(d: DescentDatum) -> Report:
    """Verify typing, invertibility and the cocycle condition exhaustively."""
    F = d.presheaf
    base = F.base

    def check_object(f, m):
        return None if m in F.on_objects[base.dom(f)].objects else (m,)

    def check_iso(g, m, target, phi):
        Fd = F.on_objects[base.dom(g)]
        if Fd.arrows.get(phi) != (F.on_arrows[g].on_objects[m], target):
            return "iso-typing", phi
        return None if Fd.is_invertible(phi) else ("iso-invertible", phi)

    return _check_descent("validate_descent", base, d, check_object, check_iso,
                          _after_action(F))


def _check_descent(command: str, base: FinCat, d: DescentDatum | SheafDescentDatum,
                   check_object: Callable, check_iso: Callable, join: Callable) -> Report:
    """The steps both descent kinds share, in the order of d's sieve plan:
    the object keys, each object, the iso keys, each iso in p.triples
    order, and then the cocycle condition through join.  check_object(f,
    M_f) returns None or a detail, reported as ("objects", f, *detail);
    check_iso(g, M_f, M_{f.g}, iso at (f, g)) returns None or a kind and a
    detail, reported as (kind, f, g, *detail).  A sieve that is no sieve
    raises InvalidTable from sieve_plan."""
    report = Report(command)
    p = sieve_plan(base, d.sieve)
    if set(d.objects) != set(p.arrows):
        return report.fail(("objects", "assignment keys differ from the sieve"))
    for f in p.arrows:
        bad = check_object(f, d.objects[f])
        if bad is not None:
            return report.fail(("objects", f, *bad))
    pairs = [(p.arrows[i], g) for i, g, _ in p.triples]
    if set(d.isos) != set(pairs):
        return report.fail(("isos", "iso keys differ from composable pairs"))
    for (f, g), (_, _, k) in zip(pairs, p.triples):
        bad = check_iso(g, d.objects[f], d.objects[p.arrows[k]], d.isos[f, g])
        if bad is not None:
            return report.fail((bad[0], f, g, *bad[1:]))
    for f, g, h in _cocycle_failures(p, [d.isos[pair] for pair in pairs], join):
        report.fail(("cocycle", f, g, h))
    return report


def _cocycle_failures(p: SievePlan, isos: Sequence, join: Callable) -> Iterator[tuple]:
    """The (f, g, h) at which a descent datum over p's sieve fails the
    cocycle condition, in p.cocycles order.  isos holds the datum's iso at
    (arrows[i], g) for each triple (i, g, k) of p, and join(h, later,
    first) is `later` after h's action on `first`: the iso at (f, g.h)
    must be join(h, iso at (f.g, h), iso at (f, g))."""
    for a, b, n, h in p.cocycles:
        if isos[n] != join(h, isos[b], isos[a]):
            i, g, _ = p.triples[a]
            yield p.arrows[i], g, h


def _after_action(F: CatPresheaf) -> Callable:
    """The join of Cat-valued descent data: `later` after F(h)(first) in
    F(dom h).  It also states effectiveness: psi at f.g is the join of g,
    the iso at (f, g) and psi_f."""
    base = F.base
    return lambda h, later, first: F.on_objects[base.dom(h)].compose(
        later, F.on_arrows[h].on_arrows[first])


def _after_reindex(base: FinCat) -> Callable:
    """The join of sheaf-valued descent data: `later` after h*(first)."""
    return lambda h, later, first: compose_presheaf_maps(
        later, reindex_slice_presheaf_map(base, h, first))


def effectiveness(d: DescentDatum, bound: int = DEFAULT_BOUND) -> list[EffectivenessWitness]:
    """All witnesses, by exhaustive search over objects and iso families.
    A datum that validate_descent refuses for anything but the cocycle
    condition (its keys, an object outside F, an iso of the wrong type or
    not invertible) raises InvalidTable naming the first such failure; a
    datum that fails only the cocycle condition has no witness."""
    rep = validate_descent(d)
    if rep.counterexamples and rep.counterexamples[0][0] != "cocycle":
        raise InvalidTable(f"descent datum refused: {rep.counterexamples[0]!r}")
    return _effectiveness(d, sieve_plan(d.presheaf.base, d.sieve), bound)


def _effectiveness(d: DescentDatum, p: SievePlan, bound: int) -> list[EffectivenessWitness]:
    """effectiveness, with the iso families checked against all of p's
    compatibility triples: psi at f.g is d's iso at (f, g) after
    F(g)(psi_f), joined once per candidate psi_f."""
    F = d.presheaf
    arrows = p.arrows
    join = _after_action(F)
    out: list[EffectivenessWitness] = []
    for m in F.on_objects[d.sieve.at].objects:
        pools = []
        for f, df in zip(arrows, p.doms):
            Fd = F.on_objects[df]
            fm = F.on_arrows[f].on_objects[m]
            pools.append([a for a in Fd.hom(fm, d.objects[f]) if Fd.is_invertible(a)])
            if not pools[-1]:
                break  # no iso F(f)(m) -> M_f, so no witness at m
        else:
            checks = [(i, {a: join(g, d.isos[(arrows[i], g)], a) for a in pools[i]}, k)
                      for i, g, k in p.triples]
            for choice in compatible_families("effectiveness", pools, checks, bound):
                out.append(EffectivenessWitness(m, dict(zip(arrows, choice))))
    return out


def _descent_data(F: CatPresheaf, s: Sieve, p: SievePlan, bound: int) -> list[DescentDatum]:
    """All descent data over the sieve s, up to the bound, with an iso
    wanted for each compatibility triple (i, g, k) of p, the plan of s:
    from F(g)(M_f) to M_{f.g}, f = arrows[i].  The candidates are typed
    and invertible as built, so only the cocycle condition is checked, on
    the choice tuple before a datum is built."""
    obj_pools = [F.on_objects[df].objects for df in p.doms]
    total = math.prod(map(len, obj_pools))
    pairs = [(p.arrows[i], g) for i, g, _ in p.triples]
    join = _after_action(F)
    out = []
    for objs in bounded_product("descent data objects", obj_pools, bound):
        iso_pools = []
        for i, g, k in p.triples:
            Fd = F.on_objects[p.doms[k]]
            src = F.on_arrows[g].on_objects[objs[i]]
            iso_pools.append([a for a in Fd.hom(src, objs[k]) if Fd.is_invertible(a)])
            if not iso_pools[-1]:
                break  # no datum on these objects, whose estimate is 0
        else:
            # the estimate counts every object assignment, not just this one
            guard("descent data isos", total * math.prod(map(len, iso_pools)), bound)
            assignment = dict(zip(p.arrows, objs))
            for choice in itertools.product(*iso_pools):
                if next(_cocycle_failures(p, choice, join), None) is None:
                    out.append(DescentDatum(F, s, assignment, dict(zip(pairs, choice))))
    return out


def check_stack(F: CatPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """The three gluing conditions, decided on the least cover M_c.

    Checking them on M_c = ∩J(c) at every c decides them for every cover S:

    - S contains M_c, and f*M_c ⊇ M_d for every f: d -> c.
    - (iii) and (ii) say that each hom-presheaf Hom(x, y) on slice(C, c)
      is a sheaf; as in site._sheaf_condition, the M_d decide that, and
      one tally of the restriction tuples of Hom(x, y) decides both: (iii)
      fails on each pair h < k with one tuple, (ii) on each compatible
      family that is no tuple.  F is validated first, so F(id) = id
      settles the identity triples and the families are checked against
      the plan's `checks`.
    - (i) extends from M_c to S: glue the datum restricted to M_c to some
      M with isos psi_f for f in M_c.  For f: d -> c in S the isos at f.g,
      g in M_d ⊆ f*M_c, form a compatible family of Hom(f*M, M_f) on M_d;
      its unique gluing is psi_f, invertible and coherent by uniqueness.

    Morphism conditions are decided exhaustively; object gluing enumerates
    descent data and is reported as bounded when a stratum trips the bound.
    A maximal M_c is skipped, with no search and no bound spent: every
    condition holds there (see _check_cat_stack), so no bounded stratum
    names it.
    An F that is no strict 2-functor, or lives on another base than j,
    raises InvalidTable.

    An F whose every value is discrete (a valid category with as many
    arrows as objects has only identities) is a set-valued presheaf, and
    its stack conditions are the sheaf conditions of its object presheaf
    Z (c -> F(c).objects, f -> F(f) on objects), decided with the site
    kernels.  That is exact, and gives the report the Cat-valued search
    gives, because every hom-set of F(d) holds at most one arrow:

    - (iii) never fails;
    - x, y in F(c) have a morphism family on M_c, the identities at F(f)x,
      iff they restrict to one tuple of Z, and it glues iff x = y;
    - a descent datum is a matching family t of Z on M_c with identity
      isos, and it is effective iff some m in F(c) restricts to t.

    Each enumeration is guarded on the estimate the Cat-valued search gives
    it, so the same strata trip the bound.
    """
    if F.base != j.base:
        raise InvalidTable("presheaf and topology live on different bases")
    F.validate()
    if all(len(Fc.arrows) == len(Fc.objects) for Fc in F.on_objects.values()):
        return _check_discrete_stack(F, j, bound)
    return _check_cat_stack(F, j, bound)


def _check_cat_stack(F: CatPresheaf, j: GrothTopology, bound: int) -> Report:
    """check_stack on a validated F on j's base, by the Cat-valued search:
    hom-set tallies for (iii) and (ii), enumerated descent data and their
    effectiveness witnesses for (i).

    A maximal M_c (id_c ∈ M_c) is skipped, since every condition holds
    there:

    - (iii): F(id_c) is the identity, so distinct arrows h ≠ k: x -> y
      have distinct restriction tuples;
    - (ii): a compatible morphism family t satisfies t_f = F(f)(t_{id_c}),
      so it is the restriction of t_{id_c} ∈ Hom(x, y);
    - (i): a datum (x, φ) is effective with M = x_{id_c} and ψ_f =
      φ_{id_c,f}: the cocycle condition at (id_c, f, g) is exactly the
      witness equation ψ_{f.g} = φ_{f,g} ∘ F(g)(ψ_f)."""
    report = Report("check_stack")
    for c, s in j.minimal.items():
        p = j.plan.covers[c]
        if p.maximal:
            continue
        Fc = F.on_objects[c]
        arrows = p.arrows
        restrict = [F.on_arrows[f].on_arrows for f in arrows]
        checks = [(i, F.on_arrows[g].on_arrows, k) for i, g, k in p.checks]
        pairs = [(x, y) for x in Fc.objects for y in Fc.objects]
        gluings = []
        # (iii) uniqueness of gluings of morphisms
        for x, y in pairs:
            homs = Fc.hom(x, y)
            rows = [tuple([r[h] for r in restrict]) for h in homs]
            glued = tally(homs, rows)
            gluings.append(glued)
            for h, t in zip(homs, rows):
                for k in glued[t]:
                    if h < k:
                        report.fail(("iii", c, arrows, x, y, h, k))
        # (ii) gluing of morphisms
        for (x, y), glued in zip(pairs, gluings):
            pools = [F.on_objects[df].hom(F.on_arrows[f].on_objects[x],
                                          F.on_arrows[f].on_objects[y])
                     for f, df in zip(arrows, p.doms)]
            try:
                families = compatible_families("stack morphism families", pools, checks, bound)
            except SizeBound:
                report.bounded(f"stack-ii at {c}", bound)
                continue
            for t in families:
                if t not in glued:
                    report.fail(("ii", c, arrows, x, y, tuple(zip(arrows, t))))
        # (i) gluing of objects over enumerated descent data
        try:
            data = _descent_data(F, s, p, bound)
        except SizeBound as exc:
            report.bounded(f"stack-i at {c} over {arrows}", exc.bound)
            continue
        for datum in data:
            try:
                wits = _effectiveness(datum, p, bound)
            except SizeBound as exc:
                report.bounded(f"stack-i-witness at {c}", exc.bound)
                continue
            if not wits:
                report.fail(("i", c, arrows, tuple(sorted(datum.objects.items()))))
    return report


def _check_discrete_stack(F: CatPresheaf, j: GrothTopology, bound: int) -> Report:
    """check_stack on a validated F on j's base whose values are discrete,
    read off one tally of the restriction tuples of its object presheaf Z
    at each c, in F(c).objects order (see check_stack).  A maximal M_c is
    skipped before any row is built: the id_c coordinate of a restriction
    tuple is the section itself, so no two sections share one and (ii)
    cannot fail, and every matching family is a row, so (i) cannot."""
    base = F.base
    # valid because F is; Z keeps the order of F's values, which
    # _check_cat_stack reads and products in
    Z = mark_valid(SetPresheaf(base, {c: F.on_objects[c].objects for c in base.objects},
                               {f: F.on_arrows[f].on_objects for f in base.arrows}))
    report = Report("check_stack")
    for c, p in j.plan.covers.items():
        if p.maximal:
            continue
        arrows = p.arrows
        rows = restrictions(Z, p, c)
        by_family = tally(Z.on_objects[c], rows)
        # (ii): one family of identities for each y restricting as x does.
        # The Cat-valued search spends an estimate of 1 on each such pair,
        # (x, x) among them, so it is bounded exactly when bound < 1 and
        # Z(c) is not empty
        if bound < 1 and Z.on_objects[c]:
            report.bounded(f"stack-ii at {c}", bound)
        else:
            for x, row in zip(Z.on_objects[c], rows):
                for y in by_family[row]:
                    if x != y:
                        ids = tuple((f, F.on_objects[d].id_of(v))
                                    for f, d, v in zip(arrows, p.doms, row))
                        report.fail(("ii", c, arrows, x, y, ids))
        # (i): one datum per matching family, effective iff some m restricts
        # to it; a witness search spends an estimate of 1, which cannot trip
        # a bound that a nonempty list of families passed
        try:
            families = _families(Z, p, bound)
        except SizeBound as exc:
            report.bounded(f"stack-i at {c} over {arrows}", exc.bound)
            continue
        for t in families:
            if t not in by_family:
                report.fail(("i", c, arrows, tuple(zip(arrows, t))))
    return report


# -- the sheaf-valued restriction of the classifier -------------------------------------


@value_class
class MapToOmegaJ:
    """A MapToOmega all of whose assigned presheaves are sheaves for the
    induced slice topologies; constructing one is exactly factoring through
    the sheaf inclusion."""

    underlying: MapToOmega
    topology: GrothTopology


@value_class
class FactorResult:
    certified: MapToOmegaJ | None
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.certified is not None


def ell_factors(z: MapToOmega, j: GrothTopology, bound: int = DEFAULT_BOUND) -> FactorResult:
    """Certify that every assigned presheaf is a sheaf, or report the first
    failing element (c, X), in sorted order, as (c, X, id_c, arrows of
    M_c, n): n is the number of amalgamations of the first matching family
    whose count is not 1.

    One sheaf condition per element of F, the dense generator, decides it,
    read from B_z with no slice built.  z is strict, so the presheaf at
    (c, X) restricted along Σ_f: C/d -> C/c, for a slice object
    f: d -> c, is the presheaf at (d, F(f)X), and the slice topology on
    C/d is the one induced from C/c: the sheaf condition of the presheaf
    at (c, X) at f is the condition of the presheaf at (d, F(f)X) at
    id_d.  So each element (c, X) is checked at id_c only, on M_c lifted
    to id_c, which has M_c's arrows and compatibility triples: the value
    at g in M_c is B_z<dom g|F(g)X>, g.h acts as B_z on <h|id|F(g)X>,
    and a section at id_c restricts along g as B_z on <g|id|X>.  A
    maximal M_c is skipped, as the site kernels skip it.  A z that is no
    valid map, or lives on another site than j, raises InvalidTable.
    """
    if j.base != z.site:
        raise InvalidTable("topology and map live on different sites")
    z.validate()
    B, (objects, arrows, _) = z.fibre_functor, z.source._slice_elements
    # nothing can fail at a maximal M_c, as in the site kernels
    for c, x in sorted(e for e in objects if not j.plan.covers[e[0]].maximal):
        p, values, acts, idc = j.plan.covers[c], objects[(c, x)], arrows[(c, x)], z.site.id_of(c)
        families = compatible_families(
            "matching_families", [B.on_objects[values[g]] for g in p.arrows],
            [(i, B.on_arrows[acts[slice_arrow_name(h, p.arrows[i])]], k) for i, h, k in p.checks],
            bound)
        hit = _first_miscount(families, B.on_objects[values[idc]],
                              [B.on_arrows[acts[slice_arrow_name(g, idc)]] for g in p.arrows])
        if hit is not None:
            return FactorResult(None, (c, x, idc, p.arrows, hit[1]))
    return FactorResult(MapToOmegaJ(z, j), None)


def char_stacks(phi: DiscOpfibPre, j: GrothTopology,
                bound: int = DEFAULT_BOUND) -> MapToOmegaJ:
    """Characteristic morphism of an opfibration over a stack, upgraded
    with sheaf certificates.

    The codomain F is verified to be a stack first; a check that only
    passed up to the bound raises SizeBound naming the first stratum that
    tripped it.  The total E needs no check of its own: over a stack F it
    is a stack iff char(phi) factors through Ω_J.  E is the comma object
    of F -> Ω_J <- 1, Ω_J is a stack and stacks are closed under that
    limit; conversely char of an opfibration between stacks factors.  So
    a total that is no stack fails as the factorization does.
    """
    rep = check_stack(phi.codomain, j, bound)
    if rep.verdict == FAIL:
        raise FactorizationFailed(("endpoint-not-a-stack", rep.counterexamples[:1]))
    if rep.verdict == BOUNDED_PASS:
        what, stratum_bound = next(iter(rep.bounds.items()))
        raise SizeBound(what, None, stratum_bound)
    result = ell_factors(char(phi), j, bound)
    if not result.ok:
        raise FactorizationFailed(result.witness)
    return result.certified


# -- descent data valued in sheaves on slices ---------------------------------------------


@value_class
class SheafDescentDatum:
    """Descent datum for the sheaf-valued classifier: a sheaf on
    slice(C, dom f) per arrow of the sieve, with coherent iso maps."""

    site: FinCat
    topology: GrothTopology
    sieve: Sieve
    objects: Mapping[str, SetPresheaf]                 # f -> sheaf on slice(C, dom f)
    isos: Mapping[tuple[str, str], PresheafMap]        # (f, g): g*(M_f) -> M_{f.g}


def validate_sheaf_descent(d: SheafDescentDatum, bound: int = DEFAULT_BOUND) -> Report:
    """validate_descent for sheaf-valued data: each M_f a sheaf on
    slice(C, dom f), each iso a natural iso g*(M_f) -> M_{f.g}."""
    base = d.site

    def check_object(f, M):
        c = base.dom(f)
        if M.base != _slice_of(base, c):
            return ("not on the expected slice",)
        rep = is_sheaf(M, slice_topology(d.topology, c), bound)
        return None if rep.ok else ("not a sheaf", rep.counterexamples[0])

    def check_iso(g, M, target, phi):
        if phi.source != reindex_slice_presheaf(base, g, M) or phi.target != target:
            return ("iso-typing",)
        try:
            phi.validate()
        except InvalidTable as exc:
            return "iso-naturality", str(exc)
        return None if phi.is_iso() else ("iso-invertible",)

    return _check_descent("validate_sheaf_descent", base, d, check_object, check_iso,
                          _after_reindex(base))


def build_gluing_presheaf(d: SheafDescentDatum) -> SetPresheaf:
    """The proof-algorithm presheaf: sections at f in S are the identity
    sections of M_f, empty outside the sieve."""
    base = d.site
    c = d.sieve.at
    sl = _slice_of(base, c)
    S = d.sieve.arrows
    on_objects = {}
    for f in sl.objects:
        if f in S:
            on_objects[f] = d.objects[f].on_objects[base.id_of(base.dom(f))]
        else:
            on_objects[f] = ()
    on_arrows = {}
    for f in sl.objects:
        df = base.dom(f)
        for h in base.arrows_into(df):
            name = slice_arrow_name(h, f)
            if f not in S:
                on_arrows[name] = {}
                continue
            dh = base.dom(h)
            # M_f(id) -> M_f(h) -> M_{f.h}(id)
            step1 = d.objects[f].on_arrows[slice_arrow_name(h, base.id_of(df))]
            step2 = d.isos[(f, h)].components[base.id_of(dh)]
            on_arrows[name] = {x: step2[step1[x]] for x in on_objects[f]}
    Z = SetPresheaf(sl, on_objects, on_arrows)
    Z.validate()
    return Z


def construct_effectiveness(d: SheafDescentDatum,
                            bound: int = DEFAULT_BOUND) -> tuple[SetPresheaf, dict]:
    """Glue the datum: returns the glued sheaf M = Z++ of the gluing
    presheaf Z and the compatibility isos psi^f: f*M -> M_f.

    The datum comparison e_f: M_f -> f*Z is an iso, so f*Z is a sheaf.
    Reindexing along f commutes with sheafification, so f*η_Z: f*Z -> f*M
    is an iso too, and naturality of the unit η gives
    psi^f = (f*η_Z ∘ e_f)⁻¹.
    """
    base = d.site
    Z = build_gluing_presheaf(d)
    M = sheafify(Z, slice_topology(d.topology, d.sieve.at), bound)
    psis: dict[str, PresheafMap] = {}
    for f in sorted(d.sieve.arrows):
        # e_f: M_f -> f*Z; at g the section sets are M_f(g) = (g*M_f)(id) and
        # (f*Z)(g) = M_{f.g}(id), compared by the datum iso at the identity
        sl_d = _slice_of(base, base.dom(f))
        comps = {
            g: {x: d.isos[(f, g)].components[base.id_of(base.dom(g))][x]
                for x in d.objects[f].on_objects[g]}
            for g in sl_d.objects
        }
        e_f = PresheafMap(d.objects[f], reindex_slice_presheaf(base, f, Z), comps)
        e_f.validate()
        if not e_f.is_iso():
            raise InvalidTable("datum comparison map is not an iso")
        psis[f] = invert_presheaf_map(compose_presheaf_maps(
            reindex_slice_presheaf_map(base, f, M.unit), e_f))
    return M.presheaf, psis


def verify_effectiveness(d: SheafDescentDatum, M: SetPresheaf,
                         psis: Mapping[str, PresheafMap]) -> Report:
    """Check the compatibility squares of the produced witness, in the
    order of d's sieve plan."""
    report = Report("verify_effectiveness")
    base = d.site
    p = sieve_plan(base, d.sieve)
    for f in p.arrows:
        psi = psis[f]
        if psi.source != reindex_slice_presheaf(base, f, M) or psi.target != d.objects[f]:
            return report.fail(("typing", f))
        if not psi.is_iso():
            return report.fail(("not-iso", f))
        try:
            psi.validate()
        except InvalidTable as exc:
            return report.fail(("naturality", f, str(exc)))
    join = _after_reindex(base)
    for i, g, k in p.triples:
        f = p.arrows[i]
        if psis[p.arrows[k]] != join(g, d.isos[(f, g)], psis[f]):
            report.fail(("square", f, g))
    return report


def omega_J_probe(data: list[SheafDescentDatum], bound: int = DEFAULT_BOUND) -> Report:
    """Probe the stack property of the sheaf-valued classifier on supplied
    descent data, each over its own topology: run the gluing algorithm,
    verify the witness, and check that the glued M is a sheaf on
    slice(C, c).  That decides morphism gluing on M: Hom(-, M) is a sheaf
    when M is one, so every compatible family of maps into M glues, and
    glues uniquely.  A datum on which any of these stages trips the bound
    is reported as bounded under "datum i: what"."""
    report = Report("omega_J_probe")
    for idx, d in enumerate(data):
        try:
            val = validate_sheaf_descent(d, bound)
            if not val.ok:
                report.fail(("datum", idx, val.counterexamples[0]))
                continue
            if not d.sieve.arrows:
                report.note(("vacuous", idx))
                continue
            M, psis = construct_effectiveness(d, bound)
            ver = verify_effectiveness(d, M, psis)
            if not ver.ok:
                report.fail(("witness", idx, ver.counterexamples[0]))
                continue
            sheaf = is_sheaf(M, slice_topology(d.topology, d.sieve.at), bound)
        except SizeBound as exc:
            report.bounded(f"datum {idx}: {exc.what}", exc.bound)
            continue
        if not sheaf.ok:
            report.fail(("glued-not-a-sheaf", idx, sheaf.counterexamples[0]))
        report.note(("glued", idx, {c2: len(v) for c2, v in M.on_objects.items()}))
    return report
