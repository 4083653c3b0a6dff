"""Reference implementations of the stack conditions and of sheaf gluing.

``tck.stacks.check_stack`` decides the three gluing conditions on the
least cover M_c at each object.  ``check_stack`` here follows the
definition instead: it checks them on every covering sieve in
``j.covers[c]``, over descent data filtered from every arrow family, and
looks for the gluing of each datum among every object and arrow family;
invertibility and the cocycle and compatibility conditions are checked by
composing arrows in the base.  It calls none of ``tck.stacks``' checks
and is slow, meant for small sites only.

``tck.stacks.char_stacks`` checks only the codomain F of an opfibration
E -> F to be a stack, and leaves E to the factorization of its
characteristic morphism through Ω_J.  ``char_stacks`` here checks both
endpoints with ``tck.stacks.check_stack`` before it factors with
``ell_factors`` here.

``tck.stacks.ell_factors`` checks one sheaf condition per element (c, X)
of F, at id_c, read from the fibre functor.  ``ell_factors`` here runs a
full ``is_sheaf`` on every assigned presheaf z(c)(X), over the slice
topology on slice(C, c), so it decides each element's condition again
at every slice object that reaches it.

``tck.stacks.construct_effectiveness`` reads the compatibility isos of a
glued sheaf descent datum off the sheafification unit.  The oracle here
assembles them the long way, through the plus construction's functorial
action and its transport along slice reindexing.

``tck.stacks.omega_J_probe`` decides morphism gluing on a glued sheaf M by
checking that M is a sheaf.  ``glue_sheaf_morphisms`` here glues a
compatible family of maps by matching-family transport instead, and
``endomorphisms_glue_back`` checks, on every endomorphism of M, that its
restrictions to the sieve glue back to it.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from map_oracle import search_presheaf_maps
from tck import stacks
from tck.classifier import char
from tck.errors import FactorizationFailed, InvalidTable, SizeBound
from tck.fincat import (
    DEFAULT_BOUND,
    FinCat,
    PresheafMap,
    SetPresheaf,
    compose_presheaf_maps,
    guard,
    invert_presheaf_map,
    reindex_slice_presheaf,
    reindex_slice_presheaf_map,
    slice_arrow_name,
    slice_cat,
)
from tck.report import BOUNDED_PASS, FAIL, Report
from tck.site import (
    Sieve,
    check_family,
    is_sheaf,
    matching_families,
    plus,
    pullback_sieve,
    restrictions,
    sheafify,
    sieve_plan,
    slice_topology,
    tally,
)
from tck.stacks import (
    DescentDatum,
    FactorResult,
    MapToOmegaJ,
    build_gluing_presheaf,
    construct_effectiveness,
)


def is_cocycle(F, s, isos):
    """Every iso is invertible, and the iso at (f, g.h) is the iso at
    (f.g, h) after F(h) of the iso at (f, g)."""
    base = F.base
    return all(F.on_objects[base.dom(g)].is_invertible(phi)
               for (_, g), phi in isos.items()) and not cocycle_failures(F, s, isos)


def cocycle_failures(F, s, isos):
    """The (f, g, h) at which the cocycle equation of is_cocycle fails."""
    base = F.base
    return {
        (f, g, h)
        for f in s.arrows
        for g in base.arrows_into(base.dom(f))
        for h in base.arrows_into(base.dom(g))
        if isos[(f, base.compose(g, h))] != F.on_objects[base.dom(h)].compose(
            isos[(base.compose(f, g), h)], F.on_arrows[h].on_arrows[isos[(f, g)]])
    }


def object_gluings(d, bound=DEFAULT_BOUND):
    """Every (M, psi) gluing the datum: M in F(c) and an iso psi_f:
    F(f)(M) -> M_f per f in S with psi_{f.g} the datum's iso at (f, g)
    after F(g)(psi_f), filtered from every family of isos."""
    F, s = d.presheaf, d.sieve
    base = F.base
    arrows = sorted(s.arrows)
    out = []
    for m in F.on_objects[s.at].objects:
        pools = []
        for f in arrows:
            Fd = F.on_objects[base.dom(f)]
            pools.append([a for a in Fd.hom(F.on_arrows[f].on_objects[m], d.objects[f])
                          if Fd.is_invertible(a)])
        guard("effectiveness", math.prod(map(len, pools)), bound)
        for choice in itertools.product(*pools):
            psi = dict(zip(arrows, choice))
            if all(psi[base.compose(f, g)] == F.on_objects[base.dom(g)].compose(
                    d.isos[(f, g)], F.on_arrows[g].on_arrows[psi[f]])
                   for f in arrows for g in base.arrows_into(base.dom(f))):
                out.append((m, psi))
    return out


def enumerate_descent_data(F, s, bound=DEFAULT_BOUND):
    """All descent data over the sieve: for every object assignment, every
    family of arrows F(g)(M_f) -> M_{f.g}, kept when it is a cocycle of
    isos."""
    base = F.base
    arrows = sorted(s.arrows)
    pairs = [(f, g) for f in arrows for g in base.arrows_into(base.dom(f))]
    obj_pools = [F.on_objects[base.dom(f)].objects for f in arrows]
    guard("descent data objects", math.prod(map(len, obj_pools)), bound)
    out = []
    for objs in itertools.product(*obj_pools):
        objects = dict(zip(arrows, objs))
        pools = [
            F.on_objects[base.dom(g)].hom(F.on_arrows[g].on_objects[objects[f]],
                                          objects[base.compose(f, g)])
            for f, g in pairs
        ]
        guard("descent data isos", math.prod(map(len, pools)), bound)
        for choice in itertools.product(*pools):
            isos = dict(zip(pairs, choice))
            if is_cocycle(F, s, isos):
                out.append(DescentDatum(F, s, objects, isos))
    return out


def check_stack(F, j, bound=DEFAULT_BOUND):
    """The three gluing conditions, per covering sieve."""
    report = Report("check_stack")
    base = F.base
    for c in base.objects:
        Fc = F.on_objects[c]
        for s in sorted(j.covers[c], key=lambda s: s.sorted_arrows()):
            arrows = sorted(s.arrows)
            # (iii) uniqueness of gluings of morphisms
            for x in Fc.objects:
                for y in Fc.objects:
                    homs = Fc.hom(x, y)
                    for h in homs:
                        for k in homs:
                            if h < k and all(
                                F.on_arrows[f].on_arrows[h] == F.on_arrows[f].on_arrows[k]
                                for f in arrows
                            ):
                                report.fail(("iii", c, s.sorted_arrows(), x, y, h, k))
            # (ii) gluing of morphisms
            for x in Fc.objects:
                for y in Fc.objects:
                    pools = [
                        F.on_objects[base.dom(f)].hom(
                            F.on_arrows[f].on_objects[x], F.on_arrows[f].on_objects[y]
                        )
                        for f in arrows
                    ]
                    total = 1
                    for p in pools:
                        total *= max(1, len(p))
                    try:
                        guard("stack morphism families", total, bound)
                    except SizeBound:
                        report.bounded(f"stack-ii at {c}", bound)
                        continue
                    if any(not p for p in pools):
                        continue
                    for choice in itertools.product(*pools):
                        fam = dict(zip(arrows, choice))
                        compatible = all(
                            F.on_arrows[g].on_arrows[fam[f]] == fam[base.compose(f, g)]
                            for f in arrows
                            for g in base.arrows_into(base.dom(f))
                        )
                        if not compatible:
                            continue
                        gluings = [
                            h for h in Fc.hom(x, y)
                            if all(F.on_arrows[f].on_arrows[h] == fam[f] for f in arrows)
                        ]
                        if not gluings:
                            report.fail(("ii", c, s.sorted_arrows(), x, y,
                                         tuple(sorted(fam.items()))))
            # (i) gluing of objects over enumerated descent data
            try:
                data = enumerate_descent_data(F, s, bound)
            except SizeBound as exc:
                report.bounded(f"stack-i at {c} over {s.sorted_arrows()}", exc.bound)
                continue
            for datum in data:
                try:
                    wits = object_gluings(datum, bound)
                except SizeBound as exc:
                    report.bounded(f"stack-i-witness at {c}", exc.bound)
                    continue
                if not wits:
                    report.fail(("i", c, s.sorted_arrows(),
                                 tuple(sorted(datum.objects.items()))))
    return report


# -- the characteristic morphism of an opfibration between stacks ------------------


def ell_factors(z, j, bound=DEFAULT_BOUND):
    """``tck.stacks.ell_factors`` by a full sheaf check of every assigned
    presheaf on its slice topology: the first (c, X) in sorted order whose
    presheaf is no sheaf is reported as (c, X, slice object, sieve
    arrows, n), from that check's first counterexample."""
    if j.base != z.site:
        raise InvalidTable("topology and map live on different sites")
    topologies = {c: slice_topology(j, c) for c in z.site.objects}
    for (c, x) in sorted(z.object_part):
        rep = is_sheaf(z.object_part[(c, x)], topologies[c], bound)
        if not rep.ok:
            f, sieve_arrows, fam, n = rep.counterexamples[0]
            return FactorResult(None, (c, x, f, sieve_arrows, n))
    return FactorResult(MapToOmegaJ(z, j), None)


def char_stacks(phi, j, bound=DEFAULT_BOUND):
    """``tck.stacks.char_stacks`` with both endpoints checked: the total E
    and then the codomain F must be stacks before char(phi) is factored
    through Ω_J.  An endpoint whose check only passed up to the bound
    raises SizeBound naming the first stratum that tripped it."""
    for F in (phi.total, phi.codomain):
        rep = stacks.check_stack(F, j, bound)
        if rep.verdict == FAIL:
            raise FactorizationFailed(("endpoint-not-a-stack", rep.counterexamples[:1]))
        if rep.verdict == BOUNDED_PASS:
            what, stratum_bound = next(iter(rep.bounds.items()))
            raise SizeBound(what, None, stratum_bound)
    result = ell_factors(char(phi), j, bound)
    if not result.ok:
        raise FactorizationFailed(result.witness)
    return result.certified


# -- gluing maps between sheaves on a slice ------------------------------------------


def glue_sheaf_morphisms(base: FinCat, s: Sieve, M: SetPresheaf, N: SetPresheaf,
                         alpha: Mapping[str, PresheafMap]) -> PresheafMap:
    """Glue a compatible family alpha_f: f*M -> f*N to a map M -> N via
    matching-family transport; M and N are sheaves on slice(C, at).  At
    each slice object g the sieve g*S is lifted and compiled once, each
    section x of M(g) is carried to the family alpha_{g.h}(M(h)(x)) over
    it, and the one section of N(g) restricting to that family is found
    in one tally of N's restrictions."""
    c = s.at
    sl, _ = slice_cat(base, c)
    comps: dict[str, dict[str, str]] = {}
    for g in sl.objects:
        lifted = {slice_arrow_name(h, g): h for h in pullback_sieve(base, g, s).arrows}
        p = sieve_plan(N.base, Sieve(g, frozenset(lifted)))
        # in p.arrows order: M(h) then alpha at g.h, for each lifted arrow h > g
        steps = [(M.on_arrows[a], alpha[base.compose(g, h)].components[base.id_of(base.dom(h))])
                 for a, h in sorted(lifted.items())]
        by_family = tally(N.on_objects[g], restrictions(N, p, g))
        table = {}
        for x in M.on_objects[g]:
            t = tuple(step[restrict[x]] for restrict, step in steps)
            check_family(N, p, t)
            ams = by_family.get(t, [])
            if len(ams) != 1:
                raise InvalidTable(f"gluing at {g!r} is not unique: {len(ams)} candidates")
            table[x] = ams[0]
        comps[g] = table
    lam = PresheafMap(M, N, comps)
    lam.validate()
    return lam


def endomorphisms_glue_back(d, bound=DEFAULT_BOUND):
    """Glue the sheaf descent datum d to M, and check that every
    endomorphism of M, restricted along each arrow of d's sieve, glues
    back to itself; returns how many endomorphisms were checked.  M is a
    sheaf, so Hom(-, M) is one and each such family glues, uniquely: the
    fact ``tck.stacks.omega_J_probe`` reads off the sheaf check of M."""
    M, _ = construct_effectiveness(d, bound)
    lams = search_presheaf_maps(M, M, bound)
    for lam in lams:
        alpha = {f: reindex_slice_presheaf_map(d.site, f, lam) for f in d.sieve.sorted_arrows()}
        assert glue_sheaf_morphisms(d.site, d.sieve, M, M, alpha) == lam, lam.components
    return len(lams)


# -- the double-plus route to the effectiveness isos -------------------------------


@dataclass(frozen=True)
class LabelledPlus:
    """Z+ together with the matching family on M_c behind each section label."""

    presheaf: SetPresheaf
    minimal: Mapping[str, Sieve]
    families: Mapping[str, Mapping[str, Mapping[str, str]]]   # c -> label -> family
    labels: Mapping[str, Mapping[frozenset, str]]             # c -> family items -> label

    def label(self, c, family):
        """The section at c of a matching family on any sieve containing M_c."""
        return self.labels[c][frozenset((f, family[f]) for f in self.minimal[c].arrows)]


def labelled_plus(Z, j, bound=DEFAULT_BOUND):
    """``tck.site.plus`` with its labels rebuilt: Z+(c) labels the matching
    families on M_c q0, q1, ... in sorted family order."""
    presheaf = plus(Z, j, bound).presheaf
    families, labels = {}, {}
    for c, m in j.minimal.items():
        keys = sorted(tuple(sorted(fam.assignment.items()))
                      for fam in matching_families(Z, m, bound))
        families[c] = {f"q{i}": dict(key) for i, key in enumerate(keys)}
        labels[c] = {frozenset(key): f"q{i}" for i, key in enumerate(keys)}
        assert tuple(sorted(families[c])) == presheaf.on_objects[c], c
    return LabelledPlus(presheaf, j.minimal, families, labels)


def plus_map(m, pc_src, pc_tgt):
    """Functorial action of plus on a presheaf map."""
    cat = m.source.base
    comps = {}
    for c in cat.objects:
        table = {}
        for q in pc_src.presheaf.on_objects[c]:
            fam = pc_src.families[c][q]
            table[q] = pc_tgt.label(c, {f: m.components[cat.dom(f)][x] for f, x in fam.items()})
        comps[c] = table
    out = PresheafMap(pc_src.presheaf, pc_tgt.presheaf, comps)
    out.validate()
    return out


def transport_plus_iso(cat, j, f, Z, bound=DEFAULT_BOUND):
    """The canonical iso  f*(Z+) -> (f*Z)+  for Z on slice(C, cod f).

    Covering sieves on a slice object g of slice(C, dom f) and on the slice
    object f.g of slice(C, cod f) both come from base sieves on dom(g), so
    families transport arrow-by-arrow.
    """
    d, c = cat.arrows[f]
    pc_c = labelled_plus(Z, slice_topology(j, c), bound)
    pc_d = labelled_plus(reindex_slice_presheaf(cat, f, Z), slice_topology(j, d), bound)
    sl_d, _ = slice_cat(cat, d)
    comps = {}
    for g in sl_d.objects:
        fg = cat.compose(f, g)
        # rename slice-of-c arrows (h > f.g) to slice-of-d arrows (h > g)
        renames = {
            slice_arrow_name(h, fg): slice_arrow_name(h, g)
            for h in cat.arrows_into(cat.dom(g))
        }
        comps[g] = {
            q: pc_d.label(g, {renames[name]: x for name, x in pc_c.families[fg][q].items()})
            for q in pc_c.presheaf.on_objects[fg]
        }
    out = PresheafMap(reindex_slice_presheaf(cat, f, pc_c.presheaf), pc_d.presheaf, comps)
    out.validate()
    assert out.is_iso(), "transport_plus_iso produced a non-iso; slice naming out of sync"
    return out


def double_plus_effectiveness(d, bound=DEFAULT_BOUND):
    """``tck.stacks.construct_effectiveness`` by the double-plus route.

    psi^f: f*(Z++) -> M_f is the composite of the transports
    f*(Z++) -> (f*(Z+))+ -> ((f*Z)+)+, the double plus of e_f^-1, and the
    inverse of the unit M_f -> (M_f)++, which is an iso as M_f is a sheaf.
    """
    base = d.site
    j = d.topology
    Z = build_gluing_presheaf(d)
    M = sheafify(Z, slice_topology(j, d.sieve.at), bound)
    psis = {}
    for f in sorted(d.sieve.arrows):
        df = base.dom(f)
        jd = slice_topology(j, df)
        fZ = reindex_slice_presheaf(base, f, Z)
        sl_d, _ = slice_cat(base, df)
        e_f = PresheafMap(d.objects[f], fZ, {
            g: {x: d.isos[(f, g)].components[base.id_of(base.dom(g))][x]
                for x in d.objects[f].on_objects[g]}
            for g in sl_d.objects
        })
        pcW1 = labelled_plus(fZ, jd, bound)
        pcM1 = labelled_plus(d.objects[f], jd, bound)
        pcW2 = labelled_plus(pcW1.presheaf, jd, bound)
        p1 = plus_map(invert_presheaf_map(e_f), pcW1, pcM1)
        p2 = plus_map(p1, pcW2, labelled_plus(pcM1.presheaf, jd, bound))
        # f*(Z++) -> (f*(Z+))+ -> ((f*Z)+)+
        t1 = transport_plus_iso(base, j, f, M.first.presheaf, bound)
        t0 = transport_plus_iso(base, j, f, Z, bound)
        pc_src = labelled_plus(reindex_slice_presheaf(base, f, M.first.presheaf), jd, bound)
        t2 = plus_map(t0, pc_src, pcW2)
        collapse = invert_presheaf_map(sheafify(d.objects[f], jd, bound).unit)
        psis[f] = compose_presheaf_maps(collapse, compose_presheaf_maps(
            p2, compose_presheaf_maps(t2, t1)))
    return M.presheaf, psis
