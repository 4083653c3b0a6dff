"""Descent data, stack conditions, and the sheaf-valued classifier.

The stack classifier is never materialized: its gluing property is probed
on concrete descent data of sheaves-on-slices.  A datum glues to the
sheafification M of its gluing presheaf Z, and the compatibility isos are
read off the unit Z -> M: reindexing commutes with sheafification, so the
unit is an iso after reindexing along each arrow of the sieve.  The probe
verifies the compatibility squares, and morphism gluing by matching-family
transport.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

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
    reindex_slice_presheaf,
    reindex_slice_presheaf_map,
    search_presheaf_maps,
    slice_arrow_name,
    slice_cat,
)
from .prestack import CatPresheaf, DiscOpfibPre
from .report import BOUNDED_PASS, Report
from .site import (
    GrothTopology,
    Sieve,
    amalgamations,
    is_sheaf,
    pullback_sieve,
    sheafify,
    slice_topology,
)


# -- descent data over a Cat-valued presheaf ----------------------------------------


@dataclass(frozen=True, eq=True)
class DescentDatum:
    presheaf: CatPresheaf
    sieve: Sieve
    objects: Mapping[str, str]               # f in S -> object of F(dom f)
    isos: Mapping[tuple[str, str], str]      # (f, g) -> iso F(g)(M_f) -> M_{f.g}


@dataclass(frozen=True, eq=True)
class EffectivenessWitness:
    obj: str                                  # M in F(c)
    isos: Mapping[str, str]                   # f -> iso F(f)(M) -> M_f


def validate_descent(d: DescentDatum) -> Report:
    """Verify typing, invertibility and the cocycle condition exhaustively."""
    report = Report("validate_descent")
    F = d.presheaf
    base = F.base
    S = d.sieve
    if set(d.objects) != set(S.arrows):
        return report.fail(("objects", "assignment keys differ from the sieve"))
    for f in S.arrows:
        if d.objects[f] not in F.on_objects[base.dom(f)].objects:
            return report.fail(("objects", f, d.objects[f]))
    expected = {(f, g) for f in S.arrows for g in base.arrows_into(base.dom(f))}
    if set(d.isos) != expected:
        return report.fail(("isos", "iso keys differ from composable pairs"))
    for (f, g), phi in d.isos.items():
        dg = base.dom(g)
        Fd = F.on_objects[dg]
        src = F.on_arrows[g].on_objects[d.objects[f]]
        tgt = d.objects[base.compose(f, g)]
        if phi not in Fd.arrows or Fd.arrows[phi] != (src, tgt):
            return report.fail(("iso-typing", f, g, phi))
        if not Fd.is_invertible(phi):
            return report.fail(("iso-invertible", f, g, phi))
    for f in sorted(S.arrows):
        for g in base.arrows_into(base.dom(f)):
            for h in base.arrows_into(base.dom(g)):
                Fh = F.on_arrows[h]
                lhs = d.isos[(f, base.compose(g, h))]
                dcat = F.on_objects[base.dom(h)]
                rhs = dcat.compose(d.isos[(base.compose(f, g), h)],
                                   Fh.on_arrows[d.isos[(f, g)]])
                if lhs != rhs:
                    report.fail(("cocycle", f, g, h))
    return report


def induced_descent_datum(F: CatPresheaf, s: Sieve, m: str) -> DescentDatum:
    """The datum induced by a global object: M_f = F(f)(M) with identity isos."""
    base = F.base
    objects = {f: F.on_arrows[f].on_objects[m] for f in s.arrows}
    isos = {
        (f, g): F.on_objects[base.dom(g)].id_of(
            F.on_arrows[g].on_objects[objects[f]]
        )
        for f in s.arrows
        for g in base.arrows_into(base.dom(f))
    }
    return DescentDatum(F, s, objects, isos)


def effectiveness(d: DescentDatum, bound: int = DEFAULT_BOUND) -> list[EffectivenessWitness]:
    """All witnesses, by exhaustive search over objects and iso families."""
    F = d.presheaf
    base = F.base
    S = d.sieve
    c = S.at
    arrows = sorted(S.arrows)
    out: list[EffectivenessWitness] = []
    for m in F.on_objects[c].objects:
        pools = []
        for f in arrows:
            Fd = F.on_objects[base.dom(f)]
            fm = F.on_arrows[f].on_objects[m]
            pools.append([a for a in Fd.hom(fm, d.objects[f]) if Fd.is_invertible(a)])
        for choice in bounded_product("effectiveness", pools, bound):
            psi = dict(zip(arrows, choice))
            if all(
                psi[base.compose(f, g)] == F.on_objects[base.dom(g)].compose(
                    d.isos[(f, g)], F.on_arrows[g].on_arrows[psi[f]])
                for f in arrows
                for g in base.arrows_into(base.dom(f))
            ):
                out.append(EffectivenessWitness(m, psi))
    return out


def enumerate_descent_data(F: CatPresheaf, s: Sieve,
                           bound: int = DEFAULT_BOUND) -> list[DescentDatum]:
    """All descent data over the sieve, up to the bound."""
    base = F.base
    arrows = sorted(s.arrows)
    obj_pools = [F.on_objects[base.dom(f)].objects for f in arrows]
    total = math.prod(map(len, obj_pools))
    pairs = [(f, g) for f in arrows for g in base.arrows_into(base.dom(f))]
    out = []
    for objs in bounded_product("descent data objects", obj_pools, bound):
        assignment = dict(zip(arrows, objs))
        iso_pools = []
        for f, g in pairs:
            Fd = F.on_objects[base.dom(g)]
            src = F.on_arrows[g].on_objects[assignment[f]]
            tgt = assignment[base.compose(f, g)]
            iso_pools.append([a for a in Fd.hom(src, tgt) if Fd.is_invertible(a)])
        # the estimate counts every object assignment, not just this one
        guard("descent data isos", total * math.prod(map(len, iso_pools)), bound)
        for choice in itertools.product(*iso_pools):
            datum = DescentDatum(F, s, assignment, dict(zip(pairs, choice)))
            if validate_descent(datum).ok:
                out.append(datum)
    return out


def check_stack(F: CatPresheaf, j: GrothTopology, bound: int = DEFAULT_BOUND) -> Report:
    """The three gluing conditions, decided on the least cover M_c.

    Checking them on M_c = ∩J(c) at every c decides them for every cover S:

    - S contains M_c, and f*M_c ⊇ M_d for every f: d -> c.
    - (iii) and (ii) say that each hom-presheaf Hom(x, y) on slice(C, c)
      is a sheaf; as in site._sheaf_condition, the M_d decide that.
    - (i) extends from M_c to S: glue the datum restricted to M_c to some
      M with isos psi_f for f in M_c.  For f: d -> c in S the isos at f.g,
      g in M_d ⊆ f*M_c, form a compatible family of Hom(f*M, M_f) on M_d;
      its unique gluing is psi_f, invertible and coherent by uniqueness.

    Morphism conditions are decided exhaustively; object gluing enumerates
    descent data and is reported as bounded when a stratum trips the bound.
    """
    report = Report("check_stack")
    base = F.base
    for c, s in j.minimal.items():
        Fc = F.on_objects[c]
        arrows = s.sorted_arrows()
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
                            report.fail(("iii", c, arrows, x, y, h, k))
        # (ii) gluing of morphisms
        for x in Fc.objects:
            for y in Fc.objects:
                pools = [
                    F.on_objects[base.dom(f)].hom(
                        F.on_arrows[f].on_objects[x], F.on_arrows[f].on_objects[y]
                    )
                    for f in arrows
                ]
                try:
                    families = bounded_product("stack morphism families", pools, bound)
                except SizeBound:
                    report.bounded(f"stack-ii at {c}", bound)
                    continue
                for choice in families:
                    fam = dict(zip(arrows, choice))
                    compatible = all(
                        F.on_arrows[g].on_arrows[fam[f]] == fam[base.compose(f, g)]
                        for f in arrows
                        for g in base.arrows_into(base.dom(f))
                    )
                    if compatible and not any(
                        all(F.on_arrows[f].on_arrows[h] == fam[f] for f in arrows)
                        for h in Fc.hom(x, y)
                    ):
                        report.fail(("ii", c, arrows, x, y, tuple(sorted(fam.items()))))
        # (i) gluing of objects over enumerated descent data
        try:
            data = enumerate_descent_data(F, s, bound)
        except SizeBound as exc:
            report.bounded(f"stack-i at {c} over {arrows}", exc.bound)
            continue
        for datum in data:
            try:
                wits = effectiveness(datum, bound)
            except SizeBound as exc:
                report.bounded(f"stack-i-witness at {c}", exc.bound)
                continue
            if not wits:
                report.fail(("i", c, arrows, tuple(sorted(datum.objects.items()))))
    return report


# -- the sheaf-valued restriction of the classifier -------------------------------------


@dataclass(frozen=True, eq=True)
class MapToOmegaJ:
    """A MapToOmega all of whose assigned presheaves are sheaves for the
    induced slice topologies; constructing one is exactly factoring through
    the sheaf inclusion."""

    underlying: MapToOmega
    topology: GrothTopology


@dataclass(frozen=True, eq=True)
class FactorResult:
    certified: MapToOmegaJ | None
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.certified is not None


def ell_factors(z: MapToOmega, j: GrothTopology, bound: int = DEFAULT_BOUND) -> FactorResult:
    """Certify that every assigned presheaf is a sheaf, or report the first
    failing (c, X, slice object, sieve)."""
    if j.base != z.site:
        raise InvalidTable("topology and map live on different sites")
    topologies = {c: slice_topology(j, c) for c in z.site.objects}
    for (c, x) in sorted(z.object_part):
        rep = is_sheaf(z.object_part[(c, x)], topologies[c], bound)
        if not rep.ok:
            f, sieve_arrows, fam, n = rep.counterexamples[0]
            return FactorResult(None, (c, x, f, sieve_arrows, n))
    return FactorResult(MapToOmegaJ(z, j), None)


def char_stacks(phi: DiscOpfibPre, j: GrothTopology,
                check_endpoints: bool = True,
                bound: int = DEFAULT_BOUND) -> MapToOmegaJ:
    """Characteristic morphism of an opfibration between stacks, upgraded
    with sheaf certificates.

    With check_endpoints the endpoints are verified to be stacks first;
    factorization failure signals non-stack endpoints either way.  An
    endpoint whose stack check only passed up to the bound raises
    SizeBound naming the first stratum that tripped it.
    """
    if check_endpoints:
        for F in (phi.total, phi.codomain):
            rep = check_stack(F, j, bound)
            if not rep.ok:
                raise FactorizationFailed(("endpoint-not-a-stack", rep.counterexamples[:1]))
            if rep.verdict == BOUNDED_PASS:
                what, stratum_bound = next(iter(rep.bounds.items()))
                raise SizeBound(what, None, stratum_bound)
    z = char(phi)
    result = ell_factors(z, j, bound)
    if not result.ok:
        raise FactorizationFailed(result.witness)
    return result.certified


# -- descent data valued in sheaves on slices ---------------------------------------------


@dataclass(frozen=True, eq=True)
class SheafDescentDatum:
    """Descent datum for the sheaf-valued classifier: a sheaf on
    slice(C, dom f) per arrow of the sieve, with coherent iso maps."""

    site: FinCat
    topology: GrothTopology
    sieve: Sieve
    objects: Mapping[str, SetPresheaf]                 # f -> sheaf on slice(C, dom f)
    isos: Mapping[tuple[str, str], PresheafMap]        # (f, g): g*(M_f) -> M_{f.g}


def validate_sheaf_descent(d: SheafDescentDatum, bound: int = DEFAULT_BOUND) -> Report:
    report = Report("validate_sheaf_descent")
    base = d.site
    S = d.sieve
    if set(d.objects) != set(S.arrows):
        return report.fail(("objects", "assignment keys differ from the sieve"))
    for f in sorted(S.arrows):
        sl, _ = slice_cat(base, base.dom(f))
        M = d.objects[f]
        if M.base != sl:
            return report.fail(("objects", f, "not on the expected slice"))
        sheaf_rep = is_sheaf(M, slice_topology(d.topology, base.dom(f)), bound)
        if not sheaf_rep.ok:
            return report.fail(("objects", f, "not a sheaf", sheaf_rep.counterexamples[0]))
    expected = {(f, g) for f in S.arrows for g in base.arrows_into(base.dom(f))}
    if set(d.isos) != expected:
        return report.fail(("isos", "iso keys differ from composable pairs"))
    for (f, g), phi in sorted(d.isos.items()):
        src = reindex_slice_presheaf(base, g, d.objects[f])
        tgt = d.objects[base.compose(f, g)]
        if phi.source != src or phi.target != tgt:
            return report.fail(("iso-typing", f, g))
        try:
            phi.validate()
        except InvalidTable as exc:
            return report.fail(("iso-naturality", f, g, str(exc)))
        if not phi.is_iso():
            return report.fail(("iso-invertible", f, g))
    for f in sorted(S.arrows):
        for g in base.arrows_into(base.dom(f)):
            for h in base.arrows_into(base.dom(g)):
                lhs = d.isos[(f, base.compose(g, h))]
                rhs = compose_presheaf_maps(
                    d.isos[(base.compose(f, g), h)],
                    reindex_slice_presheaf_map(base, h, d.isos[(f, g)]),
                )
                if lhs != rhs:
                    report.fail(("cocycle", f, g, h))
    return report


def induced_sheaf_descent_datum(base: FinCat, j: GrothTopology, s: Sieve,
                                M: SetPresheaf) -> SheafDescentDatum:
    """The datum induced by a global sheaf on slice(C, at): M_f = f*M."""
    from .fincat import identity_presheaf_map

    objects = {f: reindex_slice_presheaf(base, f, M) for f in s.arrows}
    isos = {}
    for f in s.arrows:
        for g in base.arrows_into(base.dom(f)):
            # g*(f*M) equals (f.g)*M on the nose
            isos[(f, g)] = identity_presheaf_map(objects[base.compose(f, g)])
    return SheafDescentDatum(base, j, s, objects, isos)


def build_gluing_presheaf(d: SheafDescentDatum) -> SetPresheaf:
    """The proof-algorithm presheaf: sections at f in S are the identity
    sections of M_f, empty outside the sieve."""
    base = d.site
    c = d.sieve.at
    sl, _ = slice_cat(base, c)
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
        sl_d, _ = slice_cat(base, base.dom(f))
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
    """Check the compatibility squares of the produced witness."""
    report = Report("verify_effectiveness")
    base = d.site
    for f in sorted(d.sieve.arrows):
        psi = psis[f]
        if psi.source != reindex_slice_presheaf(base, f, M) or psi.target != d.objects[f]:
            return report.fail(("typing", f))
        if not psi.is_iso():
            return report.fail(("not-iso", f))
        try:
            psi.validate()
        except InvalidTable as exc:
            return report.fail(("naturality", f, str(exc)))
    for f in sorted(d.sieve.arrows):
        for g in base.arrows_into(base.dom(f)):
            fg = base.compose(f, g)
            lhs = psis[fg]
            rhs = compose_presheaf_maps(
                d.isos[(f, g)], reindex_slice_presheaf_map(base, g, psis[f])
            )
            if lhs != rhs:
                report.fail(("square", f, g))
    return report


def glue_sheaf_morphisms(base: FinCat, j: GrothTopology, s: Sieve,
                         M: SetPresheaf, N: SetPresheaf,
                         alpha: Mapping[str, PresheafMap],
                         bound: int = DEFAULT_BOUND) -> PresheafMap:
    """Glue a compatible family alpha_f: f*M -> f*N to a map M -> N via
    matching-family transport; M and N are sheaves on slice(C, at)."""
    c = s.at
    sl, _ = slice_cat(base, c)
    comps: dict[str, dict[str, str]] = {}
    for g in sl.objects:
        e = base.dom(g)
        gs = pullback_sieve(base, g, s)
        lifted = Sieve(g, frozenset(slice_arrow_name(h, g) for h in gs.arrows))
        table = {}
        for x in M.on_objects[g]:
            fam = {}
            for h in gs.arrows:
                gh = base.compose(g, h)
                xh = M.on_arrows[slice_arrow_name(h, g)][x]
                fam[slice_arrow_name(h, g)] = \
                    alpha[gh].components[base.id_of(base.dom(h))][xh]
            from .site import MatchingFamily

            mf = MatchingFamily(N, lifted, fam)
            mf.validate()
            ams = amalgamations(N, lifted, mf)
            if len(ams) != 1:
                raise InvalidTable(f"gluing at {g!r} is not unique: {len(ams)} candidates")
            table[x] = ams[0]
        comps[g] = table
    lam = PresheafMap(M, N, comps)
    lam.validate()
    return lam


def omega_J_probe(j: GrothTopology, data: list[SheafDescentDatum],
                  bound: int = DEFAULT_BOUND) -> Report:
    """Probe the stack property of the sheaf-valued classifier on supplied
    descent data: run the gluing algorithm, verify the witness, and verify
    morphism gluing and its uniqueness on the glued sheaf."""
    report = Report("omega_J_probe")
    for idx, d in enumerate(data):
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
        # morphism gluing: every endomorphism family induced by restriction
        # glues back to the map it came from, uniquely
        try:
            lam_pool = search_presheaf_maps(M, M, bound)
        except SizeBound as exc:
            report.bounded(f"morphism-gluing at datum {idx}", exc.bound)
            lam_pool = []
        for lam0 in lam_pool[:4]:
            alpha = {}
            ok = True
            for f in d.sieve.arrows:
                alpha[f] = reindex_slice_presheaf_map(d.site, f, lam0)
            try:
                lam = glue_sheaf_morphisms(d.site, j, d.sieve, M, M, alpha, bound)
            except InvalidTable as exc:
                report.fail(("morphism-gluing", idx, str(exc)))
                ok = False
            if ok and lam != lam0:
                report.fail(("morphism-gluing-uniqueness", idx))
        report.note(("glued", idx, {c2: len(v) for c2, v in M.on_objects.items()}))
    return report
