"""The prestack classifier, represented intensionally.

The classifying object sends c to the (infinite) category of set-valued
presheaves on slice(C, c); it is never materialized.  A morphism from F
into it is stored as a MapToOmega: one slice presheaf per (c, X in F(c)),
one presheaf map per arrow of F(c), with strict reindexing equalities.

classify builds the classified opfibration from the fibre formula (the
sections of the assigned presheaf at the identity); char packages the
fibre diagram of an opfibration on the category of elements, the dense
generator, with map_from_fibres, which is what makes strict 2-naturality
hold on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import cat2, prestack
from .errors import InvalidTable, NoIsoFound, UnknownObject
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinFunctor,
    FinSetFunctor,
    PresheafMap,
    SetPresheaf,
    compose_presheaf_maps,
    delta1,
    guard,
    identity_presheaf_map,
    mark_valid,
    named_parts,
    reindex_slice_components,
    reindex_slice_presheaf,
    reindex_slice_presheaf_map,
    search_presheaf_maps,
    slice_arrow_name,
    slice_cat,
    validates_once,
)
from .prestack import (
    CatPresheaf,
    DiscOpfibPre,
    TwoNat,
    certify_valid_dopf_pre,
    representable,
)
from .report import Report


@dataclass(frozen=True, eq=True)
class MapToOmega:
    """A morphism F -> Omega-tilde, given per object of F(c) by a presheaf
    on slice(C, c) and per arrow by a presheaf map."""

    site: FinCat
    source: CatPresheaf
    object_part: Mapping[tuple[str, str], SetPresheaf]
    arrow_part: Mapping[tuple[str, str], PresheafMap]

    @cached_property
    def _classified(self) -> DiscOpfibPre:
        """classify's result, kept for the life of this map."""
        return _classify(self)

    @validates_once
    def validate(self) -> None:
        F = self.source
        if F.base != self.site:
            raise InvalidTable("map-to-omega site does not match its source presheaf")
        expected_obj = {(c, x) for c in F.base.objects for x in F.on_objects[c].objects}
        if set(self.object_part) != expected_obj:
            raise InvalidTable("object_part keys do not match the objects of F")
        expected_arr = {(c, nu) for c in F.base.objects for nu in F.on_objects[c].arrows}
        if set(self.arrow_part) != expected_arr:
            raise InvalidTable("arrow_part keys do not match the arrows of F")
        for (c, x), Z in self.object_part.items():
            sl, _ = slice_cat(self.site, c)
            if Z.base != sl:
                raise InvalidTable(f"object_part({c!r}, {x!r}) not on slice(C, {c!r})")
            Z.validate()
        for (c, nu), m in self.arrow_part.items():
            Fc = F.on_objects[c]
            if m.source != self.object_part[(c, Fc.dom(nu))] or \
               m.target != self.object_part[(c, Fc.cod(nu))]:
                raise InvalidTable(f"arrow_part({c!r}, {nu!r}) has wrong endpoints")
            m.validate()
        for c in F.base.objects:
            Fc = F.on_objects[c]
            for x in Fc.objects:
                if self.arrow_part[(c, Fc.id_of(x))] != \
                   identity_presheaf_map(self.object_part[(c, x)]):
                    raise InvalidTable(f"arrow_part at identity on {x!r} is not the identity")
            for (nu2, nu1), comp in Fc.compose_table.items():
                if self.arrow_part[(c, comp)] != compose_presheaf_maps(
                    self.arrow_part[(c, nu2)], self.arrow_part[(c, nu1)]
                ):
                    raise InvalidTable(
                        f"arrow_part not functorial on ({nu2!r}, {nu1!r}) at {c!r}"
                    )
        # strict 2-naturality of both parts
        for f, (d, c) in F.base.arrows.items():
            for x in F.on_objects[c].objects:
                fx = F.on_arrows[f].on_objects[x]
                if self.object_part[(d, fx)] != \
                   reindex_slice_presheaf(self.site, f, self.object_part[(c, x)]):
                    raise InvalidTable(
                        f"strict naturality of object_part fails on {f!r} at {x!r}"
                    )
            for nu in F.on_objects[c].arrows:
                fnu = F.on_arrows[f].on_arrows[nu]
                if self.arrow_part[(d, fnu)] != \
                   reindex_slice_presheaf_map(self.site, f, self.arrow_part[(c, nu)]):
                    raise InvalidTable(
                        f"strict naturality of arrow_part fails on {f!r} at {nu!r}"
                    )


@dataclass(frozen=True, eq=True)
class OmegaModification:
    source: MapToOmega
    target: MapToOmega
    components: Mapping[tuple[str, str], PresheafMap]

    @validates_once
    def validate(self) -> None:
        z, w = self.source, self.target
        if z.source != w.source or z.site != w.site:
            raise InvalidTable("omega-modification endpoints are not parallel")
        if set(self.components) != set(z.object_part):
            raise InvalidTable("omega-modification component table is not total")
        F = z.source
        for (c, x), m in self.components.items():
            if m.source != z.object_part[(c, x)] or m.target != w.object_part[(c, x)]:
                raise InvalidTable(f"component at ({c!r}, {x!r}) has wrong endpoints")
            m.validate()
        # naturality in x against arrow_part
        for c in F.base.objects:
            Fc = F.on_objects[c]
            for nu in Fc.arrows:
                x, x2 = Fc.dom(nu), Fc.cod(nu)
                lhs = compose_presheaf_maps(self.components[(c, x2)], z.arrow_part[(c, nu)])
                rhs = compose_presheaf_maps(w.arrow_part[(c, nu)], self.components[(c, x)])
                if lhs != rhs:
                    raise InvalidTable(f"naturality in x fails at ({c!r}, {nu!r})")
        # modification axiom under reindexing
        for f, (d, c) in F.base.arrows.items():
            for x in F.on_objects[c].objects:
                fx = F.on_arrows[f].on_objects[x]
                if self.components[(d, fx)] != \
                   reindex_slice_presheaf_map(z.site, f, self.components[(c, x)]):
                    raise InvalidTable(f"reindexing axiom fails on {f!r} at {x!r}")

    def is_iso(self) -> bool:
        return all(m.is_iso() for m in self.components.values())


# -- the distinguished point -----------------------------------------------------------


def omega_point(F: CatPresheaf) -> MapToOmega:
    """The composite F -> 1 -> Omega-tilde: constant singleton everywhere."""
    site = F.base
    object_part = {}
    arrow_part = {}
    for c in site.objects:
        sl, _ = slice_cat(site, c)
        d1 = delta1(sl)
        for x in F.on_objects[c].objects:
            object_part[(c, x)] = d1
        for nu in F.on_objects[c].arrows:
            arrow_part[(c, nu)] = identity_presheaf_map(d1)
    # valid because delta1 reindexes to delta1 and identities compose
    return MapToOmega(site, F, object_part, arrow_part)


# -- classification ---------------------------------------------------------------------


def _fibre_table(z: MapToOmega, c: str) -> FinSetFunctor:
    """The set functor X |-> Z_X(id_c) on F(c), with transport from arrow_part."""
    F = z.source
    Fc = F.on_objects[c]
    idc = z.site.id_of(c)
    return FinSetFunctor(
        Fc,
        {x: z.object_part[(c, x)].on_objects[idc] for x in Fc.objects},
        {nu: dict(z.arrow_part[(c, nu)].components[idc]) for nu in Fc.arrows},
    )


def classify(z: MapToOmega) -> DiscOpfibPre:
    """The classified discrete opfibration, built from the fibre formula.

    The fibre over (c, X) is the value of the assigned slice presheaf at
    the identity; transitions restrict along the slice arrow f > id.
    Results are memoized per map instance.
    """
    return z._classified


def _classify(z: MapToOmega) -> DiscOpfibPre:
    z.validate()
    site = z.site
    F = z.source
    # valid, as are the functors, G and s below, because z is strictly 2-natural
    totals = {c: cat2.elements_of_valid(_fibre_table(z, c)) for c in site.objects}
    on_arrows = {}
    for f, (d, c) in site.arrows.items():
        idc = site.id_of(c)
        src, tgt = totals[c].total, totals[d].total
        restrict = slice_arrow_name(f, idc)
        on_objects = {}
        for o in src.objects:
            x = totals[c].p.on_objects[o]
            t = o[2 + len(x):-1]
            fx = F.on_arrows[f].on_objects[x]
            on_objects[o] = f"({fx},{z.object_part[(c, x)].on_arrows[restrict][t]})"
        arr_map = {}
        for name, (o1, _) in src.arrows.items():
            nu = totals[c].p.on_arrows[name]
            x = totals[c].p.on_objects[o1]
            t = o1[2 + len(x):-1]
            arr_map[name] = (
                f"({F.on_arrows[f].on_arrows[nu]},"
                f"{z.object_part[(c, x)].on_arrows[restrict][t]})"
            )
        on_arrows[f] = FinFunctor(src, tgt, on_objects, arr_map)
    G = CatPresheaf(site, {c: totals[c].total for c in site.objects}, on_arrows)
    s = TwoNat(G, F, {c: totals[c].p for c in site.objects})
    return certify_valid_dopf_pre(s)


# -- the characteristic morphism ----------------------------------------------------------


def map_from_fibres(F: CatPresheaf, B: FinSetFunctor) -> MapToOmega:
    """Package fibre data on elements_category(F) as a map into the classifier.

    The presheaf assigned to (c, X) evaluates at f: d -> c to the set over
    the reindexed object <d|F(f)X>; the slice arrow g>f acts as B on the
    restriction arrow <g|id|F(f)X>, and an arrow nu of F(c) acts at f as B
    on the vertical arrow <id_d|F(f)nu|F(f)X>, so strict 2-naturality holds
    on the nose.  B is not checked: it must be a set functor on
    elements_category(F).
    """
    site = F.base

    def vert(c: str, nu: str, x: str) -> str:
        return f"<{site.id_of(c)}|{nu}|{x}>"

    def restr(f: str, x: str) -> str:
        d = site.dom(f)
        fx = F.on_arrows[f].on_objects[x]
        return f"<{f}|{F.on_objects[d].id_of(fx)}|{x}>"

    object_part: dict[tuple[str, str], SetPresheaf] = {}
    arrow_part: dict[tuple[str, str], PresheafMap] = {}
    for c in site.objects:
        sl, _ = slice_cat(site, c)
        Fc = F.on_objects[c]
        for x in Fc.objects:
            on_objects = {}
            on_arrows = {}
            for f in sl.objects:
                fx = F.on_arrows[f].on_objects[x]
                on_objects[f] = B.on_objects[f"<{site.dom(f)}|{fx}>"]
            for f in sl.objects:
                fx = F.on_arrows[f].on_objects[x]
                for g in site.arrows_into(site.dom(f)):
                    on_arrows[slice_arrow_name(g, f)] = dict(B.on_arrows[restr(g, fx)])
            object_part[(c, x)] = SetPresheaf(sl, on_objects, on_arrows)
        for nu in Fc.arrows:
            x = Fc.dom(nu)
            comps = {}
            for f in sl.objects:
                d = site.dom(f)
                fx = F.on_arrows[f].on_objects[x]
                fnu = F.on_arrows[f].on_arrows[nu]
                comps[f] = dict(B.on_arrows[vert(d, fnu, fx)])
            arrow_part[(c, nu)] = PresheafMap(
                object_part[(c, x)], object_part[(c, Fc.cod(nu))], comps
            )
    return MapToOmega(site, F, object_part, arrow_part)


def char(phi: DiscOpfibPre) -> MapToOmega:
    """The normalized characteristic morphism of a certified opfibration:
    its fibre diagram on the category of elements, packaged as a map.

    The presheaf assigned to (c, X) sends f: d -> c to the fibre over
    (d, F(f)X), slice arrows act by the total presheaf, and arrows of F(c)
    act by transporting fibres along liftings.
    """
    # valid because phi is certified over a strict F, so its fibre diagram
    # is a set functor on elements_category(F); recorded, so that classify
    # does not check it again
    return mark_valid(map_from_fibres(phi.codomain, prestack.fibre_diagram(phi)))


def precompose_map_to_omega(z: MapToOmega, y: TwoNat) -> MapToOmega:
    """Reindex z: F -> Omega-tilde along y: H -> F."""
    if y.target != z.source:
        raise InvalidTable("precompose_map_to_omega: endpoints disagree")
    z.validate()
    y.validate()
    H = y.source
    object_part = {
        (c, w): z.object_part[(c, y.components[c].on_objects[w])]
        for c in H.base.objects
        for w in H.on_objects[c].objects
    }
    arrow_part = {
        (c, nu): z.arrow_part[(c, y.components[c].on_arrows[nu])]
        for c in H.base.objects
        for nu in H.on_objects[c].arrows
    }
    # valid because y is strictly natural and z strictly 2-natural
    return MapToOmega(z.site, H, object_part, arrow_part)


def gamma_mod(alpha: OmegaModification) -> TwoNat:
    """Action of the classification on 2-cells: a fibred map classify(source)
    -> classify(target) transporting each fibre element along the component."""
    alpha.validate()
    z, w = alpha.source, alpha.target
    site = z.site
    F = z.source
    src = classify(z)
    tgt = classify(w)
    comps = {}
    for c in site.objects:
        idc = site.id_of(c)
        Fc = F.on_objects[c]
        on_objects = {}
        for o in src.total.on_objects[c].objects:
            x = src.s.components[c].on_objects[o]
            t = o[2 + len(x):-1]
            on_objects[o] = f"({x},{alpha.components[(c, x)].components[idc][t]})"
        arr_map = {}
        for name, (o1, _) in src.total.on_objects[c].arrows.items():
            nu = src.s.components[c].on_arrows[name]
            x = src.s.components[c].on_objects[o1]
            t = o1[2 + len(x):-1]
            arr_map[name] = f"({nu},{alpha.components[(c, x)].components[idc][t]})"
        comps[c] = FinFunctor(src.total.on_objects[c], tgt.total.on_objects[c],
                              on_objects, arr_map)
    # valid and over F because alpha is a modification: (x, t) goes to (x, alpha(t))
    return TwoNat(src.total, tgt.total, comps)


# -- the indexed Grothendieck equivalence over representables ------------------------------


def j_forward(site: FinCat, c: str, Z: SetPresheaf) -> DiscOpfibPre:
    """From a presheaf on slice(C, c) to an opfibration over representable(c)."""
    sl, _ = slice_cat(site, c)
    if Z.base != sl:
        raise InvalidTable("j_forward expects a presheaf on slice(C, c)")
    if c not in site.objects:
        raise UnknownObject(c)
    Z.validate()
    rep = representable(site, c)
    from .fincat import discrete_category

    cats = {}
    comps = {}
    for d in site.objects:
        parts = named_parts(((f, x) for f in site.hom(d, c) for x in Z.on_objects[f]),
                            lambda f, x: f"({f},{x})")
        cats[d] = discrete_category(sorted(parts))
        on_objects = {o: f for o, (f, _) in parts.items()}
        comps[d] = FinFunctor(
            cats[d], rep.on_objects[d], on_objects,
            {f"id_{o}": f"id_{on_objects[o]}" for o in on_objects},
        )
    on_arrows = {}
    for g, (e, d) in site.arrows.items():
        on_objects = {}
        for f in site.hom(d, c):
            fg = site.compose(f, g)
            for x in Z.on_objects[f]:
                on_objects[f"({f},{x})"] = f"({fg},{Z.on_arrows[slice_arrow_name(g, f)][x]})"
        on_arrows[g] = FinFunctor(
            cats[d], cats[e], on_objects,
            {f"id_{o}": f"id_{on_objects[o]}" for o in on_objects},
        )
    # valid because Z is a presheaf: H(g) acts on (f, x) as Z(g>f) does
    H = CatPresheaf(site, cats, on_arrows)
    s = TwoNat(H, rep, comps)
    return certify_valid_dopf_pre(s)


def j_inverse(psi: DiscOpfibPre) -> SetPresheaf:
    """From an opfibration over representable(c) back to a presheaf on the slice."""
    site = psi.codomain.base
    target_c = None
    for c in site.objects:
        if psi.codomain == representable(site, c):
            target_c = c
            break
    if target_c is None:
        raise InvalidTable("j_inverse expects an opfibration over a representable")
    c = target_c
    sl, _ = slice_cat(site, c)
    H = psi.total
    on_objects = {f: psi.fibre(site.dom(f), f) for f in sl.objects}
    on_arrows = {}
    for f in sl.objects:
        d = site.dom(f)
        for g in site.arrows_into(d):
            on_arrows[slice_arrow_name(g, f)] = {
                y: H.on_arrows[g].on_objects[y] for y in on_objects[f]
            }
    # valid because psi is over representable(c) and H is strict
    return SetPresheaf(sl, on_objects, on_arrows)


# -- modifications between maps to Omega ---------------------------------------------------


def enumerate_omega_modifications(z: MapToOmega, w: MapToOmega,
                                  bound: int = DEFAULT_BOUND,
                                  iso_only: bool = False,
                                  first_only: bool = False) -> list[OmegaModification]:
    """All omega-modifications z => w, by backtracking with reindex forcing.

    A component at (c, X) forces, by reindexing, the component at
    (d, F(f)X) for every f: d -> c, so keys are branched on in order of
    most arrows into c first.  The candidates at a key the search branches
    on are the natural maps Z_(c,X) => W_(c,X), searched once per key (only
    the isomorphisms with iso_only); components travel as plain tables.
    Every complete assignment is a family of natural maps satisfying the
    reindexing axiom by construction, so a leaf checks only naturality in
    X against the arrow parts.  The bound caps the nodes of each search.
    """
    if z.source != w.source or z.site != w.site:
        raise InvalidTable("enumerate_omega_modifications needs parallel maps")
    z.validate()
    w.validate()
    site = z.site
    F = z.source
    keys = sorted(z.object_part, key=lambda key: (-len(site.arrows_into(key[0])), key))
    # naturality in X: per non-identity nu: X -> X2 of F(c), the keys of its
    # ends and the component tables of z and w at nu
    squares = [
        ((c, Fc.dom(nu)), (c, Fc.cod(nu)),
         z.arrow_part[(c, nu)].components, w.arrow_part[(c, nu)].components)
        for c in F.base.objects
        for Fc in (F.on_objects[c],)
        for nu in Fc.arrows if not Fc.is_identity(nu)
    ]
    candidates: dict[tuple[str, str], list[PresheafMap]] = {}
    assignment: dict[tuple[str, str], dict] = {}
    out: list[OmegaModification] = []
    nodes = 0

    def propagate(key, table, trail) -> bool:
        c, x = key
        for f in site.arrows_into(c):
            forced_key = (site.dom(f), F.on_arrows[f].on_objects[x])
            forced = reindex_slice_components(site, f, table)
            cur = assignment.get(forced_key)
            if cur is None:
                assignment[forced_key] = forced
                trail.append(forced_key)
            elif cur != forced:
                return False
        return True

    def natural_in_x() -> bool:
        for key, key2, za, wa in squares:
            a, a2 = assignment[key], assignment[key2]
            for g, ag in a.items():
                a2g, zag, wag = a2[g], za[g], wa[g]
                if any(a2g[zag[e]] != wag[v] for e, v in ag.items()):
                    return False
        return True

    def backtrack(i: int) -> bool:
        nonlocal nodes
        while i < len(keys) and keys[i] in assignment:
            i += 1
        if i == len(keys):
            if not natural_in_x():
                return False
            # valid because z and w are, and then:
            # - every key is assigned, so the component table is total;
            # - a component branched on comes from search_presheaf_maps, so
            #   it is a natural map Z_(c,X) => W_(c,X);
            # - a forced component is f* of a natural map, whose ends are
            #   Z_(d,F(f)X) and W_(d,F(f)X) by strict 2-naturality of z, w;
            # - the reindexing axiom holds: propagate forces every f into
            #   the object of a branched key and rejects a clash, and
            #   (fg)* = g*f* on the nose covers the keys it forced;
            # - naturality in X was checked just above
            mod = OmegaModification(z, w, {
                key: mark_valid(PresheafMap(z.object_part[key], w.object_part[key],
                                            assignment[key]))
                for key in sorted(assignment)
            })
            out.append(mark_valid(mod))
            return first_only
        key = keys[i]
        if key not in candidates:
            candidates[key] = search_presheaf_maps(
                z.object_part[key], w.object_part[key], bound, iso_only=iso_only
            )
        for m in candidates[key]:
            nodes += 1
            guard("enumerate_omega_modifications nodes", nodes, bound)
            trail: list[tuple[str, str]] = []
            if propagate(key, m.components, trail) and backtrack(i + 1):
                return True
            for forced_key in trail:
                del assignment[forced_key]
        return False

    backtrack(0)
    return out


def find_omega_iso(z: MapToOmega, w: MapToOmega,
                   bound: int = DEFAULT_BOUND) -> OmegaModification | None:
    found = enumerate_omega_modifications(z, w, bound, iso_only=True, first_only=True)
    return found[0] if found else None


# -- full faithfulness and round trips -------------------------------------------------------


def ff_check(z: MapToOmega, w: MapToOmega, bound: int = DEFAULT_BOUND) -> Report:
    """Certify that gamma_mod is a bijection from omega-modifications z => w
    onto the fibred maps classify(z) -> classify(w)."""
    report = Report("ff_check")
    mods = enumerate_omega_modifications(z, w, bound)
    homs = prestack.fib_hom(classify(z), classify(w), bound)
    images = []
    for mod in mods:
        images.append(gamma_mod(mod))
    for i, a in enumerate(images):
        for b in images[i + 1:]:
            if a == b:
                report.fail(("not-injective", repr(a.components)))
                return report
    hom_set = list(homs)
    for img in images:
        if img not in hom_set:
            report.fail(("image-outside-homs", repr(img.components)))
            return report
    for h in hom_set:
        if h not in images:
            report.fail(("not-surjective", repr(h.components)))
            return report
    report.note(("bijection", len(mods)))
    return report


def roundtrip_phi(phi: DiscOpfibPre, bound: int = DEFAULT_BOUND) -> TwoNat:
    """Witness classify(char(phi)) iso to phi over F, or raise NoIsoFound."""
    psi = classify(char(phi))
    iso = prestack.fib_iso(psi, phi, bound)
    if iso is None:
        raise NoIsoFound("classify(char(phi)) is not isomorphic to phi over F")
    return iso


def roundtrip_z(z: MapToOmega, bound: int = DEFAULT_BOUND) -> OmegaModification:
    """Witness char(classify(z)) iso to z, or raise NoIsoFound."""
    z2 = char(classify(z))
    iso = find_omega_iso(z2, z, bound)
    if iso is None:
        raise NoIsoFound("char(classify(z)) is not isomorphic to z")
    return iso
