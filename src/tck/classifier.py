"""The prestack classifier, represented intensionally.

The classifying object sends c to the (infinite) category of set-valued
presheaves on slice(C, c); it is never materialized.  A morphism z from F
into it is held on the dense generator, the category of elements of F: as
its fibre functor B_z, a set functor on elements_category(F).  Its parts,
one slice presheaf per (c, X in F(c)) and one presheaf map per arrow of
F(c), are derived from B_z when read: the presheaf at (c, X) is B_z along
slice(C, c)^op -> elements_category(F), f |-> <dom f|F(f)X>, so strict
2-naturality holds on the nose.  An omega-modification z => w is likewise
held as a natural map B_z => B_w; its component at (c, X) and f is the map
at <dom f|F(f)X>, which is the reindexing axiom.

classify builds the classified opfibration from the fibre formula (the
fibres and transports of B_z at the identity slice objects); char is the
fibre diagram of an opfibration, and the omega-modification search is the
search for natural maps between fibre functors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import cat2, prestack
from .errors import InvalidTable, NoIsoFound, UnknownObject
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinSetFunctor,
    PresheafMap,
    SetFunctorMap,
    SetPresheaf,
    identity_functor,
    mark_valid,
    search_setfunctor_maps,
    slice_arrow_name,
    _slice_of,
    validates_once,
)
from .prestack import (
    CatPresheaf,
    DiscOpfibPre,
    TwoNat,
    element_arrow_name,
    element_name,
    elements_category,
    represented_object,
    representable,
)
from .report import Report


@dataclass(frozen=True, eq=True)
class MapToOmega:
    """A morphism F -> Omega-tilde, held as its fibre functor on
    elements_category(F); ``parts`` keeps the parts a map was given by, if
    any, for validate to check table by table against B_z, which derives
    them, without building the derived parts."""

    site: FinCat
    source: CatPresheaf
    fibre_functor: FinSetFunctor
    parts: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _classified(self) -> DiscOpfibPre:
        """classify's result, kept for the life of this map."""
        return _classify(self)

    @cached_property
    def _fibres_at(self) -> dict[str, FinSetFunctor]:
        """c -> B_z on F(c), X |-> B_z<c|X> and nu |-> B_z<id_c|nu|X>: the set
        functor whose category of elements is classify(z)'s total at c.
        Valid, and read, once z is valid."""
        B, site = self.fibre_functor, self.site
        return {c: mark_valid(FinSetFunctor(
            Fc, {x: B.on_objects[element_name(c, x)] for x in Fc.objects},
            {nu: B.on_arrows[element_arrow_name(site.id_of(c), nu, Fc.dom(nu))]
             for nu in Fc.arrows}))
            for c, Fc in self.source.on_objects.items()}

    @cached_property
    def object_part(self) -> dict[tuple[str, str], SetPresheaf]:
        """(c, X) -> the presheaf on slice(C, c) sending f to B_z<dom f|F(f)X>.
        Valid, and read, once z is valid."""
        B = self.fibre_functor
        objects, arrows, _ = self.source._slice_elements
        slices = {c: _slice_of(self.site, c) for c in self.source.on_objects}
        return {
            (c, x): mark_valid(SetPresheaf(
                slices[c],
                {f: B.on_objects[o] for f, o in names.items()},
                {a: B.on_arrows[n] for a, n in arrows[(c, x)].items()},
            ))
            for (c, x), names in objects.items()
        }

    @cached_property
    def arrow_part(self) -> dict[tuple[str, str], PresheafMap]:
        """(c, nu) -> the presheaf map that B_z acts as on the vertical arrows
        nu induces."""
        B = self.fibre_functor
        parts = self.object_part
        out = {}
        for (c, nu), names in self.source._slice_elements[2].items():
            Fc = self.source.on_objects[c]
            out[(c, nu)] = PresheafMap(parts[(c, Fc.dom(nu))], parts[(c, Fc.cod(nu))],
                                       {f: B.on_arrows[n] for f, n in names.items()})
        return out

    @validates_once
    def validate(self) -> None:
        F = self.source
        if F.base != self.site:
            raise InvalidTable("map-to-omega site does not match its source presheaf")
        if self.fibre_functor.base != elements_category(F):
            raise InvalidTable("fibre functor does not live on elements_category(F)")
        if self.parts is not None:
            object_part, arrow_part = self.parts
            objects, _, verticals = F._slice_elements
            for key, Z in object_part.items():
                if key not in objects:
                    raise InvalidTable(f"object_part key {key!r} is no object of F")
                if Z.base != _slice_of(self.site, key[0]):
                    raise InvalidTable(f"object_part at {key!r} is not on slice(C, {key[0]!r})")
                if not self._is_object_part(Z, key):
                    raise InvalidTable(f"strict naturality of object_part fails at {key!r}")
            on_arrows = self.fibre_functor.on_arrows
            for key, m in arrow_part.items():
                if key not in verticals:
                    raise InvalidTable(f"arrow_part key {key!r} is no arrow of F")
                c, nu = key
                # an end that is the given part at its key was checked above
                ends = ((m.source, (c, F.on_objects[c].dom(nu))),
                        (m.target, (c, F.on_objects[c].cod(nu))))
                if not (type(m) is PresheafMap
                        and all(Z is object_part.get(k) or self._is_object_part(Z, k)
                                for Z, k in ends)
                        and m.components == _read(on_arrows, verticals[key])):
                    raise InvalidTable(f"strict naturality of arrow_part fails at {key!r}")
        self.fibre_functor.validate()

    def _is_object_part(self, Z, key: tuple[str, str]) -> bool:
        """Z == self.object_part[key], compared with B_z's tables, so that
        no part is built."""
        objects, arrows, _ = self.source._slice_elements
        B = self.fibre_functor
        return (type(Z) is SetPresheaf and Z.base == _slice_of(self.site, key[0])
                and Z.on_objects == _read(B.on_objects, objects[key])
                and Z.on_arrows == _read(B.on_arrows, arrows[key]))


def _read(values: Mapping, names: Mapping[str, str]) -> dict:
    """k -> values[n] for each k -> n of names."""
    return {k: values[n] for k, n in names.items()}


def map_from_parts(site: FinCat, F: CatPresheaf,
                   object_part: Mapping[tuple[str, str], SetPresheaf],
                   arrow_part: Mapping[tuple[str, str], PresheafMap]) -> MapToOmega:
    """A map given by its parts, as a document gives it.

    B_z is read off the parts at the identity slice objects: <c|X> holds
    Z_(c,X)(id_c), and <f|mu|X> acts as Z_(c,X)(f>id_c) and then the arrow
    part of mu at id_(dom f).  The parts are kept, and validate checks that
    they are the ones B_z derives and that B_z is a set functor: together,
    that the parts are strictly 2-natural.
    """
    if set(object_part) != {(c, x) for c in F.base.objects for x in F.on_objects[c].objects}:
        raise InvalidTable("object_part keys do not match the objects of F")
    if set(arrow_part) != {(c, nu) for c in F.base.objects for nu in F.on_objects[c].arrows}:
        raise InvalidTable("arrow_part keys do not match the arrows of F")
    base = F.base
    el, obj_parts, arr_parts = F._elements
    on_objects = {o: object_part[(c, x)].on_objects.get(base.id_of(c), ())
                  for o, (c, x) in obj_parts.items()}
    on_arrows = {}
    for name, (f, mu, x) in arr_parts.items():
        d, c = base.arrows[f]
        restrict = object_part[(c, x)].on_arrows.get(slice_arrow_name(f, base.id_of(c)), {})
        move = arrow_part[(d, mu)].components.get(base.id_of(d), {})
        on_arrows[name] = {t: move.get(v) for t, v in restrict.items()}
    return MapToOmega(site, F, FinSetFunctor(el, on_objects, on_arrows),
                      (dict(object_part), dict(arrow_part)))


@dataclass(frozen=True, eq=True)
class OmegaModification:
    """A modification z => w, held as a natural map B_z => B_w."""

    source: MapToOmega
    target: MapToOmega
    fibre_map: SetFunctorMap

    @cached_property
    def components(self) -> dict[tuple[str, str], PresheafMap]:
        """(c, X) -> the presheaf map f |-> the fibre map at <dom f|F(f)X>."""
        z, w = self.source, self.target
        m = self.fibre_map.components
        return {
            key: PresheafMap(z.object_part[key], w.object_part[key],
                             {f: m[o] for f, o in names.items()})
            for key, names in z.source._slice_elements[0].items()
        }

    @validates_once
    def validate(self) -> None:
        z, w = self.source, self.target
        if z.source != w.source or z.site != w.site:
            raise InvalidTable("omega-modification endpoints are not parallel")
        if self.fibre_map.source != z.fibre_functor or \
           self.fibre_map.target != w.fibre_functor:
            raise InvalidTable("omega-modification fibre map has wrong endpoints")
        self.fibre_map.validate()

    def is_iso(self) -> bool:
        return self.fibre_map.is_iso()


# -- the distinguished point -----------------------------------------------------------


def omega_point(F: CatPresheaf) -> MapToOmega:
    """The composite F -> 1 -> Omega-tilde: constant singleton everywhere."""
    el = elements_category(F)
    return MapToOmega(F.base, F, FinSetFunctor(
        el, {o: ("*",) for o in el.objects}, {a: {"*": "*"} for a in el.arrows}))


# -- classification ---------------------------------------------------------------------


def classify(z: MapToOmega) -> DiscOpfibPre:
    """The classified discrete opfibration, built from the fibre formula.

    The fibre over (c, X) is B_z<c|X>; vertical transport is B_z on
    <id_c|nu|X>, and restriction along f is B_z on <f|id|X>.  Results are
    memoized per map instance.
    """
    return z._classified


def _classify(z: MapToOmega) -> DiscOpfibPre:
    z.validate()
    site = z.site
    F = z.source
    B = z.fibre_functor
    fibres = z._fibres_at
    totals = {c: cat2.elements_of(fibres[c]) for c in sorted(site.objects)}
    on_arrows = {}
    for f, (d, c) in site.arrows.items():
        if site.is_identity(f):
            # F and B_z are strict, so F(id_c) and B_z<id_c|id|X> are identities
            on_arrows[f] = identity_functor(totals[c].total)
            continue
        Ff = F.on_arrows[f]
        Fd = F.on_objects[d]
        restrict = {
            x: B.on_arrows[element_arrow_name(f, Fd.id_of(Ff.on_objects[x]), x)]
            for x in F.on_objects[c].objects
        }
        on_arrows[f] = cat2.elements_functor(fibres[c], totals[c].total, totals[d].total,
                                             Ff, restrict)
    # valid, as is s, because B_z is a set functor: restriction is natural
    G = CatPresheaf(site, {c: totals[c].total for c in site.objects}, on_arrows)
    s = TwoNat(G, F, {c: totals[c].p for c in site.objects})
    return DiscOpfibPre(s, totals)


# -- the characteristic morphism ----------------------------------------------------------


def char(phi: DiscOpfibPre) -> MapToOmega:
    """The normalized characteristic morphism of a certified opfibration:
    its fibre diagram on the category of elements.

    The presheaf derived at (c, X) sends f: d -> c to the fibre over
    (d, F(f)X), slice arrows act by the total presheaf, and arrows of F(c)
    act by transporting fibres along liftings.
    """
    F = phi.codomain
    # valid because phi is certified over a strict F, so its fibre diagram
    # is a set functor on elements_category(F); recorded, so that classify
    # does not check it again
    return mark_valid(MapToOmega(F.base, F, prestack.fibre_diagram(phi)))


def gamma_mod(alpha: OmegaModification) -> TwoNat:
    """Action of the classification on 2-cells: a fibred map classify(source)
    -> classify(target) transporting each fibre element along the fibre map."""
    alpha.validate()
    z, w = alpha.source, alpha.target
    src = classify(z)
    tgt = classify(w)
    F, site, fibres = z.source, z.site, z._fibres_at
    G, H = src.total.on_objects, tgt.total.on_objects
    m = alpha.fibre_map.components
    # F(id_c) is the identity functor on F(c), since F is strict
    comps = {c: cat2.elements_functor(fibres[c], G[c], H[c], F.on_arrows[site.id_of(c)],
                                      {x: m[element_name(c, x)] for x in F.on_objects[c].objects})
             for c in site.objects}
    # valid and over F because alpha is natural: (x, t) goes to (x, alpha(t))
    return TwoNat(src.total, tgt.total, comps)


# -- the indexed Grothendieck equivalence over representables ------------------------------


def j_forward(site: FinCat, c: str, Z: SetPresheaf) -> DiscOpfibPre:
    """From a presheaf on slice(C, c) to an opfibration over representable(c):
    classify of the map whose fibre functor on elements_category of the
    representable, which is slice(C, c)^op, is Z: <d|f> holds Z(f) and
    <g|id|f> acts as Z(g>f)."""
    sl = _slice_of(site, c)
    if Z.base != sl:
        raise InvalidTable("j_forward expects a presheaf on slice(C, c)")
    if c not in site.objects:
        raise UnknownObject(c)
    Z.validate()
    rep = representable(site, c)
    el, obj_parts, arr_parts = rep._elements
    B = FinSetFunctor(el, {o: Z.on_objects[f] for o, (_, f) in obj_parts.items()},
                      {n: Z.on_arrows[slice_arrow_name(g, f)]
                       for n, (g, _, f) in arr_parts.items()})
    # valid because Z is a presheaf on slice(C, c)
    return classify(mark_valid(MapToOmega(site, rep, mark_valid(B))))


def j_inverse(psi: DiscOpfibPre) -> SetPresheaf:
    """From an opfibration over representable(c) back to a presheaf on the
    slice: char(psi) at (c, id_c), which sends f to the fibre over f."""
    c = represented_object(psi.codomain)
    if c is None:
        raise InvalidTable("j_inverse expects an opfibration over a representable")
    return char(psi).object_part[(c, psi.codomain.base.id_of(c))]


# -- modifications between maps to Omega ---------------------------------------------------


def enumerate_omega_modifications(z: MapToOmega, w: MapToOmega,
                                  bound: int = DEFAULT_BOUND,
                                  iso_only: bool = False,
                                  limit: int | None = None) -> list[OmegaModification]:
    """All omega-modifications z => w, the first ``limit`` of them when a
    limit is given: the natural maps B_z => B_w, by the set-functor search
    on elements_category(F), in its lexicographic order.  The bound caps
    the nodes of the search."""
    if z.source != w.source or z.site != w.site:
        raise InvalidTable("enumerate_omega_modifications needs parallel maps")
    z.validate()
    w.validate()
    maps = search_setfunctor_maps(z.fibre_functor, w.fibre_functor, bound, iso_only, limit,
                                  what="enumerate_omega_modifications nodes")
    # valid because z and w are and every map the search returns is natural
    return [mark_valid(OmegaModification(z, w, m)) for m in maps]


def find_omega_iso(z: MapToOmega, w: MapToOmega,
                   bound: int = DEFAULT_BOUND) -> OmegaModification | None:
    found = enumerate_omega_modifications(z, w, bound, iso_only=True, limit=1)
    return found[0] if found else None


# -- full faithfulness and round trips -------------------------------------------------------


def _tables(t: TwoNat) -> tuple:
    """The component tables of t, comparable as a set member."""
    return tuple((c, frozenset(t.components[c].on_objects.items()),
                  frozenset(t.components[c].on_arrows.items()))
                 for c in sorted(t.components))


def ff_check(z: MapToOmega, w: MapToOmega, bound: int = DEFAULT_BOUND) -> Report:
    """Certify that gamma_mod is a bijection from omega-modifications z => w
    onto the fibred maps classify(z) -> classify(w).

    The two sides are built apart: the modifications are searched on B_z
    and B_w, the fibred maps on the fibre diagrams of the classified
    opfibrations, which are built by transport along their liftings.
    """
    report = Report("ff_check")
    mods = enumerate_omega_modifications(z, w, bound)
    homs = prestack.fib_hom(classify(z), classify(w), bound)
    images = [gamma_mod(mod) for mod in mods]
    image_tables = [_tables(img) for img in images]
    seen: set[tuple] = set()
    for img, key in zip(images, image_tables):
        if key in seen:
            report.fail(("not-injective", repr(img.components)))
            return report
        seen.add(key)
    hom_tables = [_tables(h) for h in homs]
    hom_set = set(hom_tables)
    for img, key in zip(images, image_tables):
        if key not in hom_set:
            report.fail(("image-outside-homs", repr(img.components)))
            return report
    for h, key in zip(homs, hom_tables):
        if key not in seen:
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
