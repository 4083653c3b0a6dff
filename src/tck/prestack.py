"""Strict Cat-valued presheaves on a finite site, their 2-natural
transformations and modifications, and pointwise discrete opfibrations.

Strictness is checked on the nose everywhere: functoriality and naturality
are equalities of tables, never isomorphisms.  Isomorphism only enters when
comparing opfibrations over a fixed presheaf, where it is searched for.

The category of elements, the slice tables into it and the pointwise
constructions intern each name they store; ``element_name`` and
``element_arrow_name``, which callers use to look those tables up, return
plain strings.
"""

from __future__ import annotations

from sys import intern
from typing import Mapping

from . import cat2
from .cat2 import DiscOpfibCat
from .errors import InvalidTable, NotOpfibration, NotOpfibrationAt, UnknownObject
from .fincat import (
    DEFAULT_BOUND,
    FinCat,
    FinFunctor,
    FinSetFunctor,
    NatTransform,
    cached_property,
    compose_functors,
    composition_table,
    discrete_category,
    identity_functor,
    mark_valid,
    named_parts,
    search_setfunctor_maps,
    validates_once,
    value_class,
    _slice_arrow,
)


@value_class
class CatPresheaf:
    """A strict 2-functor C^op -> Cat given by per-object/per-arrow tables."""

    base: FinCat
    on_objects: Mapping[str, FinCat]
    on_arrows: Mapping[str, FinFunctor]

    @cached_property
    def _elements(self) -> tuple[FinCat, dict, dict]:
        """The category of elements and its parts (see _elements_tables)."""
        return _elements_tables(self)

    @cached_property
    def _slice_elements(self) -> tuple[dict, dict, dict]:
        """What each slice reaches of the category of elements (see
        _slice_element_tables)."""
        return _slice_element_tables(self)

    @validates_once
    def validate(self) -> None:
        if set(self.on_objects) != set(self.base.objects):
            raise InvalidTable("cat presheaf object table is not total")
        if set(self.on_arrows) != set(self.base.arrows):
            raise InvalidTable("cat presheaf arrow table is not total")
        for cat in self.on_objects.values():
            cat.validate()
        for f, (d, c) in self.base.arrows.items():
            fun = self.on_arrows[f]
            if fun.source != self.on_objects[c] or fun.target != self.on_objects[d]:
                raise InvalidTable(f"action of {f!r} has wrong endpoints")
            fun.validate()
        # the functors have the right endpoints and are total, so they are
        # compared by their tables
        for c in self.base.objects:
            fun = self.on_arrows[self.base.id_of(c)]
            if any(x != y for x, y in fun.on_objects.items()) or \
               any(u != v for u, v in fun.on_arrows.items()):
                raise InvalidTable(f"identity on {c!r} does not act as the identity functor")
        for f, g, fg in self.base._proper_composites:
            # f: d -> c, g: e -> d; F(f.g) = F(g) . F(f) on the nose
            first, then, both = self.on_arrows[f], self.on_arrows[g], self.on_arrows[fg]
            if any(both.on_objects[x] != then.on_objects[y]
                   for x, y in first.on_objects.items()) or \
               any(both.on_arrows[u] != then.on_arrows[v] for u, v in first.on_arrows.items()):
                raise InvalidTable(f"strict functoriality fails on composite ({f!r}, {g!r})")


@value_class
class TwoNat:
    source: CatPresheaf
    target: CatPresheaf
    components: Mapping[str, FinFunctor]

    @validates_once
    def validate(self) -> None:
        F, G, comps = self.source, self.target, self.components
        if F.base != G.base:
            raise InvalidTable("two-natural transformation across different sites")
        F.validate()
        G.validate()
        if set(comps) != set(F.base.objects):
            raise InvalidTable("component table is not total")
        for c in F.base.objects:
            comp = comps[c]
            if comp.source != F.on_objects[c] or comp.target != G.on_objects[c]:
                raise InvalidTable(f"component at {c!r} has wrong endpoints")
            comp.validate()
        # for f: d -> c, G(f).s_c and s_d.F(f) are functors F(c) -> G(d), so they
        # are equal when their arrow tables are: an object goes where its identity does
        for f, (d, c) in F.base.arrows.items():
            Ff, Gf, s_d = F.on_arrows[f].on_arrows, G.on_arrows[f].on_arrows, comps[d].on_arrows
            if any(Gf[v] != s_d[Ff[u]] for u, v in comps[c].on_arrows.items()):
                raise InvalidTable(f"strict naturality fails on {f!r}")


@value_class
class Modification:
    source: TwoNat
    target: TwoNat
    components: Mapping[str, NatTransform]

    @validates_once
    def validate(self) -> None:
        z, w = self.source, self.target
        if z.source != w.source or z.target != w.target:
            raise InvalidTable("modification endpoints are not parallel")
        base = z.source.base
        if set(self.components) != set(base.objects):
            raise InvalidTable("modification component table is not total")
        for c in base.objects:
            m = self.components[c]
            if m.source != z.components[c] or m.target != w.components[c]:
                raise InvalidTable(f"modification component at {c!r} has wrong endpoints")
            m.validate()
        for f, (d, c) in base.arrows.items():
            # G(f) * m_c  ==  m_d * F(f)   componentwise on objects of F(c)
            gf = z.target.on_arrows[f]
            for x in z.source.on_objects[c].objects:
                lhs = gf.on_arrows[self.components[c].components[x]]
                rhs = self.components[d].components[z.source.on_arrows[f].on_objects[x]]
                if lhs != rhs:
                    raise InvalidTable(f"modification axiom fails on {f!r} at {x!r}")


@value_class
class DiscOpfibPre:
    """A 2-natural transformation with a certificate for each component."""

    s: TwoNat
    certificates: Mapping[str, DiscOpfibCat]

    @cached_property
    def fibres(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(c, X) -> the fibre over X at c, read off the certificates."""
        return {(c, x): fibre for c in sorted(self.certificates)
                for x, fibre in self.certificates[c].fibres.items()}

    @cached_property
    def _fibre_diagram(self) -> FinSetFunctor:
        """fibre_diagram's result, kept for the life of this opfibration."""
        return _fibre_functor(self)

    @property
    def total(self) -> CatPresheaf:
        return self.s.source

    @property
    def codomain(self) -> CatPresheaf:
        return self.s.target

    def fibre(self, c: str, x: str) -> tuple[str, ...]:
        return self.certificates[c].fibres[x]


# -- constructions ------------------------------------------------------------------


def discrete_presheaf(base: FinCat, Z) -> CatPresheaf:
    """View a SetPresheaf on base as a Cat-valued presheaf with discrete
    values."""
    if Z.base != base:
        raise InvalidTable("presheaf lives on a different base")
    Z.validate()
    cats = {c: discrete_category(Z.on_objects[c]) for c in base.objects}
    on_arrows = {}
    for f, (d, c) in base.arrows.items():
        table = Z.on_arrows[f]
        on_arrows[f] = FinFunctor(
            cats[c],
            cats[d],
            dict(table),
            {cats[c].id_of(x): cats[d].id_of(table[x]) for x in Z.on_objects[c]},
        )
    # valid because Z is: each F(f) acts on objects as Z(f) does
    return mark_valid(CatPresheaf(base, cats, on_arrows))


def representable(base: FinCat, c: str) -> CatPresheaf:
    """Hom(-, c) as a discrete Cat-valued presheaf."""
    if c not in base.objects:
        raise UnknownObject(c)
    from .site import representable_presheaf

    return discrete_presheaf(base, representable_presheaf(base, c))


def yoneda(F: CatPresheaf, c: str, x: str) -> TwoNat:
    """The 2-natural transformation representable(c) -> F picking x."""
    if c not in F.base.objects:
        raise UnknownObject(c)
    if x not in F.on_objects[c].objects:
        raise UnknownObject(x)
    F.validate()
    rep = representable(F.base, c)
    comps = {}
    for d in F.base.objects:
        on_objects = {f: F.on_arrows[f].on_objects[x] for f in F.base.hom(d, c)}
        on_arrows = {
            rep.on_objects[d].id_of(f): F.on_objects[d].id_of(on_objects[f])
            for f in F.base.hom(d, c)
        }
        comps[d] = FinFunctor(rep.on_objects[d], F.on_objects[d], on_objects, on_arrows)
    # valid because F is strict: F(g)(F(f)(x)) = F(f.g)(x)
    return TwoNat(rep, F, comps)


def represented_object(F: CatPresheaf) -> str | None:
    """The c with F == representable(base, c), if any.  Hom(d, c) holds
    id_d only for d = c, so c is read off F and compared once."""
    base = F.base
    c = next((c for c in base.objects if base.id_of(c) in F.on_objects[c].objects), None)
    return c if c is not None and F == representable(base, c) else None


def yoneda_inv(nat: TwoNat) -> str:
    """Evaluate a 2-natural transformation out of a representable at the
    identity; a nat that is no valid 2-natural transformation raises
    InvalidTable."""
    nat.validate()
    c = represented_object(nat.source)
    if c is None:
        raise InvalidTable("source is not a representable presheaf")
    return nat.components[c].on_objects[nat.source.base.id_of(c)]


def identity_two_nat(F: CatPresheaf) -> TwoNat:
    return TwoNat(F, F, {c: identity_functor(F.on_objects[c]) for c in F.base.objects})


def compose_two_nats(t: TwoNat, s: TwoNat) -> TwoNat:
    if s.target != t.source:
        raise InvalidTable("two-natural transformations not composable")
    return TwoNat(
        s.source,
        t.target,
        {c: compose_functors(t.components[c], s.components[c]) for c in s.components},
    )


# -- pointwise discrete opfibrations ---------------------------------------------------


def certify_dopf_pre(s: TwoNat) -> DiscOpfibPre:
    """Certify every component by cat2's lift scan, or reject naming the
    failing one."""
    s.validate()
    certs = {}
    for c in sorted(s.source.base.objects):
        try:
            # validating s validated its components, so only the scan runs
            certs[c] = cat2.certify_dopf(s.components[c])
        except NotOpfibration as exc:
            raise NotOpfibrationAt(c, exc) from exc
    return DiscOpfibPre(s, certs)


@value_class
class PreCommaCone:
    apex: CatPresheaf
    left_leg: TwoNat
    right_leg: TwoNat
    filler: Modification


def pointwise_comma(f: TwoNat, g: TwoNat) -> PreCommaCone:
    """Comma object in [C^op, Cat], calculated pointwise."""
    if f.target != g.target:
        raise InvalidTable("pointwise_comma: codomains disagree")
    f.validate()
    g.validate()
    base = f.source.base
    cones = {c: cat2.comma(f.components[c], g.components[c]) for c in base.objects}
    on_arrows = {}
    for u, (d, c) in base.arrows.items():
        src_cone, tgt_cone = cones[c], cones[d]
        A_u = f.source.on_arrows[u]
        B_u = g.source.on_arrows[u]
        C_u = f.target.on_arrows[u]
        on_objects = {}
        for o in src_cone.apex.objects:
            a = src_cone.left_leg.on_objects[o]
            b = src_cone.right_leg.on_objects[o]
            al = src_cone.filler.components[o]
            on_objects[o] = cat2._comma_object(A_u.on_objects[a], B_u.on_objects[b],
                                               C_u.on_arrows[al])
        arr_map = {}
        for name in src_cone.apex.arrows:
            u1 = src_cone.left_leg.on_arrows[name]
            v1 = src_cone.right_leg.on_arrows[name]
            o1, o2 = src_cone.apex.arrows[name]
            arr_map[name] = cat2._comma_arrow(A_u.on_arrows[u1], B_u.on_arrows[v1],
                                              on_objects[o1], on_objects[o2])
        on_arrows[u] = FinFunctor(src_cone.apex, tgt_cone.apex, on_objects, arr_map)
    # valid because f and g are strictly natural, so F(u) maps squares to squares
    apex = CatPresheaf(base, {c: cones[c].apex for c in base.objects}, on_arrows)
    left = TwoNat(apex, f.source, {c: cones[c].left_leg for c in base.objects})
    right = TwoNat(apex, g.source, {c: cones[c].right_leg for c in base.objects})
    filler = Modification(
        compose_two_nats(f, left),
        compose_two_nats(g, right),
        {c: cones[c].filler for c in base.objects},
    )
    return PreCommaCone(apex, left, right, filler)


def pointwise_pullback(p: DiscOpfibPre, z: TwoNat) -> tuple[DiscOpfibPre, TwoNat]:
    """Pull a certified opfibration back along z, componentwise."""
    if z.target != p.codomain:
        raise InvalidTable("pointwise_pullback: codomains disagree")
    if z == identity_two_nat(p.codomain):
        return p, identity_two_nat(p.total)
    z.validate()
    base = z.source.base
    pieces = {c: cat2.pullback_named(p.certificates[c], z.components[c])
              for c in base.objects}
    on_arrows = {}
    for u, (d, c) in base.arrows.items():
        src_q, tgt_q = pieces[c][0], pieces[d][0]
        F_u = z.source.on_arrows[u]
        G_u = p.total.on_arrows[u]
        on_objects = {}
        for o in src_q.total.objects:
            x = src_q.p.on_objects[o]
            e = pieces[c][1].on_objects[o]
            on_objects[o] = cat2._pair(F_u.on_objects[x], G_u.on_objects[e])
        arr_map = {}
        for name in src_q.total.arrows:
            uu = src_q.p.on_arrows[name]
            gg = pieces[c][1].on_arrows[name]
            arr_map[name] = cat2._pair(F_u.on_arrows[uu], G_u.on_arrows[gg])
        on_arrows[u] = FinFunctor(src_q.total, tgt_q.total, on_objects, arr_map)
    # valid because z and p.s are strictly natural, so F(u) x G(u) restricts
    apex = CatPresheaf(base, {c: pieces[c][0].total for c in base.objects}, on_arrows)
    left = TwoNat(apex, z.source, {c: pieces[c][0].p for c in base.objects})
    top = TwoNat(apex, p.total, {c: pieces[c][1] for c in base.objects})
    return DiscOpfibPre(left, {c: pieces[c][0] for c in sorted(base.objects)}), top


# -- the category of elements and fibre diagrams ------------------------------------------


def element_name(c: str, x: str) -> str:
    """The object <c|X> of a category of elements."""
    return f"<{c}|{x}>"


def element_arrow_name(f: str, mu: str, x: str) -> str:
    """The arrow <f|mu|X> of a category of elements."""
    return f"<{f}|{mu}|{x}>"


def _element(c: str, x: str) -> str:
    """element_name, interned: the name a category of elements stores."""
    return intern(element_name(c, x))


def _element_arrow(f: str, mu: str, x: str) -> str:
    """element_arrow_name, interned."""
    return intern(element_arrow_name(f, mu, x))


def _elements_tables(F: CatPresheaf) -> tuple[FinCat, dict, dict]:
    """The category of elements of F with the parts of its objects, name ->
    (c, X), and of its arrows, name -> (f, mu, X); cached on F."""
    F.validate()
    base = F.base
    obj_parts = named_parts(
        ((c, x) for c in base.objects for x in F.on_objects[c].objects), _element)

    def arrow_parts():
        for c, x in obj_parts.values():
            for f in base.arrows_into(c):
                d = base.dom(f)
                fx = F.on_arrows[f].on_objects[x]
                for y in F.on_objects[d].objects:
                    for mu in F.on_objects[d].hom(fx, y):
                        yield f, mu, x

    parts = named_parts(arrow_parts(), _element_arrow)  # name -> (f, mu, x)
    arrows = {
        name: (_element(base.cod(f), x),
               _element(base.dom(f), F.on_objects[base.dom(f)].cod(mu)))
        for name, (f, mu, x) in parts.items()
    }
    identities = {
        o: _element_arrow(base.id_of(c), F.on_objects[c].id_of(x), x)
        for o, (c, x) in obj_parts.items()
    }

    def compose(n2: str, n1: str) -> str:
        (f, mu, x), (g, mu2, _) = parts[n1], parts[n2]
        comp_mu = F.on_objects[base.dom(g)].compose(mu2, F.on_arrows[g].on_arrows[mu])
        return _element_arrow(base.compose(f, g), comp_mu, x)

    # valid because F is strict and named_parts keeps the names apart
    el = FinCat(tuple(sorted(obj_parts)), arrows, identities, composition_table(arrows, compose))
    return mark_valid(el), obj_parts, parts


def _slice_element_tables(F: CatPresheaf) -> tuple[dict, dict, dict]:
    """Where each slice meets the category of elements; cached on F.

    For (c, X), the functor slice(C, c)^op -> elements_category(F) sending
    f: d -> c to <d|F(f)X> and g>f to the restriction <g|id|F(f)X>, as two
    name tables keyed by (c, X); for an arrow nu of F(c), the natural map
    between two such functors that nu induces, as the vertical arrows
    <id_d|F(f)nu|F(f)X> by slice object f, keyed by (c, nu).
    """
    base = F.base
    objects: dict[tuple[str, str], dict[str, str]] = {}
    arrows: dict[tuple[str, str], dict[str, str]] = {}
    verticals: dict[tuple[str, str], dict[str, str]] = {}
    for c in base.objects:
        into = base.arrows_into(c)
        Fc = F.on_objects[c]
        for x in Fc.objects:
            objects[(c, x)] = {}
            arrows[(c, x)] = {}
            for f in into:
                d = base.dom(f)
                fx = F.on_arrows[f].on_objects[x]
                objects[(c, x)][f] = _element(d, fx)
                for g in base.arrows_into(d):
                    gfx = F.on_arrows[g].on_objects[fx]
                    arrows[(c, x)][_slice_arrow(g, f)] = _element_arrow(
                        g, F.on_objects[base.dom(g)].id_of(gfx), fx)
        for nu in Fc.arrows:
            x = Fc.dom(nu)
            verticals[(c, nu)] = {
                f: _element_arrow(base.id_of(base.dom(f)), F.on_arrows[f].on_arrows[nu],
                                  F.on_arrows[f].on_objects[x])
                for f in into
            }
    return objects, arrows, verticals


def elements_category(F: CatPresheaf) -> FinCat:
    """The category of elements of a Cat-valued presheaf.

    Objects are pairs ``<c|X>`` with X in F(c); an arrow ``<f|mu|X>`` from
    ``<c|X>`` to ``<d|Y>`` is a base arrow f: d -> c together with
    mu: F(f)(X) -> Y.  Covariant set-valued functors on this category are
    exactly the fibre tables of discrete opfibrations over F.  It is built
    once per presheaf instance, after F is validated, and is a category by
    construction, so it is not validated again.
    """
    return F._elements[0]


def fibre_diagram(phi: DiscOpfibPre) -> FinSetFunctor:
    """The fibres of phi as a set functor on elements_category(codomain).
    It is built once per opfibration instance."""
    return phi._fibre_diagram


def _fibre_functor(phi: DiscOpfibPre) -> FinSetFunctor:
    """fibre_diagram, built; cached on phi."""
    F = phi.codomain
    G = phi.total
    base = F.base
    el, obj_parts, parts = F._elements
    on_objects = {o: phi.fibre(c, x) for o, (c, x) in obj_parts.items()}
    on_arrows = {}
    for name, (f, mu, x) in parts.items():
        c = base.cod(f)
        d = base.dom(f)
        table = {}
        for e in phi.fibre(c, x):
            restricted = G.on_arrows[f].on_objects[e]
            table[e] = cat2.transport(phi.certificates[d], restricted, mu)
        on_arrows[name] = table
    # valid because transport along unique lifts is functorial and G is strict
    return FinSetFunctor(el, on_objects, on_arrows)


# -- hom-sets in the fibred world -------------------------------------------------------


def _two_nat_from_fibre_map(phi: DiscOpfibPre, psi: DiscOpfibPre, m) -> TwoNat:
    base = phi.codomain.base
    comps = {}
    for c in base.objects:
        on_objects: dict[str, str] = {}
        for x in phi.codomain.on_objects[c].objects:
            for e in phi.fibre(c, x):
                on_objects[e] = m.components[element_name(c, x)][e]
        amap = {}
        for g, (e1, e2) in phi.total.on_objects[c].arrows.items():
            lifted = psi.certificates[c].lifts[
                (on_objects[e1], phi.s.components[c].on_arrows[g])
            ]
            amap[g] = lifted
        comps[c] = FinFunctor(phi.total.on_objects[c], psi.total.on_objects[c],
                              on_objects, amap)
    # valid and over the base because m is natural and arrows go to unique lifts
    return TwoNat(phi.total, psi.total, comps)


def fib_hom(phi: DiscOpfibPre, psi: DiscOpfibPre,
            bound: int = DEFAULT_BOUND) -> list[TwoNat]:
    """All strictly commuting 2-naturals dom(phi) -> dom(psi) over the base.

    Computed as natural maps between the fibre diagrams on the category of
    elements, by pruned backtracking.
    """
    if phi.codomain != psi.codomain:
        raise InvalidTable("fib_hom: different codomains")
    maps = search_setfunctor_maps(fibre_diagram(phi), fibre_diagram(psi), bound)
    return [_two_nat_from_fibre_map(phi, psi, m) for m in maps]


def fib_iso(phi: DiscOpfibPre, psi: DiscOpfibPre,
            bound: int = DEFAULT_BOUND) -> TwoNat | None:
    """Lexicographically first invertible fibred map, if any."""
    if phi.codomain != psi.codomain:
        raise InvalidTable("fib_iso: different codomains")
    found = search_setfunctor_maps(
        fibre_diagram(phi), fibre_diagram(psi), bound, iso_only=True, limit=1
    )
    if not found:
        return None
    return _two_nat_from_fibre_map(phi, psi, found[0])
