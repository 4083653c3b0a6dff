"""Discrete opfibrations, comma objects and the category of elements in Cat.

A functor p: E -> B is a discrete opfibration when every object of E admits
exactly one lift of every arrow leaving its image.  Its certificate holds
the fibres and the lift table that classify/char consult downstream.
elements_of, pullback and lax_limit_of_arrow name their lifts themselves
and return the certificate with the functor; certify_dopf certifies any
other functor by an exhaustive lift scan.

The pair, comma-object and comma-arrow names these constructions (and
elements_functor and prestack's pointwise ones) store are interned, so a
name is one string in every table that holds it.
"""

from __future__ import annotations

from sys import intern
from typing import Mapping

from .errors import InvalidTable, NotOpfibration, UnknownObject
from .fincat import (
    FinCat,
    FinFunctor,
    FinSetFunctor,
    NatTransform,
    compose_functors,
    composition_table,
    identity_functor,
    named_parts,
    value_class,
)


@value_class
class DiscOpfibCat:
    """A functor certified to have the unique-lifting property, with fibres."""

    p: FinFunctor
    fibres: Mapping[str, tuple[str, ...]]
    lifts: Mapping[tuple[str, str], str]  # (object of E, arrow of B) -> arrow of E

    @property
    def total(self) -> FinCat:
        return self.p.source

    @property
    def base(self) -> FinCat:
        return self.p.target

    def fibre(self, b: str) -> tuple[str, ...]:
        return self.fibres[b]


@value_class
class CommaCone:
    apex: FinCat
    left_leg: FinFunctor
    right_leg: FinFunctor
    filler: NatTransform  # f . left_leg => g . right_leg


def _fibres(p: FinFunctor) -> dict[str, tuple[str, ...]]:
    """The objects of p's source over each object of its target, sorted."""
    fibres: dict[str, list[str]] = {b: [] for b in p.target.objects}
    for e, b in p.on_objects.items():
        fibres[b].append(e)
    return {b: tuple(sorted(es)) for b, es in fibres.items()}


def certify_dopf(p: FinFunctor) -> DiscOpfibCat:
    """Certify the unique-lifting property by exhaustive scan, or reject.
    A unique lift of each identity makes every arrow over an identity an
    identity, so discreteness needs no scan of its own."""
    p.validate()
    E, B = p.source, p.target
    lifts: dict[tuple[str, str], str] = {}
    for e in E.objects:
        pe = p.on_objects[e]
        for f in B.arrows_from(pe):
            cands = [g for g in E.arrows_from(e) if p.on_arrows[g] == f]
            if len(cands) != 1:
                raise NotOpfibration(e, f, len(cands))
            lifts[(e, f)] = cands[0]
    return DiscOpfibCat(p, _fibres(p), lifts)


def lift(p: DiscOpfibCat, e: str, f: str) -> str:
    """The unique arrow of E with domain e lying over f; UnknownObject for
    an e outside E, InvalidTable for an f that is no arrow of B or does
    not leave p(e)."""
    try:
        return p.lifts[(e, f)]
    except KeyError:
        if e not in p.total.objects:
            raise UnknownObject(e) from None
        if f not in p.base.arrows:
            raise InvalidTable(f"unknown arrow {f!r}") from None
        raise InvalidTable(f"{f!r} does not leave p({e!r})") from None


def transport(p: DiscOpfibCat, e: str, f: str) -> str:
    """Codomain of the unique lift of f at e; raises as lift does."""
    return p.total.cod(lift(p, e, f))


def _pair(x: str, y: str) -> str:
    return intern(f"({x},{y})")


def _comma_object(a: str, b: str, al: str) -> str:
    return intern(f"({a},{b},{al})")


def _comma_arrow(u: str, v: str, o1: str, o2: str) -> str:
    return intern(f"[{u},{v}]{o1}->{o2}")


def pullback(p: DiscOpfibCat, z: FinFunctor) -> tuple[DiscOpfibCat, FinFunctor]:
    """Strict pullback of p along z, with its projection to E.

    The chosen-pullback convention makes the change of base of an identity
    the identity: pulling back along Id returns p itself.
    """
    if z.target != p.base:
        raise InvalidTable("pullback: codomains disagree")
    if z == identity_functor(p.base):
        return p, identity_functor(p.total)
    return pullback_named(p, z)


def pullback_named(p: DiscOpfibCat, z: FinFunctor) -> tuple[DiscOpfibCat, FinFunctor]:
    """Tuple-named pullback, with no identity special case.

    Used where several pullbacks must share the naming scheme (pointwise
    constructions over a site).
    """
    if z.target != p.base:
        raise InvalidTable("pullback: codomains disagree")
    z.validate()
    F, E = z.source, p.total
    zo, za = z.on_objects, z.on_arrows
    obj_parts = named_parts(((x, e) for x in F.objects for e in p.fibres[zo[x]]), _pair)
    # every arrow of E over z(u) is the lift of z(u) at its domain
    arr_parts = named_parts(((u, p.lifts[(e, za[u])]) for u in F.arrows
                             for e in p.fibres[zo[F.dom(u)]]), _pair)
    arrows = {
        name: (_pair(F.dom(u), E.dom(g)), _pair(F.cod(u), E.cod(g)))
        for name, (u, g) in arr_parts.items()
    }
    identities = {o: _pair(F.id_of(x), E.id_of(e)) for o, (x, e) in obj_parts.items()}
    compose = composition_table(arrows, lambda n2, n1: _pair(
        F.compose(arr_parts[n2][0], arr_parts[n1][0]),
        E.compose(arr_parts[n2][1], arr_parts[n1][1])))
    # valid because pairs over one base arrow form a subcategory of F x E
    apex = FinCat(tuple(sorted(obj_parts)), arrows, identities, compose)
    left = FinFunctor(apex, F, {o: x for o, (x, _) in obj_parts.items()},
                      {n: u for n, (u, _) in arr_parts.items()})
    top = FinFunctor(apex, E, {o: e for o, (_, e) in obj_parts.items()},
                     {n: g for n, (_, g) in arr_parts.items()})
    # the lift of u at (x, e) is (u, g), for g the lift of z(u) at e along p
    lifts = {(o, u): _pair(u, p.lifts[(e, z.on_arrows[u])])
             for o, (x, e) in obj_parts.items() for u in F.arrows_from(x)}
    return DiscOpfibCat(left, _fibres(left), lifts), top


def comma(f: FinFunctor, g: FinFunctor) -> CommaCone:
    """The comma category (f / g) with canonical tuple-named apex."""
    if f.target != g.target:
        raise InvalidTable("comma: codomains disagree")
    f.validate()
    g.validate()
    A, B, C = f.source, g.source, f.target
    parts = named_parts(((a, b, al) for a in A.objects for b in B.objects
                         for al in C.hom(f.on_objects[a], g.on_objects[b])), _comma_object)
    objs = sorted(parts)

    def squares():
        for o1 in objs:
            a1, b1, al1 = parts[o1]
            for o2 in objs:
                a2, b2, al2 = parts[o2]
                for u in A.hom(a1, a2):
                    for v in B.hom(b1, b2):
                        # square: al2 . f(u) == g(v) . al1
                        if C.compose(al2, f.on_arrows[u]) == C.compose(g.on_arrows[v], al1):
                            yield u, v, o1, o2

    arr_parts = named_parts(squares(), _comma_arrow)
    arrows = {name: (o1, o2) for name, (_, _, o1, o2) in arr_parts.items()}
    identities = {o: _comma_arrow(A.id_of(parts[o][0]), B.id_of(parts[o][1]), o, o)
                  for o in objs}

    def paste(n2: str, n1: str) -> str:
        (u2, v2, _, o3), (u1, v1, o1, _) = arr_parts[n2], arr_parts[n1]
        return _comma_arrow(A.compose(u2, u1), B.compose(v2, v1), o1, o3)

    # valid because squares paste, and the filler is natural at each square
    apex = FinCat(tuple(objs), arrows, identities, composition_table(arrows, paste))
    left = FinFunctor(apex, A, {o: parts[o][0] for o in objs},
                      {n: u for n, (u, _, _, _) in arr_parts.items()})
    right = FinFunctor(apex, B, {o: parts[o][1] for o in objs},
                       {n: v for n, (_, v, _, _) in arr_parts.items()})
    filler = NatTransform(
        compose_functors(f, left), compose_functors(g, right),
        {o: parts[o][2] for o in objs},
    )
    return CommaCone(apex, left, right, filler)


def lax_limit_of_arrow(omega: FinFunctor) -> tuple[DiscOpfibCat, CommaCone]:
    """comma(omega, Id) with its projection to the codomain, certified by
    construction: the lift of v: b -> b' at (a, b, al) is the square
    [id_a, v] from (a, b, al) to (a, b', v.al), the only arrow over v out
    of (a, b, al) because a has no other endomorphism.

    The fibre over b is in bijection with Hom(omega(*), b).
    """
    A, B = omega.source, omega.target
    if len(A.objects) != 1 or len(A.arrows) != 1:
        raise InvalidTable("lax_limit_of_arrow: source must be the point category")
    cone = comma(omega, identity_functor(B))
    (a,) = A.objects
    p, alphas = cone.right_leg, cone.filler.components
    lifts = {(o, v): _comma_arrow(A.id_of(a), v, o,
                                  _comma_object(a, B.cod(v), B.compose(v, al)))
             for o, al in alphas.items() for v in B.arrows_from(p.on_objects[o])}
    return DiscOpfibCat(p, _fibres(p), lifts), cone


def elements_of(z: FinSetFunctor) -> DiscOpfibCat:
    """Category of elements of a covariant set-valued functor, certified:
    the lift of f at (dom f, x) is (f, x).  The arrows, the lifts and the
    arrows out of each object come from one walk over the arrows, and
    each composite is read from B's table."""
    z.validate()
    B = z.base
    table = B.compose_table
    obj_parts = named_parts(((b, x) for b in B.objects for x in z.on_objects[b]), _pair)
    arr_parts = named_parts(((f, x) for f in B.arrows for x in z.on_objects[B.dom(f)]), _pair)
    arrows: dict[str, tuple[str, str]] = {}
    on_arrows: dict[str, str] = {}
    lifts: dict[tuple[str, str], str] = {}
    out_of: dict[str, list[tuple[str, str]]] = {}
    for n, (f, x) in arr_parts.items():
        d, c = B.arrows[f]
        o = _pair(d, x)
        arrows[n] = (o, _pair(c, z.on_arrows[f][x]))
        on_arrows[n] = f
        lifts[(o, f)] = n
        out_of.setdefault(o, []).append((n, f))
    # (m, n) -> m.n for n = (f, x) and m = (g, z(f)x), in the order of n and then m
    compose = {(m, n): _pair(table[(g, f)], x) for n, (f, x) in arr_parts.items()
               for m, g in out_of.get(arrows[n][1], ())}
    identities = {o: _pair(B.id_of(b), x) for o, (b, x) in obj_parts.items()}
    # valid because z is a functor and names are injective
    total = FinCat(tuple(sorted(obj_parts)), arrows, identities, compose)
    proj = FinFunctor(total, B, {o: b for o, (b, _) in obj_parts.items()}, on_arrows)
    return DiscOpfibCat(proj, _fibres(proj), lifts)


def elements_functor(z: FinSetFunctor, source: FinCat, target: FinCat,
                     u: FinFunctor, m: Mapping[str, Mapping[str, str]]) -> FinFunctor:
    """The functor from source = elements_of(z).total to target =
    elements_of(w).total that a base functor u and a natural fibre map
    m_b: z(b) -> w(u(b)) induce: (b, x) |-> (u(b), m_b(x)) and
    (f, x) |-> (u(f), m_(dom f)(x))."""
    uo, ua, zo = u.on_objects, u.on_arrows, z.on_objects
    on_objects = {_pair(b, x): _pair(uo[b], m[b][x]) for b, xs in zo.items() for x in xs}
    on_arrows = {_pair(f, x): _pair(ua[f], m[d][x])
                 for f, (d, _) in z.base.arrows.items() for x in zo[d]}
    return FinFunctor(source, target, on_objects, on_arrows)


def fiber_functor(p: DiscOpfibCat) -> FinSetFunctor:
    """Collect the fibres of p into a covariant set-valued functor."""
    B = p.base
    # valid because unique lifting makes transport functorial
    return FinSetFunctor(
        B,
        dict(p.fibres),
        {
            f: {e: transport(p, e, f) for e in p.fibres[B.dom(f)]}
            for f in B.arrows
        },
    )
