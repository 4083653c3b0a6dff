"""Deterministic fixtures that only the tests use: the shipped base
categories and sites, corpora of opfibrations, Cat-valued presheaves,
maps into the classifier and open-site sheaves, a few constructions no
tck command needs, and the builders of the shipped document corpus.

Everything here is randomness-free, so frozen test values and the files
under fixtures/ are reproducible.  The seeded generators the benchmark
draws from stay in ``tck.corpus``.  Regenerate fixtures/ with

    PYTHONPATH=src:tests python -c "import fixture_corpus; fixture_corpus.write_fixture_tree('fixtures')"
"""

from __future__ import annotations

import os
from typing import Iterable

from tck import prestack
from tck.classifier import MapToOmega, map_from_parts, omega_point
from tck.corpus import (
    dopf_from_set_functor,
    hom_into,
    map_to_omega_from_set_functor,
    poset_category,
    presheaf_corpus,
    setfunctor_corpus,
)
from tck.docbuild import DocumentBuilder
from tck.docformat import Document, serialize
from tck.errors import InvalidTable
from tck.fincat import (
    FinCat,
    FinSetFunctor,
    SetPresheaf,
    build_category,
    constant_presheaf,
    discrete_category,
    free_category,
    identity_functor,
    identity_presheaf_map,
    point_category,
    reindex_slice_presheaf,
    slice_cat,
)
from tck.prestack import (
    CatPresheaf,
    TwoNat,
    element_arrow_name,
    element_name,
    elements_category,
)
from tck.site import (
    GrothTopology,
    Sieve,
    _built,
    empty_sieve,
    is_sheaf,
    maximal_sieve,
    sieve_generate,
    slice_topology,
    topology_from_generators,
)
from tck.stacks import SheafDescentDatum


# -- base categories ---------------------------------------------------------------


def walking_arrow() -> FinCat:
    return free_category(["a", "b"], {"u": ("a", "b")})


def chain3() -> FinCat:
    return free_category(["a", "b", "c"], {"u": ("a", "b"), "v": ("b", "c")})


def parallel_pair() -> FinCat:
    arrows = {"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("a", "b")}
    compose = {
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u",
        ("id_b", "u"): "u",
        ("v", "id_a"): "v",
        ("id_b", "v"): "v",
    }
    return build_category(["a", "b"], arrows, {"a": "id_a", "b": "id_b"}, compose)


def span() -> FinCat:
    return free_category(["a", "b", "c"], {"f": ("a", "b"), "g": ("a", "c")})


def open_site() -> FinCat:
    """Opens of the 2-point discrete space: O (empty), L, R, T (whole)."""
    return poset_category(
        ["O", "L", "R", "T"],
        [("O", "L"), ("O", "R"), ("O", "T"), ("L", "T"), ("R", "T")],
    )


def square() -> FinCat:
    """The commutative square poset p -> q, p -> r, q -> s, r -> s."""
    return poset_category(
        ["p", "q", "r", "s"],
        [("p", "q"), ("p", "r"), ("p", "s"), ("q", "s"), ("r", "s")],
    )


def bases() -> dict[str, FinCat]:
    """The six shipped base categories (each with at most 4 objects)."""
    return {
        "point": point_category(),
        "walking_arrow": walking_arrow(),
        "chain3": chain3(),
        "parallel_pair": parallel_pair(),
        "span": span(),
        "open_site": open_site(),
    }


def trivial_topology(cat: FinCat) -> GrothTopology:
    """The maximal sieves, which form a topology."""
    return _built(cat, {c: maximal_sieve(cat, c) for c in cat.objects})


def open_site_topology() -> GrothTopology:
    """The open-cover topology: L, R jointly cover T; the empty family covers O."""
    topo, _ = topology_from_generators(
        open_site(), {"T": [["L_T", "R_T"]], "O": [[]]}
    )
    return topo


# -- set-valued and Cat-valued presheaves --------------------------------------------


def nonseparated_presheaf() -> SetPresheaf:
    """Two global sections on T that agree on the joint cover of open_site."""
    cat = open_site()
    single = ("*",)
    on_objects = {"O": single, "L": single, "R": single, "T": ("0", "1")}
    on_arrows = {}
    for f, (d, c) in cat.arrows.items():
        if c == "T" and d != "T":
            on_arrows[f] = {"0": "*", "1": "*"}
        elif c == "T":
            on_arrows[f] = {"0": "0", "1": "1"}
        else:
            on_arrows[f] = {"*": "*"}
    z = SetPresheaf(cat, on_objects, on_arrows)
    z.validate()
    return z


def open_site_product_sheaf(a_labels: Iterable[str], b_labels: Iterable[str]) -> SetPresheaf:
    """Sections over a disjoint union: A over L, B over R, A x B over T."""
    cat = open_site()
    A = tuple(sorted(a_labels))
    B = tuple(sorted(b_labels))
    prod = {f"{x}&{y}": (x, y) for x in A for y in B}
    on_objects = {"O": ("*",), "L": A, "R": B, "T": tuple(sorted(prod))}
    on_arrows = {}
    for f, (d, c) in cat.arrows.items():
        src = on_objects[c]
        if d == c:
            on_arrows[f] = {x: x for x in src}
        elif d == "O":
            on_arrows[f] = {x: "*" for x in src}
        elif (d, c) == ("L", "T"):
            on_arrows[f] = {p: prod[p][0] for p in src}
        elif (d, c) == ("R", "T"):
            on_arrows[f] = {p: prod[p][1] for p in src}
        else:
            raise InvalidTable(f"unexpected arrow {f!r} in open_site")
    Z = SetPresheaf(cat, on_objects, on_arrows)
    Z.validate()
    return Z


def open_site_sheaf_corpus(count: int) -> list[SetPresheaf]:
    """Distinct sheaves on the open site with its open-cover topology; a
    member that is no sheaf raises InvalidTable with its counterexample."""
    cat = open_site()
    topo = open_site_topology()
    out = [constant_presheaf(cat, "*")]
    for x in cat.objects:
        out.append(hom_into(cat, x, f"r{x}"))
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            out.append(open_site_product_sheaf(
                [f"a{i}" for i in range(n1)], [f"b{i}" for i in range(n2)]
            ))
    for i, Z in enumerate(out):
        rep = is_sheaf(Z, topo)
        if not rep.ok:
            raise InvalidTable(f"open-site corpus member {i} is no sheaf: "
                               f"{rep.counterexamples[0]}")
    return out[:max(count, 1)]


def terminal_presheaf(base: FinCat) -> CatPresheaf:
    pt = point_category()
    return CatPresheaf(
        base,
        {c: pt for c in base.objects},
        {f: identity_functor(pt) for f in base.arrows},
    )


def constant_cat_presheaf(base: FinCat, K: FinCat):
    F = CatPresheaf(
        base,
        {c: K for c in base.objects},
        {f: identity_functor(K) for f in base.arrows},
    )
    F.validate()
    return F


def catpresheaf_corpus(base: FinCat, count: int):
    """Non-representable Cat-valued presheaves on the base, deterministic."""
    out = []
    # pushout-like discrete presheaf: two points upstairs collapsing downstream
    for Z in presheaf_corpus(base, max(3, count)):
        out.append(prestack.discrete_presheaf(base, Z))
        if len(out) >= count - 2:
            break
    out.append(constant_cat_presheaf(base, walking_arrow()))
    out.append(constant_cat_presheaf(base, point_category()))
    return out[:max(count, 3)]


# -- opfibrations and maps into the classifier -------------------------------------------


def dopf_corpus(F, count: int):
    """At least ``count`` certified opfibrations over F, fibres <= 3."""
    el = elements_category(F)
    return [dopf_from_set_functor(F, B) for B in setfunctor_corpus(el, count)]


def map_to_omega_corpus(F, count: int):
    el = elements_category(F)
    return [map_to_omega_from_set_functor(F, B) for B in setfunctor_corpus(el, count)]


def map_to_omega_over_representable(base: FinCat, c: str, Z: SetPresheaf):
    """The map representable(c) -> classifier corresponding to Z on slice(C, c)."""
    rep = prestack.representable(base, c)
    object_part = {}
    arrow_part = {}
    for d in base.objects:
        hom = rep.on_objects[d]
        for f in base.hom(d, c):
            object_part[(d, f)] = reindex_slice_presheaf(base, f, Z)
            arrow_part[(d, hom.id_of(f))] = identity_presheaf_map(object_part[(d, f)])
    z = map_from_parts(base, rep, object_part, arrow_part)
    z.validate()
    return z


def precompose_map_to_omega(z: MapToOmega, y: TwoNat) -> MapToOmega:
    """Reindex z: F -> Omega-tilde along y: H -> F: B_z after the functor
    elements_category(H) -> elements_category(F) that y induces."""
    if y.target != z.source:
        raise InvalidTable("precompose_map_to_omega: endpoints disagree")
    z.validate()
    y.validate()
    H = y.source
    base = H.base
    B = z.fibre_functor
    el, obj_parts, arr_parts = H._elements
    on_objects = {o: B.on_objects[element_name(c, y.components[c].on_objects[x])]
                  for o, (c, x) in obj_parts.items()}
    on_arrows = {
        name: B.on_arrows[element_arrow_name(
            f, y.components[base.dom(f)].on_arrows[mu],
            y.components[base.cod(f)].on_objects[x])]
        for name, (f, mu, x) in arr_parts.items()
    }
    # valid because y is strictly natural, so <f|mu|X> goes to <f|y(mu)|y(X)>
    return MapToOmega(z.site, H, FinSetFunctor(el, on_objects, on_arrows))


def induced_sheaf_descent_datum(base: FinCat, j: GrothTopology, s: Sieve,
                                M: SetPresheaf) -> SheafDescentDatum:
    """The datum induced by a global sheaf on slice(C, at): M_f = f*M."""
    objects = {f: reindex_slice_presheaf(base, f, M) for f in s.sorted_arrows()}
    isos = {}
    for f in objects:
        for g in base.arrows_into(base.dom(f)):
            # g*(f*M) equals (f.g)*M on the nose
            isos[(f, g)] = identity_presheaf_map(objects[base.compose(f, g)])
    return SheafDescentDatum(base, j, s, objects, isos)


# -- the shipped document corpus ------------------------------------------------------


def build_shipped_fixtures() -> dict[str, Document]:
    """The positive fixture corpus: each document carries something the
    roundtrip command can exercise."""
    out: dict[str, Document] = {}

    # walking arrow: a representable with an opfibration over it
    wa = walking_arrow()
    rep_b = prestack.representable(wa, "b")
    b = DocumentBuilder()
    b.category("WA", wa)
    b.topology("Jtrivial", trivial_topology(wa), "WA")
    phi = dopf_corpus(rep_b, 4)[3]
    b.two_nat("phi", phi.s, "E", "RepB", "WA")
    z = map_to_omega_corpus(rep_b, 2)[1]
    b.map_to_omega("z", z, "RepB", "WA")
    out["WalkingArrow"] = b.doc

    # open site: topology, sheaves, a stack opfibration, a sheaf descent datum
    osite = open_site()
    osj = open_site_topology()
    b = DocumentBuilder()
    b.category("OpenSite", osite)
    b.topology("J", osj, "OpenSite")
    sheaves = [Z for Z in presheaf_corpus(osite, 10) if is_sheaf(Z, osj).ok]
    b.setpresheaf("Sh0", sheaves[0], ("cat", "OpenSite"))
    F = prestack.discrete_presheaf(osite, sheaves[1])
    phi2 = prestack.certify_dopf_pre(prestack.identity_two_nat(F))
    b.two_nat("idphi", phi2.s, "FStack", "FStack", "OpenSite")
    joint = sieve_generate(osite, ["L_T", "R_T"])
    b.sieve("SJoint", joint, "OpenSite")
    sl, _ = slice_cat(osite, "T")
    slj = slice_topology(osj, "T")
    global_sheaf = next(Z for Z in presheaf_corpus(sl, 8) if is_sheaf(Z, slj).ok)
    datum = induced_sheaf_descent_datum(osite, osj, joint, global_sheaf)
    b.sheaf_descent("DInduced", datum, "OpenSite", "J", "SJoint")
    out["OpenSite"] = b.doc

    # the non-separated fixture over the open site
    b = DocumentBuilder()
    b.category("OpenSite", osite)
    b.topology("J", osj, "OpenSite")
    b.setpresheaf("ZNonSep", nonseparated_presheaf(), ("cat", "OpenSite"))
    T = terminal_presheaf(osite)
    zpt = omega_point(T)
    b.map_to_omega("zpoint", zpt, "One", "OpenSite")
    out["NonSeparated"] = b.doc

    # pointed fixture over the one-object site: char emits the fibre table
    pt = point_category()
    Fp = constant_cat_presheaf(pt, chain3())
    phip = dopf_corpus(Fp, 4)[3]
    b = DocumentBuilder()
    b.category("Pt", pt)
    b.topology("Jtrivial", trivial_topology(pt), "Pt")
    b.two_nat("pointed", phip.s, "Total", "Base", "Pt")
    out["Pointed"] = b.doc

    return out


def build_broken_topology_fixtures() -> dict[str, Document]:
    """Negative fixtures: each raw topology violates exactly one axiom."""
    out: dict[str, Document] = {}

    D = discrete_category(["x", "y"])
    b = DocumentBuilder()
    b.category("D", D)
    topo = GrothTopology(D, {"x": frozenset(), "y": frozenset({maximal_sieve(D, "y")})})
    b.topology("JBrokenMax", topo, "D")
    out["BrokenMaximality"] = b.doc

    PP = parallel_pair()
    b = DocumentBuilder()
    b.category("PP", PP)
    topo = GrothTopology(PP, {
        "a": frozenset({maximal_sieve(PP, "a")}),
        "b": frozenset({maximal_sieve(PP, "b"),
                        Sieve("b", frozenset({"u"})),
                        Sieve("b", frozenset({"u", "v"}))}),
    })
    b.topology("JBrokenStab", topo, "PP")
    out["BrokenStability"] = b.doc

    b = DocumentBuilder()
    b.category("PP", PP)
    topo = GrothTopology(PP, {
        "a": frozenset({maximal_sieve(PP, "a"), empty_sieve("a")}),
        "b": frozenset({maximal_sieve(PP, "b"), Sieve("b", frozenset({"u"}))}),
    })
    b.topology("JBrokenTrans", topo, "PP")
    out["BrokenTransitivity"] = b.doc

    return out


def write_fixture_tree(root) -> None:
    """Write the shipped corpus under root/ and root/broken/."""
    os.makedirs(os.path.join(root, "broken"), exist_ok=True)
    for name, doc in sorted(build_shipped_fixtures().items()):
        with open(os.path.join(root, f"{name}.site"), "w", encoding="utf-8") as fh:
            fh.write(serialize(doc))
    for name, doc in sorted(build_broken_topology_fixtures().items()):
        with open(os.path.join(root, "broken", f"{name}.site"), "w", encoding="utf-8") as fh:
            fh.write(serialize(doc))
