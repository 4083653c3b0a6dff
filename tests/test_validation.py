"""Validation at the boundary, once per instance.

``validate`` records its success on the instance, so an argument that was
validated where it was parsed or searched for is not checked again, and the
library does not re-validate what it builds from validated inputs.  The
tests keep ``validate`` as the oracle: every public constructor's output
passes it with the records cleared.
"""

from collections import Counter
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import validation_oracle
from category_strategies import generated_categories, idempotent_monoid, small_monoids
from fixture_corpus import (
    bases,
    catpresheaf_corpus,
    constant_cat_presheaf,
    dopf_corpus,
    open_site,
    parallel_pair,
    precompose_map_to_omega,
    trivial_topology,
    walking_arrow,
)
from tck import cat2, classifier, fincat, prestack, site, stacks
from tck.classifier import (
    char,
    classify,
    enumerate_omega_modifications,
    ff_check,
    find_omega_iso,
    gamma_mod,
    j_forward,
    j_inverse,
)
from tck.corpus import (
    dopf_from_set_functor,
    elements_category,
    hom_from,
    map_to_omega_from_set_functor,
    poset_category,
    presheaf_corpus,
    setfunctor_corpus,
)
from tck.errors import InvalidTable, TckError
from tck.fincat import FinCat, SetPresheaf, postcompose, slice_cat
from tck.prestack import (
    DiscOpfibPre,
    certify_dopf_pre,
    fib_hom,
    fib_iso,
    fibre_diagram,
    pointwise_comma,
    pointwise_pullback,
    representable,
)
from tck.site import sheafify, topology_from_generators

VALUE_TYPES = (
    fincat.FinCat, fincat.FinFunctor, fincat.NatTransform, fincat.SetPresheaf,
    fincat.FinSetFunctor, fincat.PresheafMap, fincat.SetFunctorMap,
    prestack.CatPresheaf, prestack.TwoNat, prestack.Modification,
    classifier.MapToOmega, classifier.OmegaModification, site.MatchingFamily,
)
RECORD = "_valid"  # the instance attribute a successful validate() sets
WA = walking_arrow()


def chain(n: int) -> FinCat:
    objs = [f"c{i}" for i in range(n)]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


BASES = {**bases(), "chain4": chain(4), "chain5": chain(5)}


def forget_validation(x, seen=None) -> None:
    """Clear the validate-once record on x and on every value inside it."""
    seen = set() if seen is None else seen
    if id(x) in seen or isinstance(x, str):
        return
    seen.add(id(x))
    if is_dataclass(x):
        x.__dict__.pop(RECORD, None)
        for f in fields(x):
            forget_validation(getattr(x, f.name), seen)
    elif isinstance(x, Mapping):
        for v in x.values():
            forget_validation(v, seen)
    elif isinstance(x, (tuple, list)):
        for v in x:
            forget_validation(v, seen)


def check_output(x) -> None:
    """Run every check on x afresh; a certified opfibration is re-certified."""
    forget_validation(x)
    if isinstance(x, DiscOpfibPre):
        assert certify_dopf_pre(x.s).fibres == x.fibres
    elif isinstance(x, cat2.DiscOpfibCat):
        assert cat2.certify_dopf(x.p).lifts == x.lifts
    else:
        x.validate()


def count_checks(monkeypatch) -> Counter:
    """Per class, the validate() calls that run the check, i.e. the calls on
    an instance with no record."""
    counts: Counter = Counter()
    for cls in VALUE_TYPES:
        def counting(self, validate=cls.validate, name=cls.__name__):
            if RECORD not in vars(self):
                counts[name] += 1
            validate(self)
        monkeypatch.setattr(cls, "validate", counting)
    return counts


# -- validate-once semantics --------------------------------------------------------


def fresh_presheaf() -> SetPresheaf:
    Z = presheaf_corpus(WA, 6)[-1]
    return SetPresheaf(Z.base, dict(Z.on_objects), dict(Z.on_arrows))


class ReadCounter(Mapping):
    """A table that records each read made of it: a key looked up, or None
    for a walk over its keys."""

    def __init__(self, table: Mapping, reads: list):
        self.table, self.reads = table, reads

    def __getitem__(self, key):
        self.reads.append(key)
        return self.table[key]

    def __iter__(self):
        self.reads.append(None)
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def counted_presheaf(reads: list) -> SetPresheaf:
    """fresh_presheaf on its own copy of the base, whose arrow table records
    its reads in ``reads``: a check reads it, whichever lookups it makes."""
    Z = fresh_presheaf()
    base = FinCat(WA.objects, ReadCounter(WA.arrows, reads), WA.identities, WA.compose_table)
    return SetPresheaf(base, Z.on_objects, Z.on_arrows)


def test_second_validate_does_no_work():
    reads: list = []
    Z = counted_presheaf(reads)
    Z.validate()
    assert reads
    n = len(reads)
    Z.validate()
    assert len(reads) == n


def test_equal_but_distinct_instances_are_each_validated():
    reads: list = []
    Z, W = counted_presheaf(reads), counted_presheaf(reads)
    assert Z == W and Z is not W
    reads.clear()
    Z.validate()
    n = len(reads)
    W.validate()
    assert len(reads) == 2 * n


def test_failed_validation_is_not_recorded():
    Z = fresh_presheaf()
    bad = SetPresheaf(Z.base, Z.on_objects,
                      {**Z.on_arrows, "u": {x: "nowhere" for x in Z.on_arrows["u"]}})
    for _ in range(2):
        with pytest.raises(InvalidTable, match="outside"):
            bad.validate()
    assert RECORD not in vars(bad)


class FrozenTable(dict):
    def __hash__(self):
        return hash(frozenset(self.items()))


def test_record_leaves_eq_hash_and_repr_alone():
    def tables():
        return FinCat(WA.objects, FrozenTable(WA.arrows), FrozenTable(WA.identities),
                      FrozenTable(WA.compose_table))

    cat, twin = tables(), tables()
    before = (hash(cat), repr(cat))
    cat.validate()
    assert RECORD in vars(cat) and RECORD not in vars(twin)
    assert (hash(cat), repr(cat)) == before == (hash(twin), repr(twin))
    assert cat == twin
    assert RECORD not in {f.name for f in fields(cat)}


# -- what the library no longer re-validates ----------------------------------------------


def test_ff_check_on_validated_maps_runs_no_check(monkeypatch):
    F = representable(BASES["chain5"], "c4")
    el = elements_category(F)
    x, y = next((x, y) for x in el.objects for y in el.objects
                if x != y and len(el.hom(y, x)) == 1)
    z = map_to_omega_from_set_functor(F, hom_from(el, x, "r"))
    w = map_to_omega_from_set_functor(F, hom_from(el, y, "r"))
    counts = count_checks(monkeypatch)
    report = ff_check(z, w)
    assert report.witnesses == [("bijection", 1)]
    # the omega search returns natural maps between fibre functors, valid by
    # construction, and the arguments of classify and gamma_mod were
    # validated where they were built: no OmegaModification or
    # SetFunctorMap, nor any other value, is checked
    assert not counts


def test_fib_hom_and_fib_iso_build_the_fibre_diagram_once(monkeypatch):
    F = representable(BASES["chain5"], "c4")
    phi = dopf_from_set_functor(F, setfunctor_corpus(elements_category(F), 6)[-1])
    built = []
    build = prestack._fibre_functor
    monkeypatch.setattr(prestack, "_fibre_functor", lambda p: built.append(p) or build(p))
    assert fib_hom(phi, phi)
    assert fib_iso(phi, phi) is not None
    assert fibre_diagram(phi) is fibre_diagram(phi)
    assert built == [phi]


def test_classify_does_not_recheck_the_map_char_built(monkeypatch):
    F = representable(BASES["chain5"], "c4")
    phi = dopf_from_set_functor(F, setfunctor_corpus(elements_category(F), 6)[-1])
    counts = count_checks(monkeypatch)
    z = char(phi)
    psi = classify(z)
    assert RECORD in vars(z)
    assert counts["MapToOmega"] == 0
    assert {k: len(v) for k, v in psi.fibres.items()} == \
        {k: len(v) for k, v in phi.fibres.items()}


def test_plus_does_not_revalidate_what_it_builds(monkeypatch):
    names = {m: "p" + format(m, "03b") for m in range(8)}
    cat = poset_category(list(names.values()), [
        (names[a], names[b]) for a in names for b in names if a != b and a & ~b == 0])
    gens = {names[u]: [[f"{names[1 << i]}_{names[u]}" for i in range(3) if u >> i & 1]]
            for u in names}
    j, _ = topology_from_generators(cat, gens)
    Z = max(presheaf_corpus(cat, 0), key=lambda Z: sum(map(len, Z.on_objects.values())))
    counts = count_checks(monkeypatch)
    sh = sheafify(Z, j)
    assert not sh.unit.is_iso()
    assert counts["SetPresheaf"] == counts["PresheafMap"] == 0


# -- outputs still validate ------------------------------------------------------------


@lru_cache(maxsize=None)
def inputs(name: str, c: str):
    """Cat-valued presheaves on the base, with set functors on their elements."""
    B = BASES[name]
    out = []
    for F in [representable(B, c)] + catpresheaf_corpus(B, 3):
        if elements_category(F).objects:
            out.append((F, setfunctor_corpus(elements_category(F), 6)))
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_outputs_of_public_constructors_validate(data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    B = BASES[name]
    c = data.draw(st.sampled_from(B.objects))
    choices = inputs(name, c)
    F, funs = choices[data.draw(st.integers(0, len(choices) - 1))]
    b1, b2 = (funs[data.draw(st.integers(0, len(funs) - 1))] for _ in range(2))
    phi, psi = dopf_from_set_functor(F, b1), dopf_from_set_functor(F, b2)
    w = map_to_omega_from_set_functor(F, b2)
    z = char(phi)
    f = data.draw(st.sampled_from(B.arrows_into(c)))
    e1, e2 = cat2.elements_of(b1), cat2.elements_of(b2)
    cone = cat2.comma(e1.p, e2.p)
    pcone = pointwise_comma(phi.s, psi.s)
    outputs = [*slice_cat(B, c), postcompose(B, f), fibre_diagram(phi), z, classify(z),
               classify(w), char(classify(w)), precompose_map_to_omega(w, phi.s),
               e1, cat2.fiber_functor(e1), *cat2.pullback(e1, e2.p),
               cone.apex, cone.left_leg, cone.right_leg, cone.filler,
               *pointwise_pullback(phi, psi.s),
               pcone.apex, pcone.left_leg, pcone.right_leg, pcone.filler]
    outputs += fib_hom(phi, psi)[:3]
    for mod in enumerate_omega_modifications(z, char(psi))[:3]:
        outputs += [mod, gamma_mod(mod)]
    outputs.append(find_omega_iso(char(classify(w)), w))
    outputs += [*z.object_part.values(), site.representable_presheaf(B, c)]
    outputs.append(cat2.lax_limit_of_arrow(
        fincat.FinFunctor(fincat.point_category(), B, {"*": c}, {"id_*": B.id_of(c)}))[0])
    if F == representable(B, c):
        Zc = j_inverse(phi)
        outputs += [Zc, j_forward(B, c, Zc)]
        sl, _ = slice_cat(B, c)
        zs = presheaf_corpus(sl, 4)
        outputs.append(j_forward(B, c, zs[data.draw(st.integers(0, len(zs) - 1))]))
    gens = {}
    for d in B.objects:
        into = sorted(B.arrows_into(d))
        gens[d] = data.draw(st.lists(st.lists(st.sampled_from(into), max_size=3), max_size=2))
    j, _ = topology_from_generators(B, gens)
    zs = presheaf_corpus(B, 6)
    sh = sheafify(zs[data.draw(st.integers(0, len(zs) - 1))], j)
    outputs += [sh.presheaf, sh.unit, sh.first.presheaf, sh.first.unit, sh.second.unit]
    for x in outputs:
        check_output(x)


# -- validators skip the composable pairs an identity settles --------------------------


def functor_by_definition(F) -> None:
    """FinFunctor.validate over every composable pair."""
    S, T = F.source, F.target
    if set(F.on_objects) != set(S.objects):
        raise InvalidTable("functor object map is not total")
    for x, y in F.on_objects.items():
        if y not in T.objects:
            raise InvalidTable(f"object image {y!r} not in target")
    if set(F.on_arrows) != set(S.arrows):
        raise InvalidTable("functor arrow map is not total")
    for f, m in F.on_arrows.items():
        d, c = S.arrows[f]
        if m not in T.arrows or T.arrows[m] != (F.on_objects[d], F.on_objects[c]):
            raise InvalidTable(f"arrow image {m!r} of {f!r} missing or has wrong endpoints")
    for x in S.objects:
        if F.on_arrows[S.id_of(x)] != T.id_of(F.on_objects[x]):
            raise InvalidTable(f"identity on {x!r} not preserved")
    for (g, f), h in S.compose_table.items():
        if T.compose(F.on_arrows[g], F.on_arrows[f]) != F.on_arrows[h]:
            raise InvalidTable(f"composition not preserved on ({g!r}, {f!r})")


def set_valued_by_definition(Z) -> None:
    """SetPresheaf/FinSetFunctor.validate over every composable pair."""
    B, letter = Z.base, Z._letter
    if set(Z.on_objects) != set(B.objects):
        raise InvalidTable(f"{Z._what} object table is not total")
    for c, elems in Z.on_objects.items():
        if len(set(elems)) != len(elems) or tuple(sorted(elems)) != tuple(elems):
            raise InvalidTable(f"element table at {c!r} must be sorted and duplicate-free")
    if set(Z.on_arrows) != set(B.arrows):
        raise InvalidTable(f"{Z._what} arrow table is not total")
    for f, fun in Z.on_arrows.items():
        src, tgt = Z._ends(f)
        if set(fun) != set(Z.on_objects[src]):
            raise InvalidTable(f"action of {f!r} not defined on all of {letter}({src!r})")
        for x, y in fun.items():
            if y not in Z.on_objects[tgt]:
                raise InvalidTable(f"action of {f!r} sends {x!r} outside {letter}({tgt!r})")
    for c in B.objects:
        if any(Z.on_arrows[B.id_of(c)][x] != x for x in Z.on_objects[c]):
            raise InvalidTable(f"identity on {c!r} does not act as identity")
    for (f, g), fg in B.compose_table.items():
        first, then = (f, g) if Z._contravariant else (g, f)
        for x in Z.on_objects[B.arrows[first][1 if Z._contravariant else 0]]:
            if Z.on_arrows[fg][x] != Z.on_arrows[then][Z.on_arrows[first][x]]:
                raise InvalidTable(f"functoriality fails on composite ({f!r}, {g!r})")


def cat_presheaf_by_definition(F) -> None:
    """CatPresheaf.validate over every composable pair, comparing functors."""
    B = F.base
    if set(F.on_objects) != set(B.objects):
        raise InvalidTable("cat presheaf object table is not total")
    if set(F.on_arrows) != set(B.arrows):
        raise InvalidTable("cat presheaf arrow table is not total")
    for cat in F.on_objects.values():
        cat.validate()
    for f, (d, c) in B.arrows.items():
        fun = F.on_arrows[f]
        if fun.source != F.on_objects[c] or fun.target != F.on_objects[d]:
            raise InvalidTable(f"action of {f!r} has wrong endpoints")
        functor_by_definition(fun)
    for c in B.objects:
        if F.on_arrows[B.id_of(c)] != fincat.identity_functor(F.on_objects[c]):
            raise InvalidTable(f"identity on {c!r} does not act as the identity functor")
    for (f, g), fg in B.compose_table.items():
        if F.on_arrows[fg] != fincat.compose_functors(F.on_arrows[g], F.on_arrows[f]):
            raise InvalidTable(f"strict functoriality fails on composite ({f!r}, {g!r})")


def outcome(check, x):
    try:
        check(x)
    except TckError as exc:
        return type(exc), str(exc)
    return None


def mutation_sites(cat, data) -> list[str]:
    """One or two arrows to mutate the action of, mostly non-identities:
    a changed identity fails the identity check before any composite."""
    proper = sorted(f for f in cat.arrows if not cat.is_identity(f))
    pool = proper if proper and data.draw(st.integers(0, 3)) else sorted(cat.arrows)
    return data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))


def redraw(data, pool, old):
    """A value from pool, other than old when pool has another."""
    others = [x for x in pool if x != old]
    return data.draw(st.sampled_from(others)) if others else old


def mutated_functor(cat, data):
    """The identity functor on cat with one or two arrow images redrawn,
    mostly among the arrows parallel to the old image."""
    on_arrows = {f: f for f in cat.arrows}
    for f in mutation_sites(cat, data):
        pool = cat.hom(*cat.arrows[f]) if data.draw(st.integers(0, 3)) else sorted(cat.arrows)
        on_arrows[f] = redraw(data, pool, f)
    return fincat.FinFunctor(cat, cat, {x: x for x in cat.objects}, on_arrows)


def mutated_set_valued(Z, data):
    """Z with one or two values of its arrow actions redrawn in their targets."""
    on_arrows = {f: dict(t) for f, t in Z.on_arrows.items()}
    for f in mutation_sites(Z.base, data):
        src, tgt = Z._ends(f)
        if Z.on_objects[src]:
            x = data.draw(st.sampled_from(Z.on_objects[src]))
            on_arrows[f][x] = redraw(data, Z.on_objects[tgt], on_arrows[f][x])
    return type(Z)(Z.base, Z.on_objects, on_arrows)


def mutated_cat_presheaf(F, data):
    """F with one or two actions replaced by a constant functor."""
    on_arrows = dict(F.on_arrows)
    for f in mutation_sites(F.base, data):
        d, c = F.base.arrows[f]
        src, tgt = F.on_objects[c], F.on_objects[d]
        if tgt.objects:
            y = data.draw(st.sampled_from(tgt.objects))
            on_arrows[f] = fincat.FinFunctor(src, tgt, {x: y for x in src.objects},
                                             {u: tgt.id_of(y) for u in src.arrows})
    return prestack.CatPresheaf(F.base, F.on_objects, on_arrows)


def discrete_image(Z):
    """A presheaf Z, valid or not, as a Cat-valued presheaf of discrete
    categories, as prestack.discrete_presheaf builds it from a valid one:
    it fails strict functoriality where Z fails functoriality."""
    cats = {c: fincat.discrete_category(xs) for c, xs in Z.on_objects.items()}
    return prestack.CatPresheaf(Z.base, cats, {
        f: fincat.FinFunctor(cats[c], cats[d], dict(Z.on_arrows[f]),
                             {f"id_{x}": f"id_{y}" for x, y in Z.on_arrows[f].items()})
        for f, (d, c) in Z.base.arrows.items()})


@settings(max_examples=150, deadline=None)
@given(st.one_of(generated_categories(), small_monoids()), st.data())
def test_validators_raise_what_a_scan_of_every_composable_pair_raises(cat, data):
    # the identity checks run first and settle every pair with an identity
    # in it, so skipping those pairs never changes the first failure
    F = mutated_functor(cat, data)
    assert outcome(fincat.FinFunctor.validate, F) == outcome(functor_by_definition, F)
    Z, A = (mutated_set_valued(data.draw(st.sampled_from(corpus(cat, 6))), data)
            for corpus in (presheaf_corpus, setfunctor_corpus))
    for X in (Z, A):
        assert outcome(type(X).validate, X) == outcome(set_valued_by_definition, X)
    G = mutated_cat_presheaf(data.draw(st.sampled_from(catpresheaf_corpus(cat, 4))), data)
    for G in (G, discrete_image(Z)):
        assert outcome(prestack.CatPresheaf.validate, G) == \
            outcome(cat_presheaf_by_definition, G)


# -- the validators against the oracles of their earlier bodies -------------------------


def category_corruptions(cat, rnd):
    """Builders of cat's tables with one entry corrupted: a composite dropped
    or redirected, an identity dropped or redirected, an ill-typed composite
    added, an object repeated, or an arrow reversed."""
    names = sorted(cat.arrows)
    arrows, ids, table = dict(cat.arrows), dict(cat.identities), dict(cat.compose_table)

    def build(objects=cat.objects, arrows=arrows, identities=ids, table=table):
        return lambda: FinCat(tuple(objects), dict(arrows), dict(identities), dict(table))

    for key in table:
        yield build(table={k: v for k, v in table.items() if k != key})
        yield build(table={**table, key: rnd.choice(names)})
    for c in cat.objects:
        yield build(identities={k: v for k, v in ids.items() if k != c})
        yield build(identities={**ids, c: rnd.choice(names)})
    yield build(table={**table, (rnd.choice(names), rnd.choice(names)): rnd.choice(names)})
    yield build(objects=cat.objects + cat.objects[:1])
    f = rnd.choice(names)
    yield build(arrows={**arrows, f: arrows[f][::-1]})


def set_valued_corruptions(Z, rnd):
    """Builders of Z's tables with one entry corrupted: an element sent
    outside its target, to another element there, or nowhere; an element
    table repeated; or an arrow's action dropped."""
    ob, ar = Z.on_objects, Z.on_arrows

    def build(ob=ob, ar=ar):
        return lambda: type(Z)(Z.base, dict(ob), {f: dict(t) for f, t in ar.items()})

    for f, act in ar.items():
        tgt = ob[Z._ends(f)[1]]
        for x in act:
            yield build(ar={**ar, f: {**act, x: "outside"}})
            yield build(ar={**ar, f: {**act, x: rnd.choice(tgt)}})
            yield build(ar={**ar, f: {k: v for k, v in act.items() if k != x}})
    for c, elems in ob.items():
        yield build(ob={**ob, c: elems + elems[:1]})
    f = rnd.choice(sorted(ar))
    yield build(ar={k: v for k, v in ar.items() if k != f})


def two_nat_corruptions(nat, rnd):
    """Builders of nat with one component entry corrupted: an object sent to
    another object, its identity with it, which keeps a discrete component a
    functor and breaks naturality squares; an arrow sent to a parallel arrow
    or to any other; or a component dropped."""

    def build(c=None, tables=None):
        def make():
            comps = {d: fincat.FinFunctor(s.source, s.target, dict(s.on_objects),
                                          dict(s.on_arrows))
                     for d, s in nat.components.items() if d != c}
            if tables is not None:
                comps[c] = fincat.FinFunctor(nat.components[c].source,
                                             nat.components[c].target, *tables)
            return prestack.TwoNat(nat.source, nat.target, comps)
        return make

    def other(pool, old):
        return rnd.choice([x for x in pool if x != old] or [old])

    for c, s in nat.components.items():
        S, T = s.source, s.target
        for x in S.objects:
            y = other(T.objects, s.on_objects[x])
            yield build(c, ({**s.on_objects, x: y}, {**s.on_arrows, S.id_of(x): T.id_of(y)}))
        for u, v in s.on_arrows.items():
            for pool in (T.hom(*T.arrows[v]), sorted(T.arrows)):
                yield build(c, (s.on_objects, {**s.on_arrows, u: other(pool, v)}))
        yield build(c)


def map_part_corruptions(z, rnd):
    """Builders of z given by its parts, with one entry of one part
    corrupted, at two object parts and two arrow parts: an object part's
    value at a slice object grown or cut, a restriction redirected, its
    base swapped for another slice or its class changed; an arrow part's
    component entry redirected, or its ends swapped."""
    obj, arr = dict(z.object_part), dict(z.arrow_part)
    sl = {c: slice_cat(z.site, c)[0] for c in z.site.objects}

    def build(o=obj, a=arr):
        return lambda: classifier.map_from_parts(z.site, z.source, dict(o), dict(a))

    def part(key, Z, ob=None, ar=None, base=None, kind=SetPresheaf):
        return build(o={**obj, key: kind(base or Z.base, {**Z.on_objects, **(ob or {})},
                                          {**Z.on_arrows, **(ar or {})})})

    for key in rnd.sample(sorted(obj), min(2, len(obj))):
        Z = obj[key]
        f = rnd.choice(sorted(Z.on_objects))
        yield part(key, Z, ob={f: Z.on_objects[f] + ("new",)})
        yield part(key, Z, ob={f: Z.on_objects[f][1:]})
        for g, act in Z.on_arrows.items():
            pool = ("outside",) + tuple(act.values())
            for x in act:
                yield part(key, Z, ar={g: {**act, x: rnd.choice(pool)}})
        yield part(key, Z, base=sl[rnd.choice(z.site.objects)])
        yield part(key, Z, kind=fincat.FinSetFunctor)
    for key in rnd.sample(sorted(arr), min(2, len(arr))):
        m = arr[key]
        for f, comp in m.components.items():
            for x in comp:
                pool = ("outside",) + m.target.on_objects[f]
                yield build(a={**arr, key: fincat.PresheafMap(m.source, m.target, {
                    **m.components, f: {**comp, x: rnd.choice(pool)}})})
        yield build(a={**arr, key: fincat.PresheafMap(m.target, m.source, m.components)})


def corruption_outcomes(cat, data, rnd) -> set:
    """Validate valid tables on cat and every corruption of them, each on a
    fresh instance, with the library and with its oracle; assert that the
    two agree, valid tables pass, and return the failures seen."""
    Z, A = (data.draw(st.sampled_from(corpus(cat, 6)))
            for corpus in (presheaf_corpus, setfunctor_corpus))
    # a presheaf with two objects in some value, where a component can move one
    F = data.draw(st.sampled_from([F for F in catpresheaf_corpus(cat, 6)
                                   if any(len(K.objects) > 1 for K in F.on_objects.values())]))
    # with parallel arrows in its values, a component can move an arrow alone
    K = constant_cat_presheaf(cat, parallel_pair())
    nats = [prestack.identity_two_nat(G) for G in (F, K)] + [phi.s for phi in dopf_corpus(F, 0)]
    z = map_to_omega_from_set_functor(F, rnd.choice(setfunctor_corpus(elements_category(F), 2)))
    cases = [(validation_oracle.validate_category, category_corruptions(cat, rnd),
              lambda: FinCat(cat.objects, dict(cat.arrows), dict(cat.identities),
                             dict(cat.compose_table))),
             *((validation_oracle.validate_set_valued, set_valued_corruptions(X, rnd),
                lambda X=X: type(X)(X.base, dict(X.on_objects), dict(X.on_arrows)))
               for X in (Z, A)),
             *((validation_oracle.validate_two_nat, two_nat_corruptions(nat, rnd),
                lambda nat=nat: prestack.TwoNat(nat.source, nat.target, dict(nat.components)))
               for nat in nats),
             (validation_oracle.validate_map_to_omega, map_part_corruptions(z, rnd),
              lambda: classifier.map_from_parts(cat, F, dict(z.object_part),
                                                dict(z.arrow_part)))]
    failures = set()
    for oracle, corruptions, valid in cases:
        assert outcome(oracle, valid()) is None
        assert outcome(lambda x: x.validate(), valid()) is None
        for corrupted in corruptions:
            expected = outcome(oracle, corrupted())
            assert outcome(lambda x: x.validate(), corrupted()) == expected
            failures.add(expected)
    return failures - {None}


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_categories(), small_monoids()), st.data(),
       st.randoms(use_true_random=False))
def test_validators_raise_what_their_earlier_bodies_raise(cat, data, rnd):
    assert corruption_outcomes(cat, data, rnd)


def element_tables(p) -> tuple:
    """Every table of an opfibration, each as its list of items."""
    E = p.total
    return (E.objects, *(list(t.items()) for t in (
        E.arrows, E.identities, E.compose_table, p.p.on_objects, p.p.on_arrows,
        p.fibres, p.lifts)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_categories(), small_monoids()))
def test_elements_of_builds_the_tables_of_its_earlier_body(cat):
    functors = setfunctor_corpus(cat, 6)
    for F in catpresheaf_corpus(cat, 2)[:2]:
        if elements_category(F).objects:
            functors += setfunctor_corpus(elements_category(F), 3)
    for A in functors:
        assert element_tables(cat2.elements_of(A)) == \
            element_tables(validation_oracle.elements_of(A))


def test_elements_of_refuses_a_shared_name_as_its_earlier_body_does():
    # (a,b,c) names both ("a", "b,c") and ("a,b", "c")
    D = fincat.discrete_category(["a", "a,b"])
    A = fincat.FinSetFunctor(D, {"a": ("b,c",), "a,b": ("c",)},
                             {"id_a": {"b,c": "b,c"}, "id_a,b": {"c": "c"}})
    got = outcome(cat2.elements_of, A)
    assert got is not None and got == outcome(validation_oracle.elements_of, A)


# -- refusals of malformed library arguments ------------------------------------------

PP, PT, M = parallel_pair(), fincat.point_category(), idempotent_monoid()
# Cat-valued presheaves on WA, constant at the point and at M = {1, e}
ON_PT, ON_M = constant_cat_presheaf(WA, PT), constant_cat_presheaf(WA, M)
ID_PT, ID_M = prestack.identity_two_nat(ON_PT), prestack.identity_two_nat(ON_M)


def _on_m(at_a, at_b):
    """Components at a and b of a modification ID_M => ID_M, each the
    natural transformation id_M => id_M with the given component."""
    idM = fincat.identity_functor(M)
    return {"a": fincat.NatTransform(idM, idM, {"*": at_a}),
            "b": fincat.NatTransform(idM, idM, {"*": at_b})}


def _wa_to_pp(u_to):
    """The functor WA -> PP sending u to u_to."""
    return fincat.FinFunctor(WA, PP, {"a": "a", "b": "b"},
                             {"id_a": "id_a", "id_b": "id_b", "u": u_to})


def _sets(*labels):
    return fincat.constant_presheaf(WA, labels)


def _dopf(F):
    return certify_dopf_pre(prestack.identity_two_nat(F))


REFUSALS = [
    ("modification-not-parallel", lambda: prestack.Modification(ID_PT, ID_M, {}).validate(),
     "modification endpoints are not parallel"),
    ("modification-not-total", lambda: prestack.Modification(ID_M, ID_M, {}).validate(),
     "modification component table is not total"),
    ("modification-component-endpoints",
     lambda: prestack.Modification(ID_M, ID_M, {c: fincat.NatTransform(
         fincat.identity_functor(WA), fincat.identity_functor(WA), {}) for c in "ab"}).validate(),
     "modification component at 'a' has wrong endpoints"),
    # e at a and 1 at b are each natural, but restriction along u carries e to e
    ("modification-axiom",
     lambda: prestack.Modification(ID_M, ID_M, _on_m("e", "id_*")).validate(),
     "modification axiom fails on 'u' at '*'"),
    ("nat-not-parallel",
     lambda: fincat.NatTransform(fincat.identity_functor(WA), fincat.identity_functor(PT),
                                 {}).validate(),
     "natural transformation endpoints are not parallel"),
    ("nat-component",
     lambda: fincat.NatTransform(fincat.identity_functor(WA), fincat.identity_functor(WA),
                                 {"a": "id_a"}).validate(),
     "component at 'b' missing or ill-typed"),
    ("nat-naturality",
     lambda: fincat.NatTransform(_wa_to_pp("u"), _wa_to_pp("v"),
                                 {"a": "id_a", "b": "id_b"}).validate(),
     "naturality square fails on 'u'"),
    ("functor-objects-not-total", lambda: fincat.FinFunctor(WA, WA, {}, {}).validate(),
     "functor object map is not total"),
    ("functor-arrows-not-total",
     lambda: fincat.FinFunctor(WA, WA, {"a": "a", "b": "b"}, {}).validate(),
     "functor arrow map is not total"),
    ("compose-functors",
     lambda: fincat.compose_functors(fincat.identity_functor(WA), fincat.identity_functor(PT)),
     "functors not composable"),
    ("compose-presheaf-maps",
     lambda: fincat.compose_presheaf_maps(fincat.identity_presheaf_map(_sets("x")),
                                          fincat.identity_presheaf_map(_sets("x", "y"))),
     "presheaf maps not composable"),
    ("compose-two-nats", lambda: prestack.compose_two_nats(ID_PT, ID_M),
     "two-natural transformations not composable"),
    ("invert-presheaf-map",
     lambda: fincat.invert_presheaf_map(fincat.PresheafMap(
         _sets("x", "y"), _sets("x"), {c: {"x": "x", "y": "x"} for c in "ab"})),
     "presheaf map is not invertible"),
    ("fib-hom", lambda: fib_hom(_dopf(ON_PT), _dopf(ON_M)), "fib_hom: different codomains"),
    ("fib-iso", lambda: fib_iso(_dopf(ON_PT), _dopf(ON_M)), "fib_iso: different codomains"),
    ("pointwise-comma", lambda: pointwise_comma(ID_PT, ID_M),
     "pointwise_comma: codomains disagree"),
    ("pointwise-pullback", lambda: pointwise_pullback(_dopf(ON_PT), ID_M),
     "pointwise_pullback: codomains disagree"),
    ("is-sheaf", lambda: site.is_sheaf(_sets("x"), trivial_topology(PP)),
     "presheaf and topology live on different bases"),
    ("plus", lambda: site.plus(_sets("x"), trivial_topology(PP)),
     "presheaf and topology live on different bases"),
    ("ell-factors",
     lambda: stacks.ell_factors(classifier.omega_point(ON_PT), trivial_topology(PP)),
     "topology and map live on different sites"),
    ("search-setfunctor-maps",
     lambda: fincat.search_setfunctor_maps(setfunctor_corpus(WA, 1)[0],
                                           setfunctor_corpus(PP, 1)[0]),
     "set functor maps need a common base"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_malformed_arguments_are_refused_with_their_message(call, message):
    with pytest.raises(TckError) as err:
        call()
    assert type(err.value) is InvalidTable
    assert str(err.value) == message


# -- unknown ids ---------------------------------------------------------------------------


@st.composite
def calls_with_an_unknown_id(draw):
    """(name, call) for one public name that takes ids, with one id its
    base lacks: text outside the base, an arrow where an object belongs or
    an object where an arrow belongs."""
    cat = draw(st.one_of(generated_categories(), st.just(open_site())))
    objects, arrows = sorted(cat.objects), sorted(cat.arrows)
    outside = st.text(max_size=3)
    bad_object = draw(st.one_of(outside, st.sampled_from(arrows)).filter(
        lambda x: x not in cat.objects))
    bad_arrow = draw(st.one_of(outside, st.sampled_from(objects)).filter(
        lambda x: x not in cat.arrows))
    c, f = draw(st.sampled_from(objects)), draw(st.sampled_from(arrows))
    F = representable(cat, c)
    p = cat2.elements_of(draw(st.sampled_from(setfunctor_corpus(cat, 3))))
    elements = sorted(p.total.objects)
    bad_element = draw(st.one_of(outside, st.sampled_from(objects + arrows)).filter(
        lambda x: x not in p.total.objects))
    j = topology_from_generators(cat, {})[0]
    calls = {
        "slice_cat": lambda: slice_cat(cat, bad_object),
        "postcompose": lambda: postcompose(cat, bad_arrow),
        "representable": lambda: representable(cat, bad_object),
        "yoneda at an unknown object": lambda: prestack.yoneda(F, bad_object, cat.id_of(c)),
        "yoneda at an unknown element": lambda: prestack.yoneda(F, c, bad_arrow),
        "slice_topology": lambda: site.slice_topology(j, bad_object),
        "lift from an unknown element": lambda: cat2.lift(p, bad_element, f),
        "pullback_sieve along an unknown arrow":
            lambda: site.pullback_sieve(cat, bad_arrow, site.maximal_sieve(cat, c)),
        "pullback_sieve of a sieve at an unknown object":
            lambda: site.pullback_sieve(cat, f, site.Sieve(bad_object, frozenset())),
        "sieve_generate_at an unknown object": lambda: site.sieve_generate_at(cat, bad_object, []),
        "sieve_generate_at from an unknown arrow":
            lambda: site.sieve_generate_at(cat, c, [bad_arrow]),
        "topology_from_generators at an unknown object":
            lambda: topology_from_generators(cat, {bad_object: []}),
        "topology_from_generators from an unknown arrow":
            lambda: topology_from_generators(cat, {c: [[bad_arrow]]}),
        "j_forward": lambda: j_forward(cat, bad_object, fincat.constant_presheaf(cat, "x")),
    }
    if elements:
        e = draw(st.sampled_from(elements))
        calls["lift along an unknown arrow"] = lambda: cat2.lift(p, e, bad_arrow)
    name = draw(st.sampled_from(sorted(calls)))
    return name, calls[name]


@settings(max_examples=60, deadline=None)
@given(calls_with_an_unknown_id())
def test_an_unknown_id_is_refused_with_a_tck_error(call):
    name, fn = call
    with pytest.raises(TckError):
        fn()
