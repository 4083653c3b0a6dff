"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
from contextlib import contextmanager

import pytest
from fixture_corpus import (
    bases,
    constant_cat_presheaf,
    dopf_corpus,
    map_to_omega_corpus,
    map_to_omega_over_representable,
    nonseparated_presheaf,
    open_site,
    open_site_topology,
    square,
    terminal_presheaf,
    trivial_topology,
    walking_arrow,
)
from map_oracle import enumerate_two_nats, fib_iso_cat, presheaf_iso, setfunctor_iso
from site_oracle import plus_class_count

from tck import classifier
from tck.cat2 import elements_of, fiber_functor
from tck.classifier import (
    char,
    classify,
    ff_check,
    roundtrip_phi,
    roundtrip_z,
)
from tck.corpus import (
    presheaf_corpus,
    setfunctor_corpus,
    sum_presheaves,
    hom_into,
)
from tck.fincat import (
    constant_presheaf,
    point_category,
    slice_cat,
)
from tck.prestack import (
    TwoNat,
    certify_dopf_pre,
    discrete_presheaf,
    fib_iso,
    representable,
)
from tck.site import (
    is_sheaf,
    sheafify,
    subcanonical_check,
    validate_topology,
)
from tck.stacks import char_stacks, ell_factors

OS = open_site()
OSJ = open_site_topology()
WA = walking_arrow()
SQ = square()
PT = point_category()


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: fail")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: pass")


def _discrete_two_nat(m):
    """Presheaf morphism -> TwoNat of discrete presheaves."""
    from tck.fincat import FinFunctor

    V, W = m.source, m.target
    Fv, Fw = discrete_presheaf(V.base, V), discrete_presheaf(W.base, W)
    comps = {}
    for c in V.base.objects:
        comps[c] = FinFunctor(
            Fv.on_objects[c], Fw.on_objects[c],
            dict(m.components[c]),
            {f"id_{x}": f"id_{m.components[c][x]}" for x in V.on_objects[c]},
        )
    nat = TwoNat(Fv, Fw, comps)
    nat.validate()
    return nat


@pytest.fixture(scope="module")
def stack_map_corpus():
    """>= 20 certified opfibrations between sheaf-valued stacks on OpenSite."""
    from fixture_corpus import open_site_sheaf_corpus
    from tck.fincat import PresheafMap, constant_presheaf, identity_presheaf_map

    sheaves = open_site_sheaf_corpus(12)
    one = constant_presheaf(OS, "*")
    maps = []
    for Z in sheaves:
        maps.append(identity_presheaf_map(Z))
        maps.append(PresheafMap(Z, one, {
            c: {x: "*" for x in Z.on_objects[c]} for c in OS.objects
        }))
    phis = [certify_dopf_pre(_discrete_two_nat(m)) for m in maps]
    assert len(phis) >= 20
    return phis


def test_criterion_01_cat_case_equivalence():
    from tck.cat2 import certify_dopf, lax_limit_of_arrow, pullback
    from tck.fincat import FinFunctor, identity_functor

    with criterion(1, "Cat-case equivalence"):
        total = 0
        for name, base in sorted(bases().items()):
            assert len(base.objects) <= 4
            fixtures = [
                z for z in setfunctor_corpus(base, 12)
                if all(len(v) <= 3 for v in z.on_objects.values())
            ]
            assert len(fixtures) >= 9
            # opfibrations from the generated set-functor corpus, plus ones
            # built by independent constructions (identity, lax limits of
            # arrows, pullbacks of those along constant functors)
            corpus = [elements_of(z) for z in fixtures]
            corpus.append(certify_dopf(identity_functor(base)))
            for c in base.objects:
                omega = FinFunctor(PT, base, {"*": c}, {"id_*": base.id_of(c)})
                omega.validate()
                tau, _ = lax_limit_of_arrow(omega)
                corpus.append(tau)
                const = FinFunctor(PT, base, {"*": c}, {"id_*": base.id_of(c)})
                corpus.append(pullback(tau, const)[0])
            for p in corpus:
                assert all(len(v) <= 3 for v in p.fibres.values()), name
                back = elements_of(fiber_functor(p))
                assert fib_iso_cat(back, p) is not None, name
                total += 1
            for z in fixtures:
                assert setfunctor_iso(fiber_functor(elements_of(z)), z) is not None
        assert total >= 50


def test_criterion_02_fibre_formula():
    with criterion(2, "fibre formula"):
        fixtures = []
        for base in (PT, WA, OS):
            fixtures.extend(map_to_omega_corpus(terminal_presheaf(base), 3))
            c = sorted(base.objects)[-1]
            fixtures.extend(map_to_omega_corpus(representable(base, c), 3))
        assert len(fixtures) >= 12
        for z in fixtures:
            phi = classify(z)
            for (c, x), Z in z.object_part.items():
                assert len(phi.fibre(c, x)) == len(Z.on_objects[z.site.id_of(c)])


def test_criterion_03_classifier_over_representables():
    with criterion(3, "classifier over representables"):
        for base in (PT, WA, OS):
            for c in base.objects:
                sl, _ = slice_cat(base, c)
                fixtures = presheaf_corpus(sl, 20)
                assert len(fixtures) >= 20
                for Z in fixtures:
                    psi = classifier.j_forward(base, c, Z)
                    back = classifier.j_inverse(psi)

                    assert presheaf_iso(back, Z) is not None
                    assert fib_iso(classifier.j_forward(base, c, back), psi) is not None
                zs = [map_to_omega_over_representable(base, c, Z) for Z in fixtures[:5]]
                assert len(zs) >= 5
                for z1, z2 in itertools.product(zs, zs):
                    assert ff_check(z1, z2).ok, (base, c)


def _item4_presheaves(base):
    two = constant_presheaf(base, ["k0", "k1"])
    objs = sorted(base.objects)
    mixed = sum_presheaves([hom_into(base, objs[0], "s"), hom_into(base, objs[-1], "t")])
    return [
        discrete_presheaf(base, mixed),
        discrete_presheaf(base, two),
        constant_cat_presheaf(base, walking_arrow()),
    ]


@pytest.fixture(scope="module")
def item4_corpus():
    corpus = []
    for base in (WA, SQ):
        for F in _item4_presheaves(base):
            for phi in dopf_corpus(F, 5):
                corpus.append(phi)
    return corpus


def test_criterion_04_prestack_classification(item4_corpus):
    with criterion(4, "prestack classification"):
        assert len(item4_corpus) >= 30
        for phi in item4_corpus:
            assert roundtrip_phi(phi) is not None
            assert roundtrip_z(char(phi)) is not None
        # ff_check over all parallel pairs of char outputs
        by_source = {}
        for phi in item4_corpus:
            by_source.setdefault(id(phi.codomain), []).append(char(phi))
        for zs in by_source.values():
            for z1, z2 in itertools.product(zs, zs):
                assert ff_check(z1, z2).ok


def test_criterion_05_sheafification():
    with criterion(5, "sheafification"):
        fixtures = presheaf_corpus(OS, 29) + [nonseparated_presheaf()]
        assert len(fixtures) >= 30
        for Z in fixtures:
            sh = sheafify(Z, OSJ)
            assert is_sheaf(sh.presheaf, OSJ).ok
            assert sh.unit.is_iso() == is_sheaf(Z, OSJ).ok
        # the non-separated fixture collapses to one section at T, with the
        # expected class count computed by an independent closure oracle
        Z = nonseparated_presheaf()
        sh = sheafify(Z, OSJ)
        assert plus_class_count(Z, OSJ.covers["T"]) == len(sh.presheaf.on_objects["T"]) == 1


def test_criterion_06_site_axioms_and_subcanonicity():
    with criterion(6, "site axioms and subcanonicity"):
        assert validate_topology(OSJ).ok
        assert subcanonical_check(OSJ).ok
        for name, base in sorted(bases().items()):
            triv = trivial_topology(base)
            assert validate_topology(triv).ok
            assert subcanonical_check(triv).ok
        from fixture_corpus import build_broken_topology_fixtures

        expectations = {
            "BrokenMaximality": "maximality",
            "BrokenStability": "stability",
            "BrokenTransitivity": "transitivity",
        }
        broken = build_broken_topology_fixtures()
        for name, doc in broken.items():
            (topo, _), = doc.topologies.values()
            rep = validate_topology(topo)
            assert not rep.ok
            kinds = {ce[0] for ce in rep.counterexamples}
            assert kinds == {expectations[name]}, (name, kinds)


def test_criterion_07_factorization_through_sheaves(stack_map_corpus):
    with criterion(7, "factorization through sheaf values"):
        for phi in stack_map_corpus:
            res = ell_factors(char(phi), OSJ)
            assert res.ok, res.witness
        # shipped non-stack counterexample reports the failing (c, X)
        V = nonseparated_presheaf()
        Fv = discrete_presheaf(OS, V)
        s = enumerate_two_nats(Fv, terminal_presheaf(OS))[0]
        phi_bad = certify_dopf_pre(s)
        res = ell_factors(char(phi_bad), OSJ)
        assert not res.ok
        assert res.witness[:2] == ("T", "*")


def test_criterion_08_stack_classifier_roundtrip(stack_map_corpus):
    with criterion(8, "stack classifier round trip"):
        for phi in stack_map_corpus:
            zj = char_stacks(phi, OSJ)
            back = classify(zj.underlying)
            assert fib_iso(back, phi) is not None


def test_criterion_09_omega_j_probe():
    import time

    from fixture_corpus import induced_sheaf_descent_datum
    from tck.stacks import omega_J_probe
    from tck.site import sieve_generate, slice_topology

    with criterion(9, "stack property probe"):
        start = time.monotonic()
        joint = sieve_generate(OS, ["L_T", "R_T"])
        from test_stacks import local_pair_datum

        data = [local_pair_datum(n1, n2)
                for n1 in (1, 2, 3) for n2 in (1, 2, 3)]
        sl, _ = slice_cat(OS, "T")
        slj = slice_topology(OSJ, "T")
        induced = [
            induced_sheaf_descent_datum(OS, OSJ, joint, Z)
            for Z in presheaf_corpus(sl, 10)
            if is_sheaf(Z, slj).ok
        ]
        data.extend(induced[:3])
        assert len(data) >= 10
        rep = omega_J_probe(data)
        assert rep.ok, rep.counterexamples
        assert time.monotonic() - start <= 60.0


def test_criterion_10_reduction_spot_checks(item4_corpus):
    with criterion(10, "reduction-theorem spot checks"):
        # full faithfulness over representables ...
        rep_results = []
        for base in (WA, SQ):
            for c in base.objects:
                sl, _ = slice_cat(base, c)
                zs = [map_to_omega_over_representable(base, c, Z)
                      for Z in presheaf_corpus(sl, 3)]
                for z1, z2 in itertools.product(zs, zs):
                    rep_results.append(ff_check(z1, z2).ok)
        # ... coincides with full faithfulness over every colimit-built F
        colim_results = []
        by_source = {}
        for phi in item4_corpus:
            by_source.setdefault(id(phi.codomain), []).append(char(phi))
        for zs in by_source.values():
            for z1, z2 in itertools.product(zs[:3], zs[:3]):
                colim_results.append(ff_check(z1, z2).ok)
        assert all(rep_results) and all(colim_results)
        # no corpus instance passes over representables but fails over F
        assert not (all(rep_results) and not all(colim_results))
