"""tck's values compare by identity first (``tck.fincat.value_class``).

A value equals itself without reading a field, and an equal but distinct
value through the field-by-field comparison that dataclass generates;
hashing, repr, frozenness and NotImplemented for a foreign type are
dataclass's.  The entry points that guard their inputs' shared base give
an equal but distinct copy of a base the original's result, and refuse an
unequal base with a TckError.

A value's validity mark and cached properties are plain instance
attributes (``fincat.mark_valid``, ``fincat.cached_property``): they stay
out of equality, hashing and repr, a copy shares none of them, and on
CPython the value keeps its attributes inline, with no instance dict.
"""

import dataclasses
import gc
import inspect
import os
import platform
import sys
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from category_strategies import generated_categories
from fixture_corpus import (
    constant_cat_presheaf,
    dopf_corpus,
    map_to_omega_corpus,
    nonseparated_presheaf,
    open_site,
    open_site_topology,
    walking_arrow,
)
from tck import cat2, classifier, fincat, prestack, site, stacks
from tck.corpus import presheaf_corpus, setfunctor_corpus
from tck.docformat import parse_file
from tck.errors import TckError

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
MODULES = (fincat, site, cat2, prestack, classifier, stacks)


def value_classes() -> list[type]:
    """Every frozen dataclass that tck's value modules define."""
    return sorted({cls for m in MODULES for _, cls in inspect.getmembers(m, inspect.isclass)
                   if cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)
                   and cls.__dataclass_params__.frozen}, key=lambda cls: cls.__qualname__)


def identity_nat(G: fincat.FinFunctor) -> fincat.NatTransform:
    return fincat.NatTransform(G, G, {x: G.target.id_of(G.on_objects[x]) for x in G.source.objects})


@cache
def gallery() -> dict[type, object]:
    """One value of each class, from the fixtures."""
    OS, j, WA = open_site(), open_site_topology(), walking_arrow()
    Z, s = nonseparated_presheaf(), j.minimal["T"]
    A = setfunctor_corpus(WA, 1)[0]
    idWA = fincat.identity_functor(WA)
    F = prestack.representable(WA, "b")
    phi = dopf_corpus(F, 2)[1]
    z = map_to_omega_corpus(F, 1)[0]
    D = prestack.discrete_presheaf(OS, Z)
    datum = stacks.DescentDatum(D, site.empty_sieve("O"), {}, {})
    factored = stacks.ell_factors(
        classifier.char(prestack.certify_dopf_pre(prestack.identity_two_nat(D))), j)
    doc = parse_file(os.path.join(FIXTURES, "OpenSite.site"))
    values = [
        WA, idWA, identity_nat(idWA), Z, A, fincat.identity_presheaf_map(Z),
        fincat.search_setfunctor_maps(A, A)[0],
        s, site.sieve_plan(OS, s), j.plan, j, site.matching_families(Z, s)[0],
        site.plus(Z, j), site.sheafify(Z, j),
        cat2.elements_of(A), cat2.comma(idWA, idWA),
        F, phi.s, prestack.Modification(phi.s, phi.s, {c: identity_nat(G)
                                                        for c, G in phi.s.components.items()}),
        phi, prestack.pointwise_comma(phi.s, phi.s),
        z, classifier.enumerate_omega_modifications(z, z)[0],
        datum, stacks.effectiveness(datum)[0], factored.certified, factored,
        doc.sheaf_descent_data["DInduced"][0],
    ]
    return {type(v): v for v in values}


class _Other:
    """A field value unequal to every other."""


class _RaisesOnEq:
    def __eq__(self, other):
        raise AssertionError("a field was compared")

    __hash__ = object.__hash__


def compared(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.compare]


def test_the_gallery_holds_every_value_class():
    assert sorted(gallery(), key=lambda cls: cls.__qualname__) == value_classes()
    assert len(value_classes()) == 28


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__qualname__)
def test_a_value_equals_itself_without_comparing_its_fields(cls):
    # with no field set, reading any field raises AttributeError
    bare = object.__new__(cls)
    assert bare == bare and not bare != bare
    # fields whose == raises: a tuple compares its items by identity first,
    # so a value with other such fields shows that distinct operands are
    # still compared field by field
    def raising():
        return dataclasses.replace(gallery()[cls], **{name: _RaisesOnEq() for name in compared(cls)})

    x = raising()
    assert x == x and not x != x
    with pytest.raises(AssertionError, match="a field was compared"):
        x == raising()
    with pytest.raises(AssertionError, match="a field was compared"):
        x != raising()


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__qualname__)
def test_a_copy_is_equal_and_a_one_field_change_is_not(cls):
    x = gallery()[cls]
    y = dataclasses.replace(x)
    assert y is not x and y == x and x == y and not y != x and not x != y
    for name in compared(cls):
        other = dataclasses.replace(x, **{name: _Other()})
        assert other != x and x != other and not other == x and not x == other, name


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__qualname__)
def test_a_foreign_operand_is_not_implemented_and_hash_repr_and_frozenness_stay(cls):
    x = gallery()[cls]
    assert x.__eq__(object()) is NotImplemented and x.__ne__(object()) is NotImplemented
    assert x != object() and not x == object()
    # dataclass's hash: the tuple of the compared fields
    key = tuple(getattr(x, name) for name in compared(cls))
    try:
        expected = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    assert repr(x).startswith(f"{cls.__name__}(")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, dataclasses.fields(cls)[0].name, None)


def test_sieves_hash_as_before_and_categories_stay_unhashable():
    s = site.Sieve("T", frozenset({"L_T", "R_T"}))
    assert hash(s) == hash(("T", frozenset({"L_T", "R_T"}))) == hash(dataclasses.replace(s))
    assert {s, dataclasses.replace(s)} == {s}
    with pytest.raises(TypeError):
        hash(walking_arrow())


# -- marks and caches are plain instance attributes ------------------------------------


@fincat.value_class
class _Probe:
    """A value with one cached property and one check, both logged."""

    items: tuple
    log: list = dataclasses.field(compare=False, repr=False)

    @fincat.cached_property
    def total(self) -> list:
        """The items as a new list."""
        self.log.append("total")
        return list(self.items)

    @fincat.validates_once
    def validate(self) -> None:
        self.log.append("check")


def cached_names(cls) -> list[str]:
    return [name for name, attr in inspect.getmembers(cls)
            if isinstance(attr, fincat.cached_property)]


def touched(x):
    """x after every cached property has been read and x has been marked
    valid, through validate where it has one."""
    for name in cached_names(type(x)):
        getattr(x, name)
    if hasattr(x, "validate"):
        x.validate()
    return fincat.mark_valid(x)


def has_instance_dict(x) -> bool:
    """Whether x holds a materialized instance dict: on CPython the
    collector sees either it or the inline values, never both."""
    names = {f.name for f in dataclasses.fields(x)}
    return any(type(r) is dict and names <= r.keys() for r in gc.get_referents(x))


def test_a_cached_property_is_a_descriptor_on_the_class_with_its_function_doc():
    assert isinstance(_Probe.total, fincat.cached_property)
    assert _Probe.total.__doc__ == "The items as a new list."
    for cls in value_classes():
        for name in cached_names(cls):
            attr = getattr(cls, name)
            assert attr.__doc__ == attr.func.__doc__ is not None, (cls, name)


def test_a_cached_property_computes_once_and_a_copy_shares_neither_cache_nor_mark():
    x = _Probe((1, 2), [])
    first = x.total
    assert x.log == ["total"] and x.total is first and x.log == ["total"]
    x.validate()
    x.validate()
    y = dataclasses.replace(x)
    assert y == x and y is not x and y.log is x.log
    assert not getattr(y, "_valid", False)
    assert y.total == first and y.total is not first
    y.validate()
    assert x.log == ["total", "check", "total", "check"]


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__qualname__)
def test_marks_and_caches_stay_out_of_eq_hash_repr_and_copies(cls):
    x = gallery()[cls]
    fresh, done = dataclasses.replace(x), touched(dataclasses.replace(x))
    assert done == fresh and fresh == done and repr(done) == repr(fresh)
    try:
        expected = hash(fresh)
    except TypeError:
        with pytest.raises(TypeError):
            hash(done)
    else:
        assert hash(done) == expected
    copy = dataclasses.replace(touched(x))
    assert set(vars(copy)) == {f.name for f in dataclasses.fields(cls)}


def test_popping_the_mark_forces_a_check_again():
    x = _Probe((), [])
    x.validate()
    x.validate()
    assert x.log == ["check"]
    vars(x).pop("_valid")
    x.validate()
    assert x.log == ["check", "check"]


@pytest.mark.skipif(platform.python_implementation() != "CPython" or sys.version_info < (3, 11),
                    reason="inline instance values are CPython 3.11's layout")
@pytest.mark.parametrize("cls", value_classes() + [_Probe],
                         ids=lambda cls: cls.__qualname__)
def test_a_marked_and_cached_value_keeps_no_instance_dict(cls):
    x = dataclasses.replace(gallery()[cls]) if cls is not _Probe else _Probe((1,), [])
    assert not has_instance_dict(touched(x))
    vars(x)
    assert has_instance_dict(x)


# -- guards on a shared base ------------------------------------------------------------


def rebase(x, B):
    """x with the base it is guarded on replaced by B."""
    if isinstance(x, fincat.PresheafMap):
        return dataclasses.replace(x, source=rebase(x.source, B), target=rebase(x.target, B))
    if isinstance(x, prestack.DiscOpfibPre):
        return dataclasses.replace(x, s=dataclasses.replace(x.s, target=rebase(x.s.target, B)))
    if isinstance(x, classifier.MapToOmega):
        return dataclasses.replace(x, site=B)
    return dataclasses.replace(x, base=B)


def base_of(x):
    if isinstance(x, fincat.PresheafMap):
        return x.source.base
    if isinstance(x, prestack.DiscOpfibPre):
        return x.codomain.base
    if isinstance(x, classifier.MapToOmega):
        return x.site
    return x.base


@st.composite
def sites(draw):
    """A generated category with a topology on generated covers, or the
    open site with its open-cover topology."""
    if draw(st.booleans()):
        return open_site_topology()
    cat = draw(generated_categories())
    gens = {c: draw(st.lists(st.lists(st.sampled_from(sorted(cat.arrows_into(c))),
                                      max_size=2), max_size=2))
            for c in cat.objects}
    return site.topology_from_generators(cat, gens)[0]


@st.composite
def guarded_calls(draw):
    """(name, function, arguments) for one entry point that guards a base."""
    name = draw(st.sampled_from([
        "is_sheaf", "is_separated", "plus", "sheafify", "check_stack",
        "compose_presheaf_maps", "search_setfunctor_maps", "fib_iso", "fib_hom",
        "enumerate_omega_modifications",
    ]))
    if name in ("is_sheaf", "is_separated", "plus", "sheafify", "check_stack",
                "compose_presheaf_maps"):
        j = draw(sites())
        Z = draw(st.sampled_from(presheaf_corpus(j.base, 4)
                                 + [nonseparated_presheaf()] * (j.base == open_site())))
        if name == "check_stack":
            F = draw(st.sampled_from([prestack.discrete_presheaf(j.base, Z),
                                      constant_cat_presheaf(j.base, walking_arrow())]))
            return name, stacks.check_stack, (F, j)
        if name == "compose_presheaf_maps":
            first = site.plus(Z, j)
            second = site.plus(first.presheaf, j)
            return name, fincat.compose_presheaf_maps, (second.unit, first.unit)
        return name, getattr(site, name), (Z, j)
    if name == "search_setfunctor_maps":
        pool = setfunctor_corpus(draw(generated_categories()), 4)
        return name, fincat.search_setfunctor_maps, tuple(draw(st.sampled_from(pool))
                                                          for _ in range(2))
    F = prestack.representable(walking_arrow(), draw(st.sampled_from(["a", "b"])))
    if name == "enumerate_omega_modifications":
        pool = map_to_omega_corpus(F, 3)
        return name, classifier.enumerate_omega_modifications, tuple(
            draw(st.sampled_from(pool)) for _ in range(2))
    pool = dopf_corpus(F, 3)
    return name, getattr(prestack, name), tuple(draw(st.sampled_from(pool)) for _ in range(2))


@settings(max_examples=40, deadline=None)
@given(guarded_calls(), st.integers(0, 1), generated_categories())
def test_a_copied_base_gives_the_same_result_and_an_unequal_one_a_tck_error(call, i, other):
    name, fn, args = call
    expected = fn(*args)
    base = base_of(args[i])
    copied = list(args)
    copied[i] = rebase(args[i], dataclasses.replace(base))
    assert base_of(copied[i]) == base and base_of(copied[i]) is not base
    assert fn(*copied) == expected, name
    assume(other != base)
    moved = list(args)
    moved[i] = rebase(args[i], other)
    with pytest.raises(TckError):
        fn(*moved)
