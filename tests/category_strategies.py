"""Small finite categories shared by the tests: hypothesis strategies and
the idempotent monoid."""

from hypothesis import strategies as st

from tck import fincat
from tck.corpus import poset_category


def idempotent_monoid():
    """The one-object category of the monoid {1, e} with e.e = e."""
    return fincat.build_category(["*"], {"id_*": ("*", "*"), "e": ("*", "*")}, {"*": "id_*"},
                                 {("id_*", "id_*"): "id_*", ("e", "id_*"): "e",
                                  ("id_*", "e"): "e", ("e", "e"): "e"})


@st.composite
def generated_categories(draw):
    """A random poset, or the free category on a random DAG, with at most 4
    objects; a DAG may carry parallel generators and paths, so its hom-sets
    need not be thin."""
    n = draw(st.integers(1, 4))
    objs = [f"o{i}" for i in range(n)]
    pairs = [(objs[i], objs[k]) for i in range(n) for k in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    if draw(st.booleans()):
        return poset_category(objs, edges)
    return fincat.free_category(objs, {f"g{i}": e for i, e in enumerate(edges)})


@st.composite
def small_monoids(draw):
    """The one-object category of the monoid of self-maps of a set of at
    most 3 points that 1 or 2 random maps generate: its endomorphisms need
    not be invertible.  A map is named by its table, m201 for 0->2, 1->0,
    2->1; the identity is id_*."""
    n = draw(st.integers(1, 3))
    maps = st.tuples(*[st.integers(0, n - 1)] * n)
    gens = draw(st.lists(maps, min_size=1, max_size=2))
    ident = tuple(range(n))
    elems, frontier = {ident}, [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            gm = tuple(g[i] for i in m)
            if gm not in elems:
                elems.add(gm)
                frontier.append(gm)
    names = {e: "id_*" if e == ident else "m" + "".join(map(str, e)) for e in elems}
    compose = {(names[g], names[f]): names[tuple(g[i] for i in f)]
               for g in elems for f in elems}
    return fincat.build_category(["*"], {name: ("*", "*") for name in names.values()},
                                 {"*": "id_*"}, compose)
