"""Seeded inputs for the benchmark: powerset and chain sites, and draws
from the deterministic corpora in ``tck.corpus``.

A draw takes every eligible corpus member, in an order and under a
relabelling of its elements that both come from the seed.  The seed thus
changes the inputs (labels, and so the order every search visits them in)
but not the mix of input sizes.  Random subsets were tried first: at k = 4
the cost of ``sheafify`` spans 3 ms to 194 ms across eligible presheaves,
and a seeded half of them moved the per-run mean cost by 19-24 % between
seeds (interquartile range over median), wider than any usable bound.
"""

from __future__ import annotations

import random

from tck import corpus
from tck.fincat import FinCat, FinSetFunctor, SetPresheaf


def powerset_site(k: int, complement: bool = False) -> tuple[FinCat, dict[str, list[list[str]]]]:
    """The opens of the discrete k-point space and the open-cover generators.

    Objects are the subsets, named ``p`` plus their bit string; U is covered
    by its points and the empty set by the empty family.  3**k arrows.  With
    ``complement`` a subset is named ``q`` plus the bit string of its
    complement instead, so the objects sort largest first.
    """
    full = 2 ** k - 1
    if complement:
        names = {m: "q" + format(full ^ m, f"0{k}b") for m in range(2 ** k)}
    else:
        names = {m: "p" + format(m, f"0{k}b") for m in range(2 ** k)}
    pairs = [(names[a], names[b]) for a in names for b in names if a != b and a & ~b == 0]
    cat = corpus.poset_category(list(names.values()), pairs)
    gens = {
        names[u]: [[f"{names[1 << i]}_{names[u]}" for i in range(k) if u >> i & 1]]
        for u in names
    }
    return cat, gens


def chain_site(n: int) -> FinCat:
    """The chain poset c0 < c1 < ... < c(n-1); n(n+1)/2 arrows."""
    objs = [f"c{i}" for i in range(n)]
    return corpus.poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def _renaming(labels, rng: random.Random) -> dict[str, str]:
    labels = sorted(set(labels))
    codes = rng.sample(range(4 * len(labels) + 4), len(labels))
    return {x: f"x{n}" for x, n in zip(labels, codes)}


def relabel_presheaf(Z: SetPresheaf, rng: random.Random) -> SetPresheaf:
    """An isomorphic copy of Z whose sections carry seeded labels."""
    m = _renaming((x for xs in Z.on_objects.values() for x in xs), rng)
    out = SetPresheaf(
        Z.base,
        {c: tuple(sorted(m[x] for x in xs)) for c, xs in Z.on_objects.items()},
        {f: {m[x]: m[y] for x, y in t.items()} for f, t in Z.on_arrows.items()},
    )
    out.validate()
    return out


def relabel_setfunctor(B: FinSetFunctor, rng: random.Random) -> FinSetFunctor:
    """An isomorphic copy of B whose elements carry seeded labels."""
    m = _renaming((x for xs in B.on_objects.values() for x in xs), rng)
    out = FinSetFunctor(
        B.base,
        {c: tuple(sorted(m[x] for x in xs)) for c, xs in B.on_objects.items()},
        {f: {m[x]: m[y] for x, y in t.items()} for f, t in B.on_arrows.items()},
    )
    out.validate()
    return out


def draw(items: list, rng: random.Random) -> list[tuple[int, object]]:
    """Every item with its corpus index, in a seeded order."""
    order = list(range(len(items)))
    rng.shuffle(order)
    return [(i, items[i]) for i in order]


def sections(Z: SetPresheaf) -> int:
    return sum(len(xs) for xs in Z.on_objects.values())
