"""Exhaustive reference implementations for the site layer.

``tck.site`` works from the least cover M_c at each object.  The oracles
here follow the definitions instead: topology generation saturates every
candidate sieve under stability and transitivity, validation tries every
candidate sieve against transitivity, matching families are filtered from
every assignment, a slice topology lifts every cover of dom f and is
validated by the definitions, the sheaf conditions visit every matching
family on every cover, and plus sections are the classes of (cover,
family) pairs that agree on intersections, closed transitively.  They are
slow and meant for small sites only.

``is_sheaf``, ``is_separated`` and ``plus`` work on the least covers as
``tck.site`` does, but without its restriction plan: families are dicts
filtered from every assignment over M_c by composing arrows, amalgamations
are found by one scan of Z(c) per family, and a family restricts along f
by composing f with each arrow of M_d.  Their reports and tables must
equal ``tck.site``'s exactly, labels and counterexamples included.

``least_covers`` is ``GrothTopology.minimal`` as it was before it sorted
only the covers that fail and before built topologies recorded it: it
checks every topology in full, and its witnesses must equal the
library's.  ``cocycle_index`` is the cocycle index as every sieve plan
once built it.
"""

import itertools

from tck.errors import AxiomViolation
from tck.fincat import DEFAULT_BOUND, PresheafMap, SetPresheaf, guard, slice_arrow_name, slice_cat
from tck.report import Report
from tck.site import (
    GrothTopology,
    PlusConstruction,
    Sieve,
    _composite,
    _SievesAbove,
    is_sieve,
    maximal_sieve,
    principal_sieves,
    pullback_sieve,
    sieve_generate_at,
)


def all_sieves(cat, c, bound=DEFAULT_BOUND):
    """Every sieve on c, by filtering subsets of the arrows into c."""
    into = cat.arrows_into(c)
    guard("all_sieves", 2 ** len(into), bound)
    out = []
    for k in range(len(into) + 1):
        for sub in itertools.combinations(into, k):
            s = Sieve(c, frozenset(sub))
            if is_sieve(cat, s):
                out.append(s)
    return out


def saturate(cat, generators):
    """Covers per object of the least topology holding the generated sieves,
    by closing under stability and transitivity over all sieves."""
    covers = {c: {maximal_sieve(cat, c)} for c in cat.objects}
    for c, fams in generators.items():
        for fam in fams:
            covers[c].add(sieve_generate_at(cat, c, fam))
    candidates = {c: all_sieves(cat, c) for c in cat.objects}
    changed = True
    while changed:
        changed = False
        for c in cat.objects:
            for s in list(covers[c]):
                for g in cat.arrows_into(c):
                    ps = pullback_sieve(cat, g, s)
                    if ps not in covers[cat.dom(g)]:
                        covers[cat.dom(g)].add(ps)
                        changed = True
        for c in cat.objects:
            for r in candidates[c]:
                if r in covers[c]:
                    continue
                for s in list(covers[c]):
                    if all(pullback_sieve(cat, f, r) in covers[cat.dom(f)] for f in s.arrows):
                        covers[c].add(r)
                        changed = True
                        break
    return {c: frozenset(v) for c, v in covers.items()}


def raw_matching_families(Z, s):
    """Filter every assignment over the sieve by the definition."""
    arrows = sorted(s.arrows)
    pools = [Z.on_objects[Z.base.dom(f)] for f in arrows]
    out = []
    for choice in itertools.product(*pools):
        m = dict(zip(arrows, choice))
        if all(
            m[Z.base.compose(f, g)] == Z.on_arrows[g][m[f]]
            for f in arrows
            for g in Z.base.arrows_into(Z.base.dom(f))
        ):
            out.append(m)
    return out


def sheaf_verdicts(Z, j):
    """(is a sheaf, is separated) by the definitions: every matching family
    on every cover has exactly one (at most one) amalgamation."""
    sheaf = separated = True
    for c in Z.base.objects:
        for s in j.covers[c]:
            for m in raw_matching_families(Z, s):
                n = sum(all(Z.on_arrows[f][x] == m[f] for f in s.arrows)
                        for x in Z.on_objects[c])
                sheaf = sheaf and n == 1
                separated = separated and n <= 1
    return sheaf, separated


def sheaf_condition(command, Z, j, fails):
    """Fail on the first matching family on some M_c whose number of
    amalgamations fails."""
    report = Report(command)
    for c, m in j.minimal.items():
        for fam in raw_matching_families(Z, m):
            n = sum(all(Z.on_arrows[f][x] == fam[f] for f in m.arrows)
                    for x in Z.on_objects[c])
            if fails(n):
                return report.fail((c, m.sorted_arrows(), dict(sorted(fam.items())), n))
    return report


def is_sheaf(Z, j):
    return sheaf_condition("is_sheaf", Z, j, lambda n: n != 1)


def is_separated(Z, j):
    return sheaf_condition("is_separated", Z, j, lambda n: n > 1)


def plus(Z, j):
    """Z+(c) is the matching families on M_c, labelled q0, q1, ... in
    sorted order of their (arrow, value) items."""
    cat = Z.base
    minimal = j.minimal
    families = {}
    labels = {}
    for c, m in minimal.items():
        keys = sorted(tuple(sorted(fam.items())) for fam in raw_matching_families(Z, m))
        families[c] = {f"q{i}": dict(key) for i, key in enumerate(keys)}
        labels[c] = {frozenset(key): f"q{i}" for i, key in enumerate(keys)}
    sections = {c: tuple(sorted(families[c])) for c in cat.objects}
    on_arrows = {
        f: {q: labels[d][frozenset((h, families[c][q][cat.compose(f, h)])
                                   for h in minimal[d].arrows)]
            for q in sections[c]}
        for f, (d, c) in cat.arrows.items()
    }
    presheaf = SetPresheaf(cat, sections, on_arrows)
    unit = PresheafMap(Z, presheaf, {
        c: {x: labels[c][frozenset((f, Z.on_arrows[f][x]) for f in minimal[c].arrows)]
            for x in Z.on_objects[c]}
        for c in cat.objects
    })
    return PlusConstruction(presheaf, unit)


def plus_class_count(Z, covers):
    """The number of (cover, family) classes at one object: two pairs are
    related when they agree on the intersection of their sieves, and the
    relation is closed transitively."""
    pairs = [(s, m) for s in covers for m in raw_matching_families(Z, s)]
    related = {
        (i, k)
        for i, (si, mi) in enumerate(pairs)
        for k, (sk, mk) in enumerate(pairs)
        if all(mi[f] == mk[f] for f in si.arrows & sk.arrows)
    }
    changed = True
    while changed:
        changed = False
        for i, k in list(related):
            for l in range(len(pairs)):
                if (k, l) in related and (i, l) not in related:
                    related.add((i, l))
                    changed = True
    return len({frozenset(k for i2, k in related if i2 == i) for i in range(len(pairs))})


def validate_topology(j, bound=DEFAULT_BOUND):
    """Check coverage, well-formedness, maximality, stability and
    transitivity by the definitions, trying every sieve as a transitivity
    counterexample, and list every counterexample.  Covers and arrows are
    visited in sorted order.  ``tck.site.validate_topology`` reports only
    the first axiom ``GrothTopology.minimal`` finds broken, with the
    witness it finds there; the tests relate that witness to this list."""
    cat = j.base
    report = Report("validate_topology")
    if set(j.covers) != set(cat.objects):
        return report.fail(("coverage", "covers table not total"))

    def by_arrows(sieves):
        return sorted(sieves, key=lambda s: s.sorted_arrows())

    for c in cat.objects:
        for s in by_arrows(j.covers[c]):
            if s.at != c or not is_sieve(cat, s):
                return report.fail(("well-formed", c, s.sorted_arrows()))
    for c in cat.objects:
        if maximal_sieve(cat, c) not in j.covers[c]:
            report.fail(("maximality", c))
    for c in cat.objects:
        for s in by_arrows(j.covers[c]):
            for g in sorted(cat.arrows):
                if cat.cod(g) == c and pullback_sieve(cat, g, s) not in j.covers[cat.dom(g)]:
                    report.fail(("stability", c, s.sorted_arrows(), g))
    for c in cat.objects:
        for r in all_sieves(cat, c, bound):
            if r in j.covers[c]:
                continue
            for s in by_arrows(j.covers[c]):
                if all(pullback_sieve(cat, f, r) in j.covers[cat.dom(f)] for f in s.arrows):
                    report.fail(("transitivity", c, r.sorted_arrows(), s.sorted_arrows()))
                    break
    return report


def slice_topology(j, c):
    """The topology induced on slice(C, c) as a raw table: every cover of
    dom f lifted to f, then validated by the definitions."""
    cat = j.base
    sl, _ = slice_cat(cat, c)
    covers = {
        f: frozenset(Sieve(f, frozenset(slice_arrow_name(g, f) for g in s.arrows))
                     for s in j.covers[cat.dom(f)])
        for f in sl.objects
    }
    out = GrothTopology(sl, covers)
    rep = validate_topology(out)
    if not rep.ok:
        raise AxiomViolation("slice-topology", (c, rep.counterexamples[0]))
    return out


def least_covers(j):
    """What ``GrothTopology.minimal`` computed before it sorted only the
    covers that fail, checking every topology in full, a built one too:
    each raw J(c) is scanned in sorted arrow order for well-formedness and
    for upward closure, which tests one ``Sieve`` per cover and principal
    sieve.  The witnesses must equal ``minimal``'s."""
    cat, covers = j.base, j.covers
    missing = sorted(set(cat.objects) - set(covers))
    if missing:
        raise AxiomViolation("coverage", missing[0])
    raw = not isinstance(covers, _SievesAbove)
    minimal = {
        c: Sieve(c, maximal_sieve(cat, c).arrows.intersection(
            *(s.arrows for s in covers[c]))) if raw else covers.least[c]
        for c in cat.objects
    }

    def by_arrows(sieves):
        return sorted(sieves, key=lambda s: s.sorted_arrows())

    for c, m in minimal.items():
        if raw and maximal_sieve(cat, c) not in covers[c]:
            raise AxiomViolation("maximality", c)
        for s in by_arrows(covers[c]) if raw else (m,):
            if s.at != c or not is_sieve(cat, s):
                raise AxiomViolation("well-formed", (c, s.sorted_arrows()))
        if raw and m not in covers[c]:
            raise AxiomViolation("intersection", (c, m.sorted_arrows()))
    for f, (d, c) in cat.arrows.items():
        if not minimal[d] <= pullback_sieve(cat, f, minimal[c]):
            raise AxiomViolation("stability", (c, minimal[c].sorted_arrows(), f))
    for c, m in minimal.items():
        if not m.arrows <= _composite(cat, minimal, m):
            raise AxiomViolation("transitivity", (c, m.sorted_arrows()))
        for s in by_arrows(covers[c]) if raw else ():
            for up in (Sieve(c, s.arrows | p) for p in principal_sieves(cat, c)):
                if up not in covers[c]:
                    raise AxiomViolation("transitivity",
                                         (c, up.sorted_arrows(), s.sorted_arrows()))
    return minimal


def validate_least_covers(j):
    """``tck.site.validate_topology`` over ``least_covers``."""
    report = Report("validate_topology")
    try:
        least_covers(j)
    except AxiomViolation as exc:
        witness = exc.witness if isinstance(exc.witness, tuple) else (exc.witness,)
        report.fail((exc.kind, *witness))
    return report


def cocycle_index(cat, p):
    """``SievePlan.cocycles`` as ``sieve_plan`` built it for every plan."""
    triple_at = {(i, g): a for a, (i, g, _) in enumerate(p.triples)}
    return tuple((a, triple_at[k, h], triple_at[i, cat.compose(g, h)], h)
                 for a, (i, g, k) in enumerate(p.triples) for h in cat.arrows_into(p.doms[k]))
