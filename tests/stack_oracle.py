"""Reference implementations of the stack conditions and of sheaf gluing.

``tck.stacks.check_stack`` decides the three gluing conditions on the
least cover M_c at each object.  The oracle here follows the definition
instead: it checks them on every covering sieve in ``j.covers[c]``.  It is
slow and meant for small sites only.

``tck.stacks.construct_effectiveness`` reads the compatibility isos of a
glued sheaf descent datum off the sheafification unit.  The oracle here
assembles them the long way, through the plus construction's functorial
action and its transport along slice reindexing.
"""

import itertools
from dataclasses import dataclass
from typing import Mapping

from tck.errors import SizeBound
from tck.fincat import (
    DEFAULT_BOUND,
    PresheafMap,
    SetPresheaf,
    compose_presheaf_maps,
    guard,
    invert_presheaf_map,
    reindex_slice_presheaf,
    slice_arrow_name,
    slice_cat,
)
from tck.report import Report
from tck.site import Sieve, matching_families, plus, sheafify, slice_topology
from tck.stacks import build_gluing_presheaf, effectiveness, enumerate_descent_data


def check_stack(F, j, bound=DEFAULT_BOUND):
    """The three gluing conditions, per covering sieve."""
    report = Report("check_stack")
    base = F.base
    for c in base.objects:
        Fc = F.on_objects[c]
        for s in sorted(j.covers[c], key=lambda s: s.sorted_arrows()):
            arrows = sorted(s.arrows)
            # (iii) uniqueness of gluings of morphisms
            for x in Fc.objects:
                for y in Fc.objects:
                    homs = Fc.hom(x, y)
                    for h in homs:
                        for k in homs:
                            if h < k and all(
                                F.on_arrows[f].on_arrows[h] == F.on_arrows[f].on_arrows[k]
                                for f in arrows
                            ):
                                report.fail(("iii", c, s.sorted_arrows(), x, y, h, k))
            # (ii) gluing of morphisms
            for x in Fc.objects:
                for y in Fc.objects:
                    pools = [
                        F.on_objects[base.dom(f)].hom(
                            F.on_arrows[f].on_objects[x], F.on_arrows[f].on_objects[y]
                        )
                        for f in arrows
                    ]
                    total = 1
                    for p in pools:
                        total *= max(1, len(p))
                    try:
                        guard("stack morphism families", total, bound)
                    except SizeBound:
                        report.bounded(f"stack-ii at {c}", bound)
                        continue
                    if any(not p for p in pools):
                        continue
                    for choice in itertools.product(*pools):
                        fam = dict(zip(arrows, choice))
                        compatible = all(
                            F.on_arrows[g].on_arrows[fam[f]] == fam[base.compose(f, g)]
                            for f in arrows
                            for g in base.arrows_into(base.dom(f))
                        )
                        if not compatible:
                            continue
                        gluings = [
                            h for h in Fc.hom(x, y)
                            if all(F.on_arrows[f].on_arrows[h] == fam[f] for f in arrows)
                        ]
                        if not gluings:
                            report.fail(("ii", c, s.sorted_arrows(), x, y,
                                         tuple(sorted(fam.items()))))
            # (i) gluing of objects over enumerated descent data
            try:
                data = enumerate_descent_data(F, s, bound)
            except SizeBound as exc:
                report.bounded(f"stack-i at {c} over {s.sorted_arrows()}", exc.bound)
                continue
            for datum in data:
                try:
                    wits = effectiveness(datum, bound)
                except SizeBound as exc:
                    report.bounded(f"stack-i-witness at {c}", exc.bound)
                    continue
                if not wits:
                    report.fail(("i", c, s.sorted_arrows(),
                                 tuple(sorted(datum.objects.items()))))
    return report


# -- the double-plus route to the effectiveness isos -------------------------------


@dataclass(frozen=True)
class LabelledPlus:
    """Z+ together with the matching family on M_c behind each section label."""

    presheaf: SetPresheaf
    minimal: Mapping[str, Sieve]
    families: Mapping[str, Mapping[str, Mapping[str, str]]]   # c -> label -> family
    labels: Mapping[str, Mapping[frozenset, str]]             # c -> family items -> label

    def label(self, c, family):
        """The section at c of a matching family on any sieve containing M_c."""
        return self.labels[c][frozenset((f, family[f]) for f in self.minimal[c].arrows)]


def labelled_plus(Z, j, bound=DEFAULT_BOUND):
    """``tck.site.plus`` with its labels rebuilt: Z+(c) labels the matching
    families on M_c q0, q1, ... in sorted family order."""
    presheaf = plus(Z, j, bound).presheaf
    families, labels = {}, {}
    for c, m in j.minimal.items():
        keys = sorted(tuple(sorted(fam.assignment.items()))
                      for fam in matching_families(Z, m, bound))
        families[c] = {f"q{i}": dict(key) for i, key in enumerate(keys)}
        labels[c] = {frozenset(key): f"q{i}" for i, key in enumerate(keys)}
        assert tuple(sorted(families[c])) == presheaf.on_objects[c], c
    return LabelledPlus(presheaf, j.minimal, families, labels)


def plus_map(m, pc_src, pc_tgt):
    """Functorial action of plus on a presheaf map."""
    cat = m.source.base
    comps = {}
    for c in cat.objects:
        table = {}
        for q in pc_src.presheaf.on_objects[c]:
            fam = pc_src.families[c][q]
            table[q] = pc_tgt.label(c, {f: m.components[cat.dom(f)][x] for f, x in fam.items()})
        comps[c] = table
    out = PresheafMap(pc_src.presheaf, pc_tgt.presheaf, comps)
    out.validate()
    return out


def transport_plus_iso(cat, j, f, Z, bound=DEFAULT_BOUND):
    """The canonical iso  f*(Z+) -> (f*Z)+  for Z on slice(C, cod f).

    Covering sieves on a slice object g of slice(C, dom f) and on the slice
    object f.g of slice(C, cod f) both come from base sieves on dom(g), so
    families transport arrow-by-arrow.
    """
    d, c = cat.arrows[f]
    pc_c = labelled_plus(Z, slice_topology(j, c), bound)
    pc_d = labelled_plus(reindex_slice_presheaf(cat, f, Z), slice_topology(j, d), bound)
    sl_d, _ = slice_cat(cat, d)
    comps = {}
    for g in sl_d.objects:
        fg = cat.compose(f, g)
        # rename slice-of-c arrows (h > f.g) to slice-of-d arrows (h > g)
        renames = {
            slice_arrow_name(h, fg): slice_arrow_name(h, g)
            for h in cat.arrows_into(cat.dom(g))
        }
        comps[g] = {
            q: pc_d.label(g, {renames[name]: x for name, x in pc_c.families[fg][q].items()})
            for q in pc_c.presheaf.on_objects[fg]
        }
    out = PresheafMap(reindex_slice_presheaf(cat, f, pc_c.presheaf), pc_d.presheaf, comps)
    out.validate()
    assert out.is_iso(), "transport_plus_iso produced a non-iso; slice naming out of sync"
    return out


def double_plus_effectiveness(d, bound=DEFAULT_BOUND):
    """``tck.stacks.construct_effectiveness`` by the double-plus route.

    psi^f: f*(Z++) -> M_f is the composite of the transports
    f*(Z++) -> (f*(Z+))+ -> ((f*Z)+)+, the double plus of e_f^-1, and the
    inverse of the unit M_f -> (M_f)++, which is an iso as M_f is a sheaf.
    """
    base = d.site
    j = d.topology
    Z = build_gluing_presheaf(d)
    M = sheafify(Z, slice_topology(j, d.sieve.at), bound)
    psis = {}
    for f in sorted(d.sieve.arrows):
        df = base.dom(f)
        jd = slice_topology(j, df)
        fZ = reindex_slice_presheaf(base, f, Z)
        sl_d, _ = slice_cat(base, df)
        e_f = PresheafMap(d.objects[f], fZ, {
            g: {x: d.isos[(f, g)].components[base.id_of(base.dom(g))][x]
                for x in d.objects[f].on_objects[g]}
            for g in sl_d.objects
        })
        pcW1 = labelled_plus(fZ, jd, bound)
        pcM1 = labelled_plus(d.objects[f], jd, bound)
        pcW2 = labelled_plus(pcW1.presheaf, jd, bound)
        p1 = plus_map(invert_presheaf_map(e_f), pcW1, pcM1)
        p2 = plus_map(p1, pcW2, labelled_plus(pcM1.presheaf, jd, bound))
        # f*(Z++) -> (f*(Z+))+ -> ((f*Z)+)+
        t1 = transport_plus_iso(base, j, f, M.first.presheaf, bound)
        t0 = transport_plus_iso(base, j, f, Z, bound)
        pc_src = labelled_plus(reindex_slice_presheaf(base, f, M.first.presheaf), jd, bound)
        t2 = plus_map(t0, pc_src, pcW2)
        collapse = invert_presheaf_map(sheafify(d.objects[f], jd, bound).unit)
        psis[f] = compose_presheaf_maps(collapse, compose_presheaf_maps(
            p2, compose_presheaf_maps(t2, t1)))
    return M.presheaf, psis
