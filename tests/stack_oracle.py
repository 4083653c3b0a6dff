"""Exhaustive reference implementation of the stack conditions.

``tck.stacks.check_stack`` decides the three gluing conditions on the
least cover M_c at each object.  The oracle here follows the definition
instead: it checks them on every covering sieve in ``j.covers[c]``.  It is
slow and meant for small sites only.
"""

import itertools

from tck.errors import SizeBound
from tck.fincat import DEFAULT_BOUND, guard
from tck.report import Report
from tck.stacks import effectiveness, enumerate_descent_data


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
