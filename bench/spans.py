"""Spans around calls into tck's layers, recorded from outside ``src/``.

For a traced pass, ``Tracer.install`` replaces a fixed list of public layer
functions, wherever a tck module holds a reference to them, with wrappers
that record a span (name, start, end, parent, op id); ``uninstall`` puts the
originals back.  Untraced passes run the unwrapped code.  Each traced
pass is summed into per-layer totals when it ends; the spans of the first
traced pass stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("docformat", "cli", "fincat", "cat2", "site", "prestack", "classifier", "stacks")

# (module, attribute, span name).  ``cli.run`` spans are named per command.
TRACED = (
    ("tck.fincat", "FinCat.validate", "fincat.validate"),
    ("tck.fincat", "slice_cat", "fincat.slice"),
    ("tck.fincat", "reindex_slice_presheaf", "fincat.reindex"),
    ("tck.site", "topology_from_generators", "site.topology"),
    ("tck.site", "validate_topology", "site.validate_topology"),
    ("tck.site", "subcanonical_check", "site.subcanonical"),
    ("tck.site", "is_sheaf", "site.is_sheaf"),
    ("tck.site", "is_separated", "site.is_separated"),
    ("tck.site", "sheafify", "site.sheafify"),
    ("tck.cat2", "elements_of", "cat2.elements"),
    ("tck.cat2", "fiber_functor", "cat2.fiber"),
    ("tck.prestack", "certify_dopf_pre", "prestack.certify"),
    ("tck.prestack", "fib_iso", "prestack.fib_iso"),
    ("tck.classifier", "char", "classifier.char"),
    ("tck.classifier", "classify", "classifier.classify"),
    ("tck.classifier", "roundtrip_z", "classifier.roundtrip_z"),
    ("tck.classifier", "ff_check", "classifier.ff_check"),
    ("tck.stacks", "check_stack", "stacks.check_stack"),
    ("tck.stacks", "omega_J_probe", "stacks.probe"),
    ("tck.docformat", "parse", "docformat.parse"),
    ("tck.docformat", "parse_file", "docformat.parse"),
    ("tck.docformat", "serialize", "docformat.render"),
    ("tck.docformat", "_ser_setpresheaf", "docformat.render"),
    ("tck.cli", "main", "cli.main"),
    ("tck.cli", "run", None),
)
CLI_COMMANDS = ("validate", "classify", "char", "char-stacks", "sheafify", "check-sheaf",
                "check-stack", "check-site", "roundtrip", "ff-check", "probe-omega-j")
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in TRACED if name] + [f"cli.{c}" for c in CLI_COMMANDS]))


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, op id, outermost]
        self.spans: list[list] = []
        self.op = -1
        self.active = False  # spans are recorded only while an op's call runs
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self.kept: list[list] = []  # the spans of the first traced pass
        self.totals: dict[str, float] = {}
        self.passes = 0

    def _wrap(self, fn, name):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name or f"cli.{args[0]}"
            idx = len(spans)
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, self.op, depth[span] == 0]
            spans.append(rec)
            stack.append(idx)
            depth[span] += 1
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[span] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "tck" or n.startswith("tck.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def end_pass(self) -> None:
        """Add the pass's spans to the totals: inclusive time per span name
        (outermost calls only), and per layer the self time and span count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = dict.fromkeys(SPAN_NAMES, 0.0)
        busy = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            layer = name.split(".")[0]
            busy[layer] += end - start - child[i]
            calls[layer] += 1
            if outermost:
                incl[name] += end - start
        got = {f"{n}_ms": v * 1000.0 for n, v in incl.items()}
        got.update({f"{n}.busy_ms": v * 1000.0 for n, v in busy.items()})
        got.update({f"{n}.calls": v for n, v in calls.items()})
        for k, v in got.items():
            self.totals[k] = self.totals.get(k, 0.0) + v
        self.passes += 1
        if not self.kept:
            self.kept = list(self.spans)
        self.spans.clear()

    def summary(self) -> dict[str, float]:
        """Per-pass means over the traced passes."""
        return {k: v / self.passes for k, v in self.totals.items()}

    def write(self, path: str) -> None:
        """The first traced pass, one span per line: name, start and end in
        microseconds, parent index, op id."""
        t0 = self.kept[0][1] if self.kept else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.kept:
                fh.write(f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}"
                         f"\t{parent}\t{op}\n")
