"""Verification reports.

Every checker returns a Report rather than a bare bool so that failures
carry a minimal witness and bounded checks state their bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
BOUNDED_PASS = "bounded-pass"


@dataclass
class Report:
    command: str
    verdict: str = PASS
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True on a checked pass only: a bounded-pass is not ok."""
        return self.verdict == PASS

    def fail(self, counterexample) -> "Report":
        self.verdict = FAIL
        self.counterexamples.append(counterexample)
        return self

    def note(self, witness) -> "Report":
        self.witnesses.append(witness)
        return self

    def bounded(self, what: str, bound: int) -> "Report":
        if self.verdict == PASS:
            self.verdict = BOUNDED_PASS
        self.bounds[what] = bound
        return self

    def merge(self, other: "Report", *prefix: str) -> "Report":
        """Take in other's verdict, witnesses, counterexamples and bounds:
        with a prefix (a, b), each witness and counterexample w becomes
        (a, b, *w) and each bound is named "a/b: what"."""
        if other.verdict == FAIL:
            self.verdict = FAIL
        elif other.verdict == BOUNDED_PASS and self.verdict == PASS:
            self.verdict = BOUNDED_PASS
        tag = (lambda w: (*prefix, *w)) if prefix else (lambda w: w)
        self.witnesses.extend(map(tag, other.witnesses))
        self.counterexamples.extend(map(tag, other.counterexamples))
        name = "/".join(prefix) + ": " if prefix else ""
        self.bounds.update((name + what, b) for what, b in other.bounds.items())
        return self

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "verdict": self.verdict,
            "witnesses": [repr(w) if not isinstance(w, (str, int, list, dict)) else w
                          for w in self.witnesses],
            "counterexamples": [repr(c) if not isinstance(c, (str, int, list, dict)) else c
                                for c in self.counterexamples],
            "bounds": dict(sorted(self.bounds.items())),
        }
