"""Exception hierarchy shared by every tck module.

Each exception carries the offending identifiers so reports can cite a
minimal witness.
"""

from __future__ import annotations


class TckError(Exception):
    """Base class for all library errors."""


# -- category table validation ------------------------------------------------

class InvalidTable(TckError):
    """Structurally malformed input table (duplicate names, dangling ids)."""


class MissingIdentity(TckError):
    def __init__(self, obj: str, detail: str = ""):
        self.obj = obj
        super().__init__(f"no valid identity for object {obj!r}" + (f": {detail}" if detail else ""))


class NonAssociative(TckError):
    def __init__(self, h: str, g: str, f: str):
        self.triple = (h, g, f)
        super().__init__(f"associativity fails on ({h!r}, {g!r}, {f!r})")


class IllTypedComposite(TckError):
    def __init__(self, g: str, f: str, detail: str):
        self.pair = (g, f)
        super().__init__(f"composite ({g!r}, {f!r}): {detail}")


class UnknownObject(TckError):
    def __init__(self, obj: str):
        self.obj = obj
        super().__init__(f"unknown object {obj!r}")


# -- enumeration oracles ------------------------------------------------------

class SizeBound(TckError):
    """An enumeration would exceed the configured candidate bound."""

    def __init__(self, what: str, estimate: int | None, bound: int):
        self.what = what
        self.estimate = estimate  # None when only the tripped bound is known
        self.bound = bound
        count = "" if estimate is None else f" {estimate} candidates"
        super().__init__(f"{what}:{count} exceeds bound {bound}")


# -- opfibration certification ------------------------------------------------

class NotOpfibration(TckError):
    def __init__(self, obj: str, arrow: str, count: int):
        self.obj = obj
        self.arrow = arrow
        self.count = count
        super().__init__(f"object {obj!r} has {count} lifts of {arrow!r} (need exactly 1)")


class NotOpfibrationAt(TckError):
    def __init__(self, component: str, inner: NotOpfibration):
        self.component = component
        self.inner = inner
        super().__init__(f"component at {component!r}: {inner}")


# -- sites and sheaves --------------------------------------------------------

class MixedCodomain(TckError):
    def __init__(self, arrows):
        self.arrows = tuple(arrows)
        super().__init__(f"arrows {self.arrows} do not share a codomain")


class AxiomViolation(TckError):
    def __init__(self, kind: str, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"topology axiom {kind} fails at {witness}")


# -- descent ------------------------------------------------------------------

class FactorizationFailed(TckError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"characteristic morphism does not take sheaf values: {witness}")


# -- classifier verification --------------------------------------------------

class NoIsoFound(TckError):
    def __init__(self, detail: str):
        super().__init__(f"no isomorphism witness found: {detail}")


# -- document format ----------------------------------------------------------

class ParseError(TckError):
    def __init__(self, line: int, column: int, detail: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {detail}")


class DanglingReference(TckError):
    def __init__(self, line: int, ref: str):
        self.line = line
        self.ref = ref
        super().__init__(f"line {line}: reference {ref!r} does not resolve")


class InvariantViolation(TckError):
    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class UnknownCommand(TckError):
    def __init__(self, name: str):
        super().__init__(f"unknown command {name!r}")


class MissingSection(TckError):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"document has no {kind} section to operate on")
