"""Command-line entry point.

    tck <command> <file> [--bound N] [--json] [--out PATH]

Exit codes: 0 pass, 1 fail, 2 bounded-pass, 3 usage error.  All output is
deterministic; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import classifier, docformat, prestack, site as site_mod, stacks
from .errors import (
    MissingSection,
    NoIsoFound,
    NotOpfibrationAt,
    FactorizationFailed,
    SizeBound,
    TckError,
    UnknownCommand,
)
from .fincat import DEFAULT_BOUND
from .report import BOUNDED_PASS, PASS, Report


def _pairs(doc: docformat.Document, kind: str) -> list[tuple]:
    """The (name, value, topology name, topology) pairs of each setpresheaf,
    catpresheaf or two_nat of doc with each topology on its base, by name;
    a setpresheaf on a slice gets the slice topology.  MissingSection when
    there is no pair, so no command passes having checked nothing."""
    pairs = []
    topologies = sorted(doc.topologies.items())
    for name, entry in sorted(getattr(doc, docformat._NAMESPACES[kind][0]).items()):
        if kind == "setpresheaf":  # ("cat", BASE) or ("slice", BASE, OBJ)
            expr = entry[1]
        elif kind == "catpresheaf":
            expr = ("cat", entry[1])
        else:  # a two_nat lives on its target's base
            expr = ("cat", doc.catpresheaves[entry[2]][1])
        for jname, (topo, jbase) in topologies:
            if jbase == expr[1]:
                if expr[0] == "slice":
                    topo = site_mod.slice_topology(topo, expr[2])
                pairs.append((name, entry[0], jname, topo))
    if not pairs:
        raise MissingSection(f"{kind}/topology pair")
    return pairs


def _attempt(kind: str, error: type, call, *args) -> tuple:
    """(call(*args), None), or (None, (kind, message)) when it raises error."""
    try:
        return call(*args), None
    except error as exc:
        return None, (kind, str(exc))


def _certify(nat) -> tuple:
    """(nat's discrete opfibration, None), or (None, the refusal)."""
    return _attempt("not-an-opfibration", NotOpfibrationAt, prestack.certify_dopf_pre, nat)


def run(command: str, doc: docformat.Document,
        bound: int = DEFAULT_BOUND) -> tuple[Report, str | None]:
    handler = _HANDLERS.get(command)
    if handler is None:
        raise UnknownCommand(command)
    return handler(doc, bound)


def _cmd_validate(doc, bound):
    report = Report("validate")
    for name in sorted(doc.categories):
        doc.categories[name].validate()
    for table in (doc.functors, doc.setpresheaves, doc.catpresheaves, doc.two_nats):
        for name in sorted(table):
            table[name][0].validate()
    for name in sorted(doc.descent_data):
        report.merge(stacks.validate_descent(doc.descent_data[name][0]))
    for name in sorted(doc.sheaf_descent_data):
        report.merge(stacks.validate_sheaf_descent(doc.sheaf_descent_data[name][0], bound))
    for name in sorted(doc.maps_to_omega):
        doc.maps_to_omega[name][0].validate()
    # one count per block kind, over every table that holds its names
    counts = {tables[0]: sum(len(getattr(doc, table)) for table in tables)
              for tables in docformat._NAMESPACES.values()}
    report.note(("sections", sorted(counts.items())))
    return report, None


def _cmd_check_site(doc, bound):
    if not doc.topologies:
        raise MissingSection("topology")
    report = Report("check-site")
    for name in sorted(doc.topologies):
        topo, _ = doc.topologies[name]
        rep = site_mod.validate_topology(topo)
        report.merge(rep, name)
        if not rep.ok:
            # the sheaf checks are defined only on a topology
            continue
        sub = site_mod.subcanonical_check(topo, bound)
        report.merge(sub, name, "subcanonical")
        if sub.ok:
            report.note((name, "valid-and-subcanonical"))
    return report, None


def _cmd_check_sheaf(doc, bound):
    report = Report("check-sheaf")
    for zname, Z, jname, topo in _pairs(doc, "setpresheaf"):
        sheaf = site_mod.is_sheaf(Z, topo, bound)
        if sheaf.ok:
            report.note((zname, jname, "sheaf"))
        else:
            # a sheaf is separated, so only a presheaf that is none asks
            separated = site_mod.is_separated(Z, topo, bound)
            report.fail((zname, jname, "not-a-sheaf", sheaf.counterexamples[0],
                         "separated" if separated.ok else "not-separated"))
    return report, None


def _cmd_sheafify(doc, bound):
    report = Report("sheafify")
    out = {}
    for zname, Z, jname, topo in _pairs(doc, "setpresheaf"):
        sh = site_mod.sheafify(Z, topo, bound)
        check = site_mod.is_sheaf(sh.presheaf, topo, bound)
        if not check.ok:
            report.fail((zname, jname, "sheafified-not-a-sheaf", check.counterexamples[0]))
            continue
        sizes = sorted((c, len(v)) for c, v in sh.presheaf.on_objects.items())
        report.note((zname, jname, "sections", sizes, "unit-iso", sh.unit.is_iso()))
        out[f"{zname}.sheafified.{jname}"] = (sh.presheaf, doc.setpresheaves[zname][1])
    # emit only the presheaf blocks; bases are referenced by name from input
    text = "\n".join(
        "\n".join(docformat._ser_setpresheaf(n, Z, expr))
        for n, (Z, expr) in sorted(out.items())
    ) + "\n"
    return report, text


def _cmd_check_stack(doc, bound):
    report = Report("check-stack")
    for fname, F, jname, topo in _pairs(doc, "catpresheaf"):
        rep = stacks.check_stack(F, topo, bound)
        report.merge(rep, fname, jname)
        if rep.ok:
            report.note((fname, jname, "stack"))
    return report, None


def _cmd_classify(doc, bound):
    if not doc.maps_to_omega:
        raise MissingSection("map_to_omega")
    report = Report("classify")
    for name in sorted(doc.maps_to_omega):
        z = doc.maps_to_omega[name][0]
        phi = classifier.classify(z)
        for (c, x) in sorted(phi.fibres):
            report.note((name, c, x, list(phi.fibres[(c, x)])))
    return report, None


def _cmd_char(doc, bound):
    if not doc.two_nats:
        raise MissingSection("two_nat")
    report = Report("char")
    out_lines = []
    for name in sorted(doc.two_nats):
        nat, _, dstref, _ = doc.two_nats[name]
        base_name = doc.catpresheaves[dstref][1]
        phi, refused = _certify(nat)
        if refused:
            report.fail((name, *refused))
            continue
        z = classifier.char(phi)
        for (c, x) in sorted(z.object_part):
            Z = z.object_part[(c, x)]
            for f in sorted(Z.on_objects):
                report.note((name, c, x, f, list(Z.on_objects[f])))
            out_lines.extend(docformat._ser_setpresheaf(
                f"{name}.char.{c}.{x}", Z, ("slice", base_name, c)
            ))
    return report, "\n".join(out_lines) + "\n" if out_lines else None


def _cmd_char_stacks(doc, bound):
    if not doc.two_nats:
        raise MissingSection("two_nat")
    if not doc.topologies:
        raise MissingSection("topology")
    report = Report("char-stacks")
    certified = {}
    for name, nat, jname, topo in _pairs(doc, "two_nat"):
        if name not in certified:
            certified[name] = _certify(nat)
        phi, refused = certified[name]
        if not refused:
            zj, refused = _attempt("factorization-failed", FactorizationFailed,
                                   stacks.char_stacks, phi, topo, bound)
        if refused:
            report.fail((name, jname, *refused))
        elif prestack.fib_iso(classifier.classify(zj.underlying), phi, bound) is None:
            report.fail((name, jname, "no-roundtrip-iso"))
        else:
            report.note((name, jname, "factors-and-roundtrips"))
    return report, None


def _cmd_roundtrip(doc, bound):
    if not doc.two_nats and not doc.maps_to_omega:
        raise MissingSection("two_nat or map_to_omega")
    report = Report("roundtrip")
    for name in sorted(doc.two_nats):
        phi, refused = _certify(doc.two_nats[name][0])
        if not refused:
            _, refused = _attempt("no-iso", NoIsoFound, classifier.roundtrip_phi, phi, bound)
        if refused:
            report.fail((name, *refused))
        else:
            report.note((name, "roundtrip-ok"))
    for name in sorted(doc.maps_to_omega):
        _, refused = _attempt("no-iso", NoIsoFound, classifier.roundtrip_z,
                              doc.maps_to_omega[name][0], bound)
        if refused:
            report.fail((name, *refused))
        else:
            report.note((name, "roundtrip-ok"))
    return report, None


def _cmd_ff_check(doc, bound):
    if not doc.maps_to_omega:
        raise MissingSection("map_to_omega")
    report = Report("ff-check")
    names = sorted(doc.maps_to_omega)
    for n1 in names:
        for n2 in names:
            z1 = doc.maps_to_omega[n1][0]
            z2 = doc.maps_to_omega[n2][0]
            if z1.source != z2.source:
                continue
            rep = classifier.ff_check(z1, z2, bound)
            if rep.ok:
                report.note((n1, n2) + tuple(rep.witnesses[0]))
            else:
                report.fail((n1, n2) + tuple(rep.counterexamples[0]))
    return report, None


def _cmd_probe(doc, bound):
    if not doc.sheaf_descent_data:
        raise MissingSection("descent_datum (sheaves)")
    report = Report("probe-omega-j")
    for name in sorted(doc.sheaf_descent_data):
        datum = doc.sheaf_descent_data[name][0]
        report.merge(stacks.omega_J_probe([datum], bound), name)
    return report, None


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "char": _cmd_char,
    "char-stacks": _cmd_char_stacks,
    "sheafify": _cmd_sheafify,
    "check-sheaf": _cmd_check_sheaf,
    "check-stack": _cmd_check_stack,
    "check-site": _cmd_check_site,
    "roundtrip": _cmd_roundtrip,
    "ff-check": _cmd_ff_check,
    "probe-omega-j": _cmd_probe,
}
COMMANDS = tuple(_HANDLERS)


def _render_human(report: Report) -> str:
    lines = [f"command: {report.command}", f"verdict: {report.verdict}"]
    for w in report.witnesses:
        lines.append(f"witness: {w}")
    for ce in report.counterexamples:
        lines.append(f"counterexample: {ce}")
    for what, b in sorted(report.bounds.items()):
        lines.append(f"bound: {what} = {b}")
    return "\n".join(lines) + "\n"


def _bound(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"bound must be a non-negative integer (--bound or TCK_BOUND), got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; main sets its --bound default on each
    call, so that no call sees another's environment."""
    # a fixed width, the 80-column fallback less argparse's margin, so help
    # reads the same on every terminal and no formatter probes for one
    parser = argparse.ArgumentParser(
        prog="tck", description="finite-site 2-classifier toolkit",
        formatter_class=functools.partial(argparse.HelpFormatter, width=78),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file")
    parser.add_argument("--bound", type=_bound)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    # a string default goes through the type check too, so a bad TCK_BOUND
    # is a usage error like a bad --bound
    parser.set_defaults(bound=os.environ.get("TCK_BOUND", str(DEFAULT_BOUND)))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0 after printing; argparse reports usage errors with 2
        return 0 if exc.code == 0 else 3
    start = time.monotonic()
    try:
        doc = docformat.parse_file(args.file)
    except FileNotFoundError:
        print(f"error: no such file: {args.file}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 3
    except TckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        report, output = run(args.command, doc, args.bound)
    except (UnknownCommand, MissingSection) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SizeBound as exc:
        report = Report(args.command)
        report.bounded(exc.what, exc.bound)
        report.note(("aborted", str(exc)))
        output = None
    except TckError as exc:
        report = Report(args.command)
        report.fail((type(exc).__name__, str(exc)))
        output = None
    elapsed_ms = (time.monotonic() - start) * 1000.0
    if output is not None and args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    if args.json:
        payload = report.to_dict()
        if output is not None:
            payload["output"] = output
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(_render_human(report))
        if output is not None and args.out is None:
            sys.stdout.write(output)
    print(f"time: {elapsed_ms:.1f} ms", file=sys.stderr)
    if report.verdict == PASS:
        return 0
    if report.verdict == BOUNDED_PASS:
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
