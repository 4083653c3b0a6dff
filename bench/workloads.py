"""The benchmark's three workloads as fixed, seeded lists of operations.

An operation (op) is one call into tck's public API.  The runner times
the call alone; ``verify`` then checks the result outside the timed region
and returns a fingerprint that must repeat exactly on every pass.  Ops of
one pass share a memo, so a later op can use or cross-check an earlier
op's result (the site's topology, or the sheaf verdict for a presheaf).

Why each workload and size (costs measured on a 2-core x86-64 VM, Python 3.11):

- site-sheafify: powerset-of-k-points sites, k = 2, 3, 4 (9, 27, 81 arrows).
  ``site`` and ``stacks`` do almost all the work.  The k = 4 topology ops
  (generate 0.8 s, validate 1.0 s) are the latency tail.  Presheaves at
  k = 4 are limited to 20 sections: above that one ``sheafify`` costs
  0.5 s to 12 s, so a single input would outweigh the rest of the run.
  ``check_stack`` runs for k <= 3 only; at k = 4 it costs 9.5 s per
  presheaf.  k = 5 (243 arrows) is the frontier: ``topology_from_generators``
  stops with ``SizeBound`` at the whole space, whose sieves need 2**32
  candidates.  Its objects are named so that the whole space comes first;
  in the natural order the search first spends about 8 s on the 2**16
  candidates of each 4-point subset and then stops all the same.
- classify-roundtrip: chain_n posets, n = 3..8, with the representable at
  the top.  ``fincat``, ``cat2``, ``prestack`` and ``classifier`` do the
  work and ``site`` is never called, so it is the control for a change to
  the site layer.  ``ff_check`` pairs recur over a small pool, so the
  ``classify`` memo is hit.
- cli-docs: every (document, command) pair whose section exists, on the
  shipped fixtures and four generated documents, with human and with JSON
  output.  Each op parses and builds many small categories and queries
  them little; no memo is ever hit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import gen
from tck import cat2, classifier, cli, corpus, docformat, fincat, prestack, site, stacks
from tck.docbuild import DocumentBuilder
from tck.report import BOUNDED_PASS, FAIL, PASS


class Wrong(Exception):
    """An op returned a result that its check rejects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def verdict_decided(result) -> bool:
    """False for a bounded verdict; SizeBound is handled by the runner."""
    return getattr(result, "verdict", None) != BOUNDED_PASS


@dataclass
class Op:
    key: str  # unique within the op list
    call: Callable[[dict], object]
    verify: Callable[[object, dict], object]  # raises Wrong; returns a fingerprint
    counts: Callable[[object], dict] = lambda result: {}
    decided: Callable[[object], bool] = verdict_decided


@dataclass
class Workload:
    ops: list[Op]
    frontier: list[Op] = field(default_factory=list)  # counted in decided_share only
    cleanup: Callable[[], None] = lambda: None


# -- site-sheafify ------------------------------------------------------------------

SITE_KS = (2, 3, 4)
STACK_MAX_K = 3
FRONTIER_K = 5
MAX_SECTIONS_K4 = 20
# is_sheaf on a sheafified presheaf at k = 4 costs ~0.4 s (60 s per pass)
MAX_K_SHEAF_OUTPUT_CHECK = 3
# A covering sieve on U is a down-set of P(U) holding every point of U, and
# D -> (union of D, D) is a bijection from the down-sets of P(k); so the sum
# of |J(U)| over U is the Dedekind number M(k).
DEDEKIND = {2: 6, 3: 20, 4: 168, 5: 7581}


def _injective(m) -> bool:
    return all(len(set(t.values())) == len(t) for t in m.components.values())


def site_sheafify(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for k in SITE_KS:
        cat, gens = gen.powerset_site(k)
        reps = [corpus.hom_into(cat, x, f"r{x}") for x in cat.objects]
        zs = corpus.presheaf_corpus(cat, 0)
        if k == 4:
            zs = [Z for Z in zs if gen.sections(Z) <= MAX_SECTIONS_K4]
        topo_key = f"k{k}.topology"
        ops.append(_topology_op(topo_key, cat, gens, k))
        ops.append(Op(
            f"k{k}.validate_topology",
            lambda memo, t=topo_key: site.validate_topology(memo[t]),
            lambda r, memo: (expect(r.verdict == PASS, "topology fails its axioms"),
                             r.verdict)[1],
        ))
        ops.append(Op(
            f"k{k}.subcanonical",
            lambda memo, t=topo_key: site.subcanonical_check(memo[t]),
            lambda r, memo: (expect(r.verdict == PASS, "a representable is not a sheaf"),
                             r.verdict)[1],
        ))
        for i, Z in gen.draw(zs, rng):
            is_rep = any(Z == R for R in reps)
            Z = gen.relabel_presheaf(Z, rng)
            F = prestack.discrete_presheaf(cat, Z) if k <= STACK_MAX_K else None
            ops.extend(_presheaf_ops(f"k{k}.z{i}", Z, F, is_rep, topo_key,
                                     check_output=k <= MAX_K_SHEAF_OUTPUT_CHECK))
    # largest object first, so the search meets the 2**32 candidates at once
    cat5, gens5 = gen.powerset_site(FRONTIER_K, complement=True)
    return Workload(ops, [_topology_op(f"k{FRONTIER_K}.topology", cat5, gens5, FRONTIER_K)])


def _topology_op(key: str, cat, gens, k: int) -> Op:
    def call(memo):
        topo, report = site.topology_from_generators(cat, gens)
        memo[key] = topo
        return topo, report

    def verify(result, memo):
        topo, report = result
        total = sum(len(v) for v in topo.covers.values())
        expect(total == DEDEKIND[k], f"{total} covering sieves, expected {DEDEKIND[k]}")
        return total, len(report.witnesses)

    def counts(result):
        topo, report = result
        return {"fincat.arrows": len(cat.arrows),
                "site.covering_sieves": sum(len(v) for v in topo.covers.values()),
                "site.saturated_added": len(report.witnesses)}

    return Op(key, call, verify, counts)


def _presheaf_ops(key: str, Z, F, is_rep: bool, topo_key: str,
                  check_output: bool) -> list[Op]:
    def verify_sheaf(r, memo):
        expect(r.verdict != FAIL or not is_rep, "a representable is not a sheaf")
        memo[key + ".sheaf"] = r.verdict == PASS
        return r.verdict

    def verify_separated(r, memo):
        expect(r.verdict == PASS or not memo[key + ".sheaf"], "a sheaf is not separated")
        memo[key + ".separated"] = r.verdict == PASS
        return r.verdict

    def verify_sheafify(sh, memo):
        if check_output:
            expect(site.is_sheaf(sh.presheaf, memo[topo_key]).verdict == PASS,
                   "sheafify returned a non-sheaf")
        expect(sh.unit.is_iso() == memo[key + ".sheaf"], "unit is iso iff input is a sheaf")
        expect(_injective(sh.first.unit) == memo[key + ".separated"],
               "first unit is mono iff input is separated")
        return tuple(sorted((c, len(v)) for c, v in sh.presheaf.on_objects.items()))

    def verify_stack(r, memo):
        # descent for a discrete Cat-valued presheaf is the sheaf condition
        if r.verdict != BOUNDED_PASS:
            expect((r.verdict == PASS) == memo[key + ".sheaf"],
                   "check_stack on a discrete presheaf disagrees with is_sheaf")
        return r.verdict

    ops = [
        Op(key + ".is_sheaf", lambda memo: site.is_sheaf(Z, memo[topo_key]), verify_sheaf,
           lambda r: {"site.sheaves": int(r.verdict == PASS)}),
        Op(key + ".is_separated", lambda memo: site.is_separated(Z, memo[topo_key]),
           verify_separated),
        Op(key + ".sheafify", lambda memo: site.sheafify(Z, memo[topo_key]), verify_sheafify,
           lambda sh: {"site.plus_sections":
                       sum(len(v) for v in sh.first.presheaf.on_objects.values())}),
    ]
    if F is not None:
        ops.append(Op(key + ".check_stack", lambda memo: stacks.check_stack(F, memo[topo_key]),
                      verify_stack, lambda r: {"stacks.bounded_strata": len(r.bounds)}))
    return ops


# -- classify-roundtrip -----------------------------------------------------------------

CHAIN_NS = range(3, 9)
CORPUS_SIZE = 12


def _profile(B, f) -> tuple[int, ...]:
    """Preimage sizes of B(f), sorted: invariant under relabelling."""
    images = list(B.on_arrows[f].values())
    return tuple(sorted(images.count(y) for y in set(images)))


def classify_roundtrip(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in CHAIN_NS:
        cat = gen.chain_site(n)
        F = prestack.representable(cat, cat.objects[-1])
        el = prestack.elements_category(F)
        bs = corpus.setfunctor_corpus(el, CORPUS_SIZE)
        for i, B in gen.draw(bs, rng):
            phi = corpus.dopf_from_set_functor(F, gen.relabel_setfunctor(B, rng))
            ops.extend(_dopf_ops(f"n{n}.phi{i}", phi, prestack.fibre_diagram(phi)))
        for i, B in gen.draw(bs, rng):
            z = corpus.map_to_omega_from_set_functor(F, gen.relabel_setfunctor(B, rng))
            ops.extend(_map_ops(f"n{n}.z{i}", cat, z))
        pool = {x: corpus.map_to_omega_from_set_functor(
                    F, gen.relabel_setfunctor(corpus.hom_from(el, x, "r"), rng))
                for x in el.objects}
        for x, y in [(x, y) for x in el.objects for y in el.objects]:
            # Yoneda: Nat(Hom(x, -), Hom(y, -)) is Hom(y, x)
            ops.append(_ff_op(f"n{n}.ff.{x}.{y}", pool[x], pool[y], len(el.hom(y, x))))
    return Workload(ops)


def _dopf_ops(key: str, phi, B) -> list[Op]:
    sizes = sorted(len(v) for v in phi.fibres.values())

    def verify_certify(p, memo):
        expect(p.fibres == phi.fibres, "certified fibres differ from the corpus")
        memo[key + ".p"] = p
        return tuple(sizes)

    def verify_classify(psi, memo):
        expect(sorted(len(v) for v in psi.fibres.values()) == sizes,
               "classify(char(phi)) has other fibre sizes than phi")
        memo[key + ".psi"] = psi
        return tuple(sizes)

    def verify_elements(E, memo):
        expect(len(E.total.objects) == sum(len(v) for v in B.on_objects.values()),
               "category of elements has the wrong number of objects")
        memo[key + ".E"] = E
        return len(E.total.objects)

    def verify_fiber(B2, memo):
        for c in B.base.objects:
            expect(len(B2.on_objects[c]) == len(B.on_objects[c]), f"fibre size at {c}")
        for f in B.base.arrows:
            expect(_profile(B2, f) == _profile(B, f), f"transport along {f}")
        return tuple(len(B2.on_objects[c]) for c in B.base.objects)

    def store(name):
        def verify(result, memo):
            memo[key + name] = result
            return len(result.object_part)
        return verify

    return [
        Op(key + ".certify", lambda memo: prestack.certify_dopf_pre(phi.s), verify_certify),
        Op(key + ".char", lambda memo: classifier.char(memo[key + ".p"]), store(".z")),
        Op(key + ".classify", lambda memo: classifier.classify(memo[key + ".z"]),
           verify_classify,
           lambda psi: {"classifier.fibres": sum(len(v) for v in psi.fibres.values())}),
        Op(key + ".fib_iso", lambda memo: prestack.fib_iso(memo[key + ".psi"], memo[key + ".p"]),
           lambda iso, memo: (expect(iso is not None, "round trip found no iso"), True)[1],
           lambda iso: {"prestack.isos_found": int(iso is not None)}),
        Op(key + ".elements", lambda memo: cat2.elements_of(B), verify_elements,
           lambda E: {"cat2.total_objects": len(E.total.objects)}),
        Op(key + ".fiber", lambda memo: cat2.fiber_functor(memo[key + ".E"]), verify_fiber),
    ]


def _map_ops(key: str, cat, z) -> list[Op]:
    sweep = [(Z, f) for (c, _), Z in sorted(z.object_part.items()) for f in cat.arrows_into(c)]

    def reindex(memo):
        return [fincat.reindex_slice_presheaf(cat, f, Z) for Z, f in sweep]

    def verify_reindex(out, memo):
        for (Z, f), W in zip(sweep, out):
            W.validate()
            if cat.is_identity(f):
                expect(W == Z, "reindexing along an identity changed the presheaf")
        return len(out)

    return [
        Op(key + ".roundtrip_z", lambda memo: classifier.roundtrip_z(z),
           lambda mod, memo: (expect(mod.is_iso(), "round trip witness is not an iso"),
                              len(mod.components))[1]),
        Op(key + ".reindex", reindex, verify_reindex,
           lambda out: {"fincat.reindex_calls": len(out)}),
    ]


def _ff_op(key: str, z, w, expected: int) -> Op:
    def verify(r, memo):
        expect(r.verdict == PASS, f"ff_check failed: {r.counterexamples[:1]}")
        expect(r.witnesses[0] == ("bijection", expected),
               f"{r.witnesses[0]} modifications, expected {expected}")
        return r.witnesses[0]

    return Op(key, lambda memo: classifier.ff_check(z, w), verify,
              lambda r: {"classifier.omega_mods": r.witnesses[0][1]})


# -- cli-docs ----------------------------------------------------------------------------

# Expected exit code of every shipped (fixture, command) pair whose section
# exists: 0 pass, 1 fail.  Pairs missing here have no section to act on.
FIXTURE_VERDICTS = {
    "fixtures/NonSeparated.site": {
        "validate": 0, "classify": 0, "sheafify": 0, "check-sheaf": 1, "check-stack": 0,
        "check-site": 0, "roundtrip": 0, "ff-check": 0},
    "fixtures/OpenSite.site": {
        "validate": 0, "char": 0, "char-stacks": 0, "sheafify": 0, "check-sheaf": 0,
        "check-stack": 0, "check-site": 0, "roundtrip": 0, "probe-omega-j": 0},
    "fixtures/Pointed.site": {
        "validate": 0, "char": 0, "char-stacks": 0, "check-stack": 0, "check-site": 0,
        "roundtrip": 0},
    "fixtures/WalkingArrow.site": {
        "validate": 0, "classify": 0, "char": 0, "char-stacks": 0, "sheafify": 0,
        "check-sheaf": 0, "check-stack": 0, "check-site": 0, "roundtrip": 0, "ff-check": 0},
    "fixtures/broken/BrokenMaximality.site": {"validate": 0, "check-site": 1},
    "fixtures/broken/BrokenStability.site": {"validate": 0, "check-site": 1},
    "fixtures/broken/BrokenTransitivity.site": {"validate": 0, "check-site": 1},
}
# The generated documents, two variants each: every map, opfibration and
# topology is valid and round-trips; each powerset document holds two
# constant sections, which is not a sheaf (the empty family covers p000).
CHAIN_DOC_MEMBERS = (((7, 10), (4, 8)), ((5, 11), (3, 9)))  # setfunctor_corpus indices
POWERSET_DOC_MEMBERS = ((("R1", 4), ("R7", 10), ("T", 1), ("K2", 2)),  # presheaf_corpus
                        (("R3", 6), ("R5", 8), ("S", 20), ("K2", 2)))
CHAIN_DOC_VERDICTS = {"validate": 0, "classify": 0, "char": 0, "roundtrip": 0, "ff-check": 0}
POWERSET_DOC_VERDICTS = {"validate": 0, "check-site": 0, "check-sheaf": 1, "sheafify": 0}
SMALLEST_FIXTURE = "fixtures/broken/BrokenMaximality.site"
OUTPUT_DIR = ".bench_build"  # generated documents and span files


def _chain_document(rng: random.Random, variant: int) -> str:
    cat = gen.chain_site(5)
    F = prestack.representable(cat, cat.objects[-1])
    el = prestack.elements_category(F)
    bs = corpus.setfunctor_corpus(el, CORPUS_SIZE)
    phis, maps = CHAIN_DOC_MEMBERS[variant]
    b = DocumentBuilder()
    b.category("Chain5", cat)
    for name, i in zip(("phi", "psi"), phis):
        phi = corpus.dopf_from_set_functor(F, gen.relabel_setfunctor(bs[i], rng))
        b.two_nat(name, phi.s, f"{name}.total", "Rep", "Chain5")
    for name, i in zip(("z", "w"), maps):
        z = corpus.map_to_omega_from_set_functor(F, gen.relabel_setfunctor(bs[i], rng))
        b.map_to_omega(name, z, "Rep", "Chain5")
    return docformat.serialize(b.doc)


def _powerset_document(rng: random.Random, variant: int) -> str:
    cat, gens = gen.powerset_site(3)
    topo, _ = site.topology_from_generators(cat, gens)
    zs = corpus.presheaf_corpus(cat, 0)
    b = DocumentBuilder()
    b.category("P3", cat)
    b.topology("J", topo, "P3")
    for name, i in POWERSET_DOC_MEMBERS[variant]:
        b.setpresheaf(name, gen.relabel_presheaf(zs[i], rng), ("cat", "P3"))
    return docformat.serialize(b.doc)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``tck`` in-process: exit code and stdout (stderr carries wall time)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_docs(seed: int) -> Workload:
    rng = random.Random(seed)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=OUTPUT_DIR)
    docs = dict(FIXTURE_VERDICTS)
    for variant in range(2):
        for name, text, verdicts in (
                ("Chain5", _chain_document(rng, variant), CHAIN_DOC_VERDICTS),
                ("Powerset3", _powerset_document(rng, variant), POWERSET_DOC_VERDICTS)):
            path = os.path.join(tmp.name, f"{name}-{variant}.site")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            docs[path] = verdicts
    runs = [(path, cmd, code, flags) for path, table in docs.items()
            for cmd, code in table.items() for flags in ((), ("--json",))]
    ops = [_cli_op(path, cmd, code, flags) for _, (path, cmd, code, flags) in gen.draw(runs, rng)]
    return Workload(ops, cleanup=tmp.cleanup)


def _cli_op(path: str, cmd: str, code: int, flags: tuple[str, ...]) -> Op:
    """One ``tck <cmd> <path> [--json]``: one fresh parse, one run, one render."""
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    verdict = PASS if code == 0 else FAIL

    def verify(result, memo):
        got, out = result
        expect(got == code, f"exit code {got}, expected {code}")
        if flags:
            expect(json.loads(out)["verdict"] == verdict, "JSON verdict")
        else:
            expect(out.startswith(f"command: {cmd}\nverdict: {verdict}\n"), "human report")
        return out

    return Op(f"{os.path.basename(path)}.{cmd}{''.join(flags)}",
              lambda memo: run_cli([cmd, path, *flags]), verify,
              lambda result: {"docformat.lines": lines},
              decided=lambda result: result[0] != 2)  # exit code 2: bounded-pass


def _wall(argv: list[str], env: dict) -> tuple[int, float]:
    """Run argv to its end: exit code and wall seconds.  The wait blocks:
    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round the time up to that step."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    return code, time.perf_counter() - t0


def cli_startup(python: str) -> tuple[int, float, float]:
    """One ``python -m tck.cli validate`` on the smallest fixture, then one
    bare ``python -c pass``: the first's exit code, and each one's seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    code, tck_s = _wall([python, "-m", "tck.cli", "validate", SMALLEST_FIXTURE], env)
    return code, tck_s, _wall([python, "-c", "pass"], env)[1]


WORKLOADS = {
    "site-sheafify": site_sheafify,
    "classify-roundtrip": classify_roundtrip,
    "cli-docs": cli_docs,
}
