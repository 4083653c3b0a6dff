"""tck benchmark: one single-process, closed-loop caller over a fixed,
seeded list of operations (see workloads.py and README.md).

    python3 bench/run.py --workload site-sheafify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a tck checkout; it imports tck from ``src/``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("site-sheafify", "classify-roundtrip", "cli-docs")
SETUP_REPEATS = 5  # at least, and for at least SETUP_MIN_S seconds in all
SETUP_MIN_S = 3.0
# CLI start-ups per timed run, spread evenly over it
STARTUP_SAMPLES = 20
MAX_REPORTED_ERRORS = 5
# exact per-pass counts read from the ops' results, reported by the traced run
COUNTS = (
    "fincat.arrows", "fincat.reindex_calls", "site.covering_sieves", "site.saturated_added",
    "site.plus_sections", "site.sheaves", "cat2.total_objects", "prestack.isos_found",
    "classifier.fibres", "classifier.omega_mods", "stacks.bounded_strata", "docformat.lines",
)


class Runner:
    """Runs ops one at a time, checks each result, keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.undecided: set[str] = set()
        self.fingerprints: dict[str, object] = {}

    def error(self, key: str, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"error: {key}: {what}", file=sys.stderr)

    def run_op(self, op, memo: dict, tracer=None) -> tuple[float, dict]:
        """Time one op, then check it; returns (seconds, exact counts)."""
        from tck.errors import SizeBound

        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.call(memo)
        except SizeBound:
            self.undecided.add(op.key)
            return time.perf_counter() - t0, {}
        except Exception as exc:  # an op must not raise: count it and go on
            self.undecided.add(op.key)
            self.error(op.key, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, {}
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = time.perf_counter() - t0
        if not op.decided(result):
            self.undecided.add(op.key)
        try:
            fingerprint = op.verify(result, memo)
            counts = op.counts(result)
        except Exception as exc:  # a check failed, or cannot read the result
            self.error(op.key, f"{type(exc).__name__}: {exc}")
            return elapsed, {}
        if self.fingerprints.setdefault(op.key, fingerprint) != fingerprint:
            self.error(op.key, "result differs from the first pass")
        return elapsed, counts

    def run_pass(self, tracer=None, between=None) -> tuple[list[tuple[float, float]], dict]:
        """One pass of the op list; returns each op's (start, end) and the
        pass's counts.  ``between`` runs before each op, outside its time."""
        memo: dict = {}
        times = []
        counts: dict[str, int] = {}
        for i, op in enumerate(self.workload.ops):
            if between is not None:
                between()
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            elapsed, got = self.run_op(op, memo, tracer)
            times.append((start, start + elapsed))
            for k, v in got.items():
                counts[k] = counts.get(k, 0) + v
        return times, counts

    def decided_share(self) -> float:
        total = len(self.workload.ops) + len(self.workload.frontier)
        return (total - len(self.undecided)) / total


def setup(name: str, seed: int, host=None):
    """Build the workload repeatedly and keep the last build.  With a
    ``speed.Speed`` to sample the host, also return the median build time
    in the benchmark's seconds (see speed.py)."""
    import workloads

    walls: list[float] = []
    times: list[float] = []
    built = None
    while len(walls) < SETUP_REPEATS or sum(walls) < SETUP_MIN_S:
        if built is not None:
            built.cleanup()
        if host is not None:
            host.sample()
        t0 = time.perf_counter()
        built = workloads.WORKLOADS[name](seed)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if host is not None:
            host.sample()
            times.append(host.ms(t0, t1) / 1000.0)
    return built, (statistics.median(times) if times else None)


def timed_run(name: str, seed: int, seconds: float) -> tuple[Runner, dict]:
    import speed
    import workloads

    host = speed.Speed()
    wl, setup_s = setup(name, seed, host)
    runner = Runner(wl)
    passes: list[list[tuple[float, float]]] = []
    startups: list[float] = []
    bares: list[float] = []
    start = time.perf_counter()

    def startup() -> None:
        runner.attempted += 1
        code, tck_s, bare_s = workloads.cli_startup(sys.executable)
        if code != 0:
            runner.error("cli_startup", f"exit code {code}")
        startups.append(tck_s / bare_s * speed.BARE_START_MS)
        bares.append(bare_s)

    def between() -> None:
        due = len(startups) * seconds / STARTUP_SAMPLES
        if len(startups) < STARTUP_SAMPLES and time.perf_counter() - start >= due:
            startup()
        if host.due():
            host.sample()

    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(between=between)[0])  # whole passes keep the op mix
        if len(passes) == 1:
            # memos keyed by object identity grow with every pass, so a peak
            # taken later would rise with throughput; take it after one pass
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    host.sample()
    while len(startups) < STARTUP_SAMPLES:
        startup()
    for op in wl.frontier:
        runner.run_op(op, {})
    wl.cleanup()
    # An op's latency is the median over the run's passes of its time in the
    # benchmark's ms (speed.py).  Percentiles run over the op list;
    # throughput is one pass at those latencies.
    ms = [statistics.median(host.ms(*p[i]) for p in passes) for i in range(len(wl.ops))]
    metrics = {
        "ops_per_s": (len(wl.ops) * 1000.0 / sum(ms), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "decided_share": (runner.decided_share(), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "cli_startup_ms": (statistics.median(startups), "ms"),
    }
    print(f"# host: reference() median {statistics.median(host.took) * 1000.0:.3f} ms "
          f"(REF_MS {speed.REF_MS}) over {len(host.took)} samples; bare interpreter "
          f"start-up median {statistics.median(bares) * 1000.0:.1f} ms "
          f"(BARE_START_MS {speed.BARE_START_MS})")
    print(f"# {name}: {len(passes)} passes of {len(wl.ops)} timed ops, "
          f"{len(wl.frontier)} frontier ops, {STARTUP_SAMPLES} start-ups; "
          f"error_share {runner.failed / runner.attempted:.6f} ratio")
    return runner, metrics


def traced_run(name: str, seed: int, seconds: float) -> tuple[Runner, dict]:
    """Alternate untraced and traced passes; per-layer numbers are per-pass
    means over the traced ones, overhead compares the two kinds."""
    import spans
    import workloads

    wl, _ = setup(name, seed)
    runner = Runner(wl)
    tracer = spans.Tracer()
    walls = {False: [], True: []}
    counts: dict[str, int] = {}
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                times, got = runner.run_pass(tracer if traced else None)
            finally:
                tracer.uninstall()
            walls[traced].append(sum(end - start for start, end in times))
            if traced:
                tracer.end_pass()
                for k, v in got.items():
                    counts[k] = counts.get(k, 0) + v
    wl.cleanup()
    passes = len(walls[True])
    metrics = {k: (v, "count" if k.endswith(".calls") else "ms")
               for k, v in tracer.summary().items()}
    for k in COUNTS:
        metrics[k] = (counts.get(k, 0) / passes, "count")
    base = statistics.median(walls[False])
    metrics["trace.overhead_pct"] = ((statistics.median(walls[True]) - base) / base * 100.0,
                                     "%")
    os.makedirs(workloads.OUTPUT_DIR, exist_ok=True)
    out = os.path.join(workloads.OUTPUT_DIR, f"spans-{name}-{seed}.tsv")
    tracer.write(out)
    print(f"# {name}: {passes} traced and {len(walls[False])} untraced passes of "
          f"{len(wl.ops)} ops; the first traced pass's {len(tracer.kept)} spans are in {out}")
    return runner, metrics


def run_all(args) -> int:
    """Each workload in its own process, one after the other; the merged
    result prefixes every metric with its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {res.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "tck", "__init__.py")):
        print("error: run from the root of a tck checkout (src/tck not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.abspath("src"), os.path.dirname(os.path.abspath(__file__))]
    run = traced_run if args.trace else timed_run
    runner, metrics = run(args.workload, args.seed, args.seconds)
    for k, (v, unit) in metrics.items():
        print(f"{args.workload}  {k:32s} {v:14.4f} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
