"""Benchmark for posetmatch: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced then traced

Run from the repository root (any directory works; paths are resolved from
this file).  The library is imported from ../src, never from an installed
copy.  With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics.  The
lines before it give each metric with its sample count, the environment and
any failed check.  A full record (and, when traced, every span) is written
to bench/out/.  See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ["dim2-structure", "extensions", "matching", "cli-cold"]
SETUP_REPEATS = 5
MIN_PASSES = 5
# Rounds of the workload in a run's fixed query list; one pass over the list
# takes one to two seconds, so that a run makes many passes.
LIST_ROUNDS = {"dim2-structure": 2, "extensions": 5, "matching": 1, "cli-cold": 3}
PROBE_REPEATS = 5
QUERY_TIMEOUT_S = 60.0
# The calibration job (see calibration_job) runs CALS_PER_PASS times in each
# pass.  Times are scaled by CAL_REF_S over its fastest run, to a host on
# which that is 20 ms; on the 2-vCPU VM the benchmark was written on it was
# 17 to 27 ms from run to run.
CALS_PER_PASS = 4
CAL_LOOPS = 135000
CAL_REF_S = 0.020

# per-layer metrics: (name, unit, how).  "time" metrics are seconds of self
# time per round, "sum" counters are per round, "max" counters the largest
# value seen; the rest are ratios or CLI probes computed separately.
PER_LAYER = [
    ("core.build_s", "s", "time"), ("core.build_calls", "count", "calls:core.build_s"),
    ("decomp.gallai_s", "s", "time"), ("decomp.gallai_calls", "count", "calls:decomp.gallai_s"),
    ("decomp.prime_nodes", "count", "sum"), ("decomp.max_prime_children", "count", "max"),
    ("decomp.tree_depth", "count", "max"),
    ("decomp.dilworth_s", "s", "time"), ("decomp.iwidth_s", "s", "time"),
    ("lecount.le_s", "s", "time"), ("lecount.downset_dp_s", "s", "time"),
    ("lecount.lattice_nodes", "count", "sum"), ("lecount.lattice_bound", "count", "sum"),
    ("lecount.lattice_fill", "ratio", "ratio:lecount.lattice_nodes/lecount.lattice_bound"),
    ("lecount.canon_s", "s", "time"), ("lecount.auts_s", "s", "time"),
    ("occur.count_s", "s", "time"), ("occur.count_calls", "count", "calls:occur.count_s"),
    ("occur.match_induced_s", "s", "time"), ("occur.match_noninduced_s", "s", "time"),
    ("occur.enumerate_s", "s", "time"),
    ("occur.labeled_maps", "count", "sum"),
    ("occur.orbit_ratio", "ratio", "ratio:occur.orbits/occur.orbit_scan"),
    ("sat.build_s", "s", "time"), ("sat.verify_s", "s", "time"),
    ("sat.candidates", "count", "sum"), ("sat.matches", "count", "sum"),
    ("sat.verdict_fail", "count", "sum"),
    ("cli.bare_start_ms", "ms", "probe"), ("cli.import_ms", "ms", "probe"),
    ("cli.invoke_ms", "ms", "probe"),
    ("trace.overhead_frac", "ratio", "overhead"),
]


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout("query ran past %.0f s" % QUERY_TIMEOUT_S)


def plain_call(metric, fn, *args):
    return fn(*args)


def calibration_job():
    """Fixed pure-Python work of about 20 ms that calls no library code, so
    that no change to the library moves it: dict updates on small ints, the
    kind of work the library's own loops do."""
    d = {}
    for i in range(CAL_LOOPS):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return len(d)


class Tracer:
    """Spans around library calls, kept in memory and written out at exit.

    A span is (id, parent id, name, start, end, query); a query's root span
    is named "query:<kind>" and the spans below it name the metric of the
    layer that owns the call.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.query = None

    def call(self, metric, fn, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, metric, start, end, self.query)

    def self_times(self, first):
        """{(query, name): self seconds} over spans[first:]."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for sid, parent, name, start, end, query in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, parent, name, start, end, query in spans:
            out[query, name] += end - start - child_time[sid]
        return out


def run_query(q, call, tracer=None, index=None):
    """Run one query; returns ((ok, answer or error), latency in seconds)."""
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    start = perf_counter()
    try:
        if tracer is None:
            result = (True, q.run(call))
        else:
            tracer.query = index
            result = (True, tracer.call("query:" + q.kind, q.run, call))
    except Exception as exc:  # a failed query is counted, not fatal
        result = (False, "%s: %s" % (type(exc).__name__, exc))
    latency = perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return result, latency


def check_round(queries, results, reference=None):
    """Failure messages, one per failed query.  With a reference (the same
    round run untraced and already checked), an equal answer passes."""
    answers = {q.kind: value for q, (ok, value) in zip(queries, results) if ok}
    failures = []
    for i, (q, (ok, value)) in enumerate(zip(queries, results)):
        if not ok:
            failures.append("%s: %s" % (q.kind, value))
            continue
        try:
            if reference is not None and reference[i] == (True, value):
                message = None
            else:
                message = q.check(value, answers)
        except Exception as exc:  # a crashing check is a failed answer
            message = "check raised %s: %s" % (type(exc).__name__, exc)
        if message:
            failures.append("%s: %s" % (q.kind, message))
    return failures


def child_ms(argv, env):
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (argv[1:], proc.returncode, proc.stderr[-200:]))
    return elapsed * 1000


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n


def median_ms(values):
    return statistics.median(values) * 1000


class Run:
    def __init__(self, args, workloads):
        self.args = args
        self.make_round = workloads.WORKLOADS[args.workload]
        self.workloads = workloads
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures = []
        self.latencies = defaultdict(list)   # kind -> seconds
        self.passes = 0
        self.cal_best = float("inf")   # fastest calibration job, seconds
        self.record = {}

    def new_round(self, r, tmp):
        rng = random.Random("%s/%d/%d" % (self.args.workload, self.args.seed, r))
        workdir = tmp / ("round%d" % r)
        workdir.mkdir()
        return self.make_round(rng, self.workloads.Context(workdir, ROOT, self.env, r))

    def query_list(self, tmp):
        """The run's fixed inputs: LIST_ROUNDS rounds of the workload."""
        return [self.new_round(r, tmp) for r in range(LIST_ROUNDS[self.args.workload])]

    def measure(self, tmp):
        """Passes over the fixed query list until --seconds have passed, and
        at least MIN_PASSES of them.  Every query keeps its fastest pass: a
        shared host's speed swings within milliseconds, and the fastest of
        passes spread over the whole run is the least disturbed.  The first
        pass checks every answer; later passes must repeat it.  Queries
        marked once run and are checked before the passes, untimed.  The
        calibration job runs at CALS_PER_PASS evenly spaced points of each
        pass; its fastest run gives the host's speed in this run."""
        rounds = self.query_list(tmp)
        for queries in rounds:
            once = [q for q in queries if q.once]
            self.count(once, [run_query(q, plain_call)[0] for q in once])
        rounds = [[q for q in queries if not q.once] for queries in rounds]
        first = [None] * len(rounds)
        best = [[float("inf")] * len(queries) for queries in rounds]
        total = sum(map(len, rounds))
        marks = set(range(0, total, max(1, total // CALS_PER_PASS)))
        passes, start = 0, perf_counter()
        while passes < MIN_PASSES or perf_counter() - start < self.args.seconds:
            i = 0
            for r, queries in enumerate(rounds):
                out = []
                for q in queries:
                    if i in marks:
                        t = perf_counter()
                        calibration_job()
                        self.cal_best = min(self.cal_best, perf_counter() - t)
                    out.append(run_query(q, plain_call))
                    i += 1
                results, lat = zip(*out)
                self.count(queries, results, first[r])
                first[r] = first[r] or results
                best[r] = [min(b, t) for b, t in zip(best[r], lat)]
            passes += 1
        self.passes = passes
        for queries, ts in zip(rounds, best):
            for q, t in zip(queries, ts):
                self.latencies[q.kind].append(t)

    def count(self, queries, results, reference=None):
        """Check a round's answers against their checks, or a reference."""
        self.attempted += len(queries)
        self.failures += check_round(queries, results, reference)

    def end_to_end(self, tmp):
        self.measure(tmp)
        usage = resource.RUSAGE_CHILDREN if self.args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        setup = [child_ms([sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload",
                           self.args.workload, "--seed", str(self.args.seed)], self.env) / 1000
                 for _ in range(SETUP_REPEATS)]
        raw = [t for ts in self.latencies.values() for t in ts]
        scale = CAL_REF_S / self.cal_best
        samples = [t * scale for t in raw]
        tail_value, tail_pct = tail(samples)
        n = len(samples)
        scaled = lambda value, unit: "raw %.6g %s x %.4f calibration scale" % (value, unit, scale)
        metrics = [
            ("wall_s", sum(samples), "s",
             "the fixed list of %d queries, each at its fastest of %d passes; " % (n, self.passes)
             + scaled(sum(raw), "s")),
            ("query_p50_ms", median_ms(samples), "ms",
             "median of %d query latencies, each the fastest of %d passes; " % (n, self.passes)
             + scaled(median_ms(raw), "ms")),
            ("query_tail_ms", tail_value * 1000, "ms",
             "p%.1f of %d query latencies, %d samples beyond it; " % (tail_pct, n, min(10, n - 1))
             + scaled(tail(raw)[0] * 1000, "ms")),
            ("peak_rss_mb", peak_mb, "MB",
             "max RSS of the CLI processes" if self.args.workload == "cli-cold"
             else "max RSS of this process"),
            ("setup_s", statistics.median(setup), "s",
             "median of %d fresh processes: interpreter start, imports, the query list's inputs"
             % SETUP_REPEATS),
        ]
        return metrics

    def per_layer(self, tmp):
        """Rounds that run each query untraced and traced back to back, in
        alternating order, then replay the traced calls to split them.
        Rounds go on until --seconds have passed, checks and replays
        included, so a traced run lasts about as long as an untraced one."""
        tracer = Tracer()
        totals = defaultdict(float)
        counts = defaultdict(float)
        plain_sum = traced_sum = 0.0
        r = 0
        start = perf_counter()
        while r == 0 or perf_counter() - start < self.args.seconds:
            queries = self.new_round(r, tmp)
            first = len(tracer.spans)
            plain, traced = [], []
            for i, q in enumerate(queries):
                if (r + i) % 2:
                    traced.append(run_query(q, tracer.call, tracer, i))
                    plain.append(run_query(q, plain_call))
                else:
                    plain.append(run_query(q, plain_call))
                    traced.append(run_query(q, tracer.call, tracer, i))
            plain_results, plain_lat = zip(*plain)
            traced_results, traced_lat = zip(*traced)
            self.count(queries, plain_results)
            self.count(queries, traced_results, reference=plain_results)
            plain_sum += sum(plain_lat)
            traced_sum += sum(traced_lat)
            self.attribute(queries, traced_results, tracer.self_times(first), totals, counts)
            for span in tracer.spans[first:]:
                counts["calls:" + span[2]] += 1
            r += 1
        rounds = r
        probes = {
            "cli.bare_start_ms": [sys.executable, "-c", "pass"],
            "cli.import_ms": [sys.executable, "-c", "import posetmatch.cli"],
            "cli.invoke_ms": [sys.executable, "-m", "posetmatch.cli", "auts", "2 1"],
        }
        metrics = []
        for name, unit, how in PER_LAYER:
            if how == "time":
                value = totals[name] / rounds
            elif how.startswith("calls:"):
                value = (counts[how] + counts[name, "sum"]) / rounds
            elif how == "sum":
                value = counts[name, "sum"] / rounds
            elif how == "max":
                value = counts[name, "max"]
            elif how.startswith("ratio:"):
                num, den = how[6:].split("/")
                value = counts[num, "sum"] / counts[den, "sum"] if counts[den, "sum"] else 0.0
            elif how == "probe":
                value = statistics.median(child_ms(probes[name], self.env)
                                          for _ in range(PROBE_REPEATS))
            else:
                value = traced_sum / plain_sum - 1
            metrics.append((name, value, unit, "per round, %d traced rounds" % rounds
                            if how in ("time", "sum") or how.startswith("calls:") else ""))
        self.record["spans"] = tracer.spans
        return metrics

    def attribute(self, queries, results, self_times, totals, counts):
        """Add a traced round's self times to totals, splitting each compound
        call by the constituent times its replay measured."""
        for (query, name), seconds in self_times.items():
            if not name.startswith("query:"):
                totals[name] += seconds
        for i, (q, (ok, answer)) in enumerate(zip(queries, results)):
            if not ok or q.replay is None:
                continue
            moved = q.replay(answer, counts)
            total = sum(moved.values())
            if not total or q.owner is None:
                continue
            scale = min(1.0, self_times[i, q.owner] / total)
            totals[q.owner] -= total * scale
            for name, seconds in moved.items():
                totals[name] += seconds * scale

    def environment(self):
        import networkx

        commit = None
        if (ROOT / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        digest = hashlib.sha256()
        for path in sorted((SRC / "posetmatch").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return {"workload": self.args.workload, "seed": self.args.seed, "seconds": self.args.seconds,
                "trace": self.args.trace, "python": platform.python_version(),
                "networkx": networkx.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                "commit": commit, "src_sha256": digest.hexdigest()}


def run_one(args, workloads):
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    run = Run(args, workloads)
    try:
        metrics = run.per_layer(tmp) if args.trace else run.end_to_end(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = run.environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print("# ops_failed %d of %d attempted" % (len(run.failures), run.attempted))
    for kind, ts in sorted(run.latencies.items()):
        print("# query %-44s median %10.3f ms  n=%d" % (kind, median_ms(ts), len(ts)))
    for message in run.failures[:20]:
        print("# FAILED " + message)
    for name, value, unit, note in metrics:
        print("%-28s %14.6f %-5s %s" % (name, value, unit, note))
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics}}
    run.record.update(env=env, excluded=workloads.EXCLUDED, result=result,
                      notes={name: note for name, _, _, note in metrics},
                      query_median_ms={k: median_ms(ts) for k, ts in run.latencies.items()},
                      failures=run.failures)
    out = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(run.record))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write("== %s trace=%d (exit %d)\n%s" % (name, trace, proc.returncode, proc.stdout))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary["%s/trace%d" % (name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "posetmatch" / "__init__.py").is_file():
        print("error: %s/posetmatch not found; run from a posetmatch checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        Run(args, workloads).query_list(tmp)
        shutil.rmtree(tmp)
        os._exit(0)
    if args.workload is None:
        return run_all(args)
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
