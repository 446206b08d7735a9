#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <paper-sim|full-sim|served-easy>
                             --seed N --seconds S --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
the benchmark package (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build is current.

The harness binary replays the workload's logs and prints one JSON line per
replay; this script checks every replay's outputs, aggregates the metrics
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics. perfbench/NOTES.md describes
the workloads, the metrics and how steady they are.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sim", "full-sim", "served-easy")
SIMULATORS = ("paper-sim", "full-sim")
BUILD_TIMEOUT_S = 840
# Counter slots that hold times, not counts; every other slot must repeat
# exactly between replays of one log.
TIMING_COUNTERS = {"sched.decision_ns"}
# The host probe's reference time (HostProbe in harness.cpp: one sort of
# 65 536 words on a vCPU next to the workload's). Every time the benchmark
# reports is stated at the host speed where one probe takes this long.
PROBE_REF_S = 0.005
# Fields of the server's final stats line that count decisions or events.
STATS_COUNTS = ("lines", "accepted", "rejected", "decisions", "submitted",
                "finished", "starts", "kills", "migrations", "failures",
                "waiting", "running", "sched.decision_us_count")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail_setup(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then bring the build up to date. Returns the binary dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail_setup("no program sources next to perfbench/ "
                   "(run from the root of a source checkout)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail_setup("build step failed: %s" % exc, 1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail_setup("build failed: " + " ".join(cmd), 1)
    return out


def hist_quantile(hist, q):
    """Quantile of an obs::LogHistogram dump, interpolated geometrically
    inside the bucket that holds the rank. The dump keeps bucket edges and
    counts; the program's own quantile() returns the bucket's midpoint,
    which reads the same on every run."""
    rank = q * hist["count"]
    cum = hist["underflow"]
    if rank <= cum:
        return hist["min"]
    for low, high, count in hist["buckets"]:
        if cum + count >= rank:
            return low * (high / low) ** ((rank - cum) / count)
        cum += count
    return hist["max"]


def walk_phases(tree, path=(), out=None):
    """Flatten a PhaseProfiler dump into [(path tuple, node)]."""
    out = [] if out is None else out
    for node in tree:
        p = path + (node["phase"],)
        out.append((p, node))
        walk_phases(node.get("children", []), p, out)
    return out


def phase_sum(nodes, phase, field, under=None):
    return sum(n[field] for p, n in nodes
               if p[-1] == phase and (under is None or under in p[:-1]))


class Checks:
    """Collects failed checks; each names the replay it condemns."""

    def __init__(self):
        self.failed_replays = set()
        self.messages = []

    def require(self, ok, replay_index, msg):
        if not ok:
            self.failed_replays.add(replay_index)
            self.messages.append(msg)
        return ok


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def counts_of(ep, workload):
    """Every count the replay produced, for the determinism check."""
    if workload in SIMULATORS:
        counters = ep["observability"]["counters"]
        hist = ep["decision_us"]
        counts = {k: v for k, v in counters.items() if k not in TIMING_COUNTERS}
        counts["hist.sched.decision_us.count"] = hist["count"]
        return counts
    if ep["server_stats"] is None or ep["final_stats"] is None:
        return {}  # the server died; the drain check reports it
    counters = ep["server_stats"]["observability"]["counters"]
    counts = {k: v for k, v in counters.items() if k not in TIMING_COUNTERS}
    for k in STATS_COUNTS:
        counts["stats." + k] = ep["final_stats"][k]
    counts["client.events"] = ep["events"]
    counts["client.decisions"] = ep["decisions"]
    return counts


def phase_counts(ep, workload):
    tree = (ep if workload in SIMULATORS else ep["server_stats"])["phases"]["tree"]
    return {"/".join(p): n["count"] for p, n in walk_phases(tree)}


def check_replays(workload, seed, episodes, checks):
    """Every replay of a log must reproduce the log's first replay: same
    checksum or decision digest, same counts; traced replays also the same
    span counts. Where the seed is pinned, each log must match its pin."""
    pins = load_pins().get(workload, {}).get(str(seed), [])
    key = "checksum" if workload in SIMULATORS else "digest"
    firsts = {}
    firsts_traced = {}
    for i, ep in enumerate(episodes):
        first = firsts.setdefault(ep["log"], ep)
        if workload in SIMULATORS:
            checks.require(ep["jobs"] == ep["submitted"], i,
                           "replay %d: %d of %d jobs completed" % (
                               i, ep["jobs"], ep["submitted"]))
        else:
            st = ep["final_stats"] or {}
            checks.require(ep["errors"] == 0 and st.get("rejected") == 0, i,
                           "episode %d: %d error replies" % (i, ep["errors"]))
            checks.require(ep["server_exit_ok"], i,
                           "episode %d: sched_server did not exit cleanly" % i)
            checks.require(st.get("finished") == ep["submitted"]
                           and st.get("waiting") == 0 and st.get("running") == 0,
                           i, "episode %d: machine not drained (%s)" % (
                               i, {k: st.get(k) for k in
                                   ("finished", "waiting", "running")}))
        if ep["log"] < len(pins):
            checks.require(ep[key] == pins[ep["log"]], i,
                           "replay %d (log %d): %s %s != pinned %s" % (
                               i, ep["log"], key, ep[key], pins[ep["log"]]))
        checks.require(ep[key] == first[key], i,
                       "replay %d: %s %s != first replay's %s" % (
                           i, key, ep[key], first[key]))
        a, b = counts_of(first, workload), counts_of(ep, workload)
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        checks.require(not diff, i, "replay %d: counts differ from the first "
                       "replay's: %s" % (i, ", ".join(
                           "%s %s!=%s" % (k, a.get(k), b.get(k)) for k in diff)))
        if ep["traced"] and (workload in SIMULATORS or ep["server_stats"]):
            first_traced = firsts_traced.setdefault(ep["log"], ep)
            checks.require(phase_counts(ep, workload)
                           == phase_counts(first_traced, workload), i,
                           "replay %d: span counts differ from the first "
                           "traced replay's" % i)
            check_span_identities(workload, i, ep, checks)


def check_span_identities(workload, i, ep, checks):
    """Span counts that must equal a count taken without the profiler."""
    if workload in SIMULATORS:
        counters, phases = ep["observability"]["counters"], ep["phases"]
        pairs = [("des.event", counters["driver.events"])]
    else:
        stats = ep["server_stats"]
        counters, phases = stats["observability"]["counters"], stats["phases"]
        pairs = [("svc.event", ep["final_stats"]["accepted"])]
    pairs += [("sched.pass", counters["sched.invocations"]),
              ("sched.predict", counters["predictor.queries"])]
    nodes = walk_phases(phases["tree"])
    for phase, expected in pairs:
        got = phase_sum(nodes, phase, "count")
        checks.require(got == expected, i, "replay %d: %d %s spans, expected "
                       "%d" % (i, got, phase, expected))
    checks.require(phases["dropped"] == 0, i,
                   "replay %d: the profiler dropped spans" % i)


def audit_journal(binary_dir, journal):
    """Strict audit of one journal; returns (violations, codes)."""
    tool = os.path.join(binary_dir, "bgl", "tools", "trace_audit")
    proc = subprocess.run([tool, "--strict", journal], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode not in (0, 1):
        raise RuntimeError("trace_audit failed: " + proc.stderr.strip())
    report = json.loads(proc.stdout)
    codes = {}
    for v in report["violations"]:
        codes[v["code"]] = codes.get(v["code"], 0) + 1
    return len(report["violations"]) + report["dropped_violations"], codes


def metric(value, unit):
    return {"value": value, "unit": unit}


def at_ref(ep):
    """Factor that states a time of replay `ep` at the reference host speed:
    the probe's median over the replay against PROBE_REF_S."""
    return PROBE_REF_S / ep["probe_s"]


def samples_at_ref(lines, kind):
    """A set-up line's samples, each at the reference host speed."""
    return [s * PROBE_REF_S / p for l in lines if l["kind"] == kind
            for s, p in zip(l["samples"], l["probe"])]


def end_to_end(workload, lines, untraced):
    """Every time is first stated at the reference host speed (at_ref); the
    host's speed drifts by up to 2x over minutes, and the probe drifts with
    it. Each log then contributes the median of its replays: throughputs are
    work over the per-log medians' summed time, latency quantiles the mean
    of the per-log medians. Set-up time is the median of its samples."""
    setup = samples_at_ref(lines, "setup")
    sim = workload in SIMULATORS

    def per_log_medians(scale):
        rows = {}  # log -> [(jobs, events, time, p50, p99) per replay]
        for e in untraced:
            k = scale(e)
            if sim:
                row = (e["jobs"], e["observability"]["counters"]["driver.events"],
                       e["wall_s"] * k, hist_quantile(e["decision_us"], 0.50) * k,
                       hist_quantile(e["decision_us"], 0.99) * k)
            else:
                # The client sends its last event once every job has
                # completed; the drain check holds the server's count to the
                # same number.
                row = (e["submitted"], e["events"], e["rtt_s"] * k,
                       e["rtt_p50_us"] * k, e["rtt_p99_us"] * k)
            rows.setdefault(e["log"], []).append(row)
        return [[statistics.median(col) for col in zip(*r)] for r in rows.values()]

    med = per_log_medians(at_ref)
    time_s = sum(m[2] for m in med)
    wall = per_log_medians(lambda e: 1.0)
    if sim:
        samples = untraced[0]["decision_us"]["count"]
        rss_kb = [l["peak_rss_kb"] for l in lines if l["kind"] == "rss"][0]
    else:
        samples = untraced[0]["rtt_samples"]
        rss_kb = statistics.median(e["peak_rss_kb"] for e in untraced)
    probe = [l for l in lines if l["kind"] == "probe"][0]
    log("%s: %d replays of %d logs, median per log; %d+ latency samples per "
        "replay; %d set-up samples; host probe median %.3f ms over %d probes; "
        "at the measured host speed %.1f jobs/s, p50 %.2f us"
        % (workload, len(untraced), len(med), samples, len(setup),
           probe["median_s"] * 1e3, probe["samples"],
           sum(m[0] for m in wall) / sum(m[2] for m in wall),
           statistics.mean(m[3] for m in wall)))
    return {
        "jobs_per_s": metric(sum(m[0] for m in med) / time_s, "1/s"),
        "events_per_s": metric(sum(m[1] for m in med) / time_s, "1/s"),
        "event_us_p50": metric(statistics.mean(m[3] for m in med), "us"),
        "event_us_p99": metric(statistics.mean(m[4] for m in med), "us"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, lines, untraced, traced, binary_dir):
    """Per-layer metrics, each the mean over the traced replays; times are
    at the reference host speed."""
    n = float(len(traced))
    sim = workload in SIMULATORS
    acc = {}

    def add(name, value):
        if name.endswith("_s"):
            value *= k
        acc[name] = acc.get(name, 0.0) + value / n

    for ep in traced:
        k = at_ref(ep)
        if sim:
            counters, tree = ep["observability"]["counters"], ep["phases"]["tree"]
        else:
            obs = ep["server_stats"]
            counters, tree = obs["observability"]["counters"], obs["phases"]["tree"]
        nodes = walk_phases(tree)

        def self_s(phase, under=None):
            return phase_sum(nodes, phase, "self_ns", under) * 1e-9

        def count(phase, under=None):
            return phase_sum(nodes, phase, "count", under)

        attempts = count("sched.migration")
        enums = count("sched.enumerate", under="sched.backfill")
        add("sched.migration.attempts", attempts)
        add("sched.migration.done", counters["sched.migrations"])
        add("sched.migration_s", self_s("sched.migration"))
        add("sched.index_sync_s", self_s("sched.index_sync"))
        add("sched.enumerate_s", self_s("sched.enumerate"))
        add("sched.place_s", self_s("sched.place"))
        add("sched.score_s", self_s("sched.score"))
        add("sched.candidates", counters["sched.candidates_considered"])
        add("sched.mfp_evals", counters["sched.mfp_evaluations"])
        add("sched.backfill_s", self_s("sched.backfill"))
        add("sched.reservation_s", self_s("sched.reservation"))
        add("sched.backfill.enumerations", enums)
        add("sched.backfill.starts", counters["sched.backfill_starts"])
        add("sched.passes", counters["sched.invocations"])
        add("sched.pass_s", phase_sum(nodes, "sched.pass", "total_ns") * 1e-9)
        add("sched.partitions_scanned", counters["sched.partitions_scanned"])
        add("predict.queries", counters["predictor.queries"])
        add("predict.nodes_flagged", counters["predictor.nodes_flagged"])
        add("predict.query_s", self_s("sched.predict"))
        add("obs.trace_events", counters["trace.events"])
        all_self = sum(nd["self_ns"] for _, nd in nodes) * 1e-9
        if sim:
            add("sim.events", counters["driver.events"])
            add("sim.self_s", self_s("des.event"))
            add("svc.events", 0)
            add("svc.self_s", 0)
            add("svc.transport_s", 0)
            add("svc.rejected", 0)
            add("obs.trace_bytes", 0)
            # The harness generates the input once, before any replay, and
            # does nothing inside the timed call.
            add("client.self_s", 0)
            add("unattributed_s", ep["wall_s"] - all_self)
        else:
            svc_total = phase_sum(nodes, "svc.event", "total_ns") * 1e-9
            add("sim.events", 0)
            add("sim.self_s", 0)
            add("svc.events", count("svc.event"))
            add("svc.self_s", self_s("svc.event"))
            add("svc.transport_s", ep["rtt_s"] - svc_total)
            add("svc.rejected", ep["errors"])
            add("obs.trace_bytes", ep["journal_bytes"])
            add("client.self_s", ep["loop_s"] - ep["rtt_s"])
            add("unattributed_s", ep["wall_s"] - ep["loop_s"])
    for ratio, num, den in (
            ("sched.migration.useful_ratio", "sched.migration.done",
             "sched.migration.attempts"),
            ("sched.backfill.useful_ratio", "sched.backfill.starts",
             "sched.backfill.enumerations")):
        acc[ratio] = acc[num] / acc[den] if acc[den] else 0.0

    # torus: the catalog constructor, timed by the harness.
    acc["torus.catalog_build_s"] = statistics.median(samples_at_ref(lines, "catalog"))
    acc["host.probe_s"] = [l for l in lines if l["kind"] == "probe"][0]["median_s"]

    # obs: strict audit of the first traced journal (served-easy only).
    acc["obs.audit_violations"] = 0
    if not sim:
        journal = [e["journal"] for e in traced if e["journal"]][0]
        violations, codes = audit_journal(binary_dir, journal)
        acc["obs.audit_violations"] = violations
        log("served-easy: trace_audit --strict: %d violations %s" % (
            violations, json.dumps(codes, sort_keys=True)))

    # Tracing overhead: median traced time over median untraced time of the
    # same log, averaged over the logs.
    key = "wall_s" if sim else "rtt_s"
    ratios = []
    for lg in sorted({e["log"] for e in traced}):
        t = [e[key] * at_ref(e) for e in traced if e["log"] == lg]
        u = [e[key] * at_ref(e) for e in untraced if e["log"] == lg]
        if u:
            ratios.append(statistics.median(t) / statistics.median(u))
    acc["trace.overhead_ratio"] = statistics.mean(ratios)

    def unit(name):
        for suffix, u in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
            if name.endswith(suffix):
                return u
        return "count"

    return {name: metric(acc[name], unit(name)) for name in sorted(acc)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail_setup("--seed must be >= 0")
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")

    binary_dir = build()
    workdir = os.path.join(binary_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        cmd = [os.path.join(binary_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(binary_dir, "bgl", "tools", "sched_server"),
               "--workdir", workdir]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 2 + 120)
        if proc.returncode != 0:
            fail_setup("harness exited with %d" % proc.returncode, 1)
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
        episodes = [l for l in lines if l["kind"] == "episode"]
        checks = Checks()
        check_replays(args.workload, args.seed, episodes, checks)
        untraced = [e for e in episodes if not e["traced"]]
        traced = [e for e in episodes if e["traced"]]
        if args.trace:
            metrics = per_layer(args.workload, lines, untraced, traced, binary_dir)
        else:
            metrics = end_to_end(args.workload, lines, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sim = args.workload in SIMULATORS
    ops = [e["submitted"] if sim else e["events"] for e in episodes]
    attempted = sum(ops)
    # A replay with an error reply fails its checks, so its operations are
    # all counted here.
    failed = sum(ops[i] for i in checks.failed_replays)
    for msg in checks.messages:
        log("CHECK FAILED: " + msg)
    print(json.dumps({"correct": failed == 0 and not checks.messages,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
