#!/usr/bin/env python3
"""The repository benchmark: one seeded command per (workload, trace) run.

    python3 perfbench/run.py --workload {bulk,service,paper} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree.  The first run configures and builds
perfbench/ (which adds the repository as a subproject) into .bench_build/;
later runs only re-check the build.  Workloads:

  bulk     one caller thread in a closed loop over three calls per
           iteration: CampaignEngine (PRT-ext BOM on van_de_goor_universe
           (4096)), MarchCampaign (March C-, same universe) and one
           CampaignSuite (m in {1, 4} x n in {256, 1024}).
  service  one CampaignService; one client submits batch-priority
           whole-universe requests, the others a seeded stream of thin
           interactive requests; every client blocks on its ticket.
  paper    the ten paper programs, in sequence, tables only.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
makes the traced run: the workload untraced, traced, untraced and traced
over the same fixed work (the difference is the tracing overhead), then
the per-layer drive, a traced service stream and a traced paper pass.  Their
spans are merged into one Chrome trace-event file under .bench_build/
(opens in Perfetto) and every per-layer metric is computed from them.

Every output is checked; a failed check counts against `failed`, makes
`correct` false and the exit code 1.  The last stdout line is the result
object; the lines before it are the human-readable report.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
REFERENCE = os.path.join(BENCH_DIR, "reference")
METRICS = os.path.join(BENCH_DIR, "metrics.json")

PROGRAMS = [
    "tab_fault_coverage", "tab_markov", "tab_ablation", "tab_complexity",
    "tab_multiplier", "tab_overhead", "tab_trajectory", "fig1a_bom_states",
    "fig1b_wom_states", "fig2_dualport",
]
# Environment overrides the benchmark must not inherit: the measured lane
# width and worker counts are what today's defaults and options pick.
SCRUBBED_ENV = ("PRT_LANES", "PRT_THREADS")

# The paper workload's set-up: untimed passes whose median is setup_s.
PAPER_WARMUP_PASSES = 3
# Fixed work of the traced run's untraced/traced pair and traced passes.
TRACED_BULK_ITERATIONS = 2
TRACED_SERVICE_REQUESTS = 500

# Chrome trace pids of the traced run's parts (the bulk pass writes pid 1).
PID_LAYERS, PID_SERVICE, PID_PAPER = 2, 3, 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- statistics ----------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    s = sorted(values)
    if not s:
        raise BenchError("percentile of no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


# --- build ---------------------------------------------------------------

def clean_env():
    env = dict(os.environ)
    for key in SCRUBBED_ENV:
        env.pop(key, None)
    # Compiler and program temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no source tree at {ROOT} (CMakeLists.txt and src/ "
                         "are needed next to perfbench/)")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(min(4, nproc())),
           "--target", "perfbench", *PROGRAMS]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def cmake_cache():
    entries = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                entries[key.split(":")[0]] = value
    return entries


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def meta(args, env, workers):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = "unknown"
    try:
        revision = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unavailable (not a git checkout)"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "workload": args.workload,
        "seed": args.seed if args.workload != "paper" else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "source_sha256": source_digest(),
        "hardware_concurrency": os.cpu_count(),
        "nproc": nproc(),
        "workers": workers,
        "compiler": f"{compiler}: {version}",
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
    }


# --- running the perfbench binary ------------------------------------------

def run_perfbench(mode, args, env, workers, workdir, extra, trace_path=None):
    out = os.path.join(workdir, f"{mode}.json")
    cmd = [os.path.join(BUILD, "perfbench"), mode, "--seed", str(args.seed),
           "--threads", str(workers), "--workdir", workdir, "--out", out,
           *extra]
    if trace_path:
        cmd += ["--trace", trace_path]
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    # Exit code 1 means failed output checks, which the result records.
    if proc.returncode not in (0, 1) or not os.path.isfile(out):
        raise BenchError(f"perfbench {mode} exited {proc.returncode} "
                         "without a result")
    with open(out) as f:
        return json.load(f)


# --- paper -----------------------------------------------------------------

def paper_fault_simulations():
    """Faults simulated per paper pass, read off the reference coverage
    tables: each table's TOTAL fault count times its algorithm columns."""
    total = 0
    for program in PROGRAMS:
        with open(os.path.join(REFERENCE, program + ".txt")) as f:
            header = None
            for line in f:
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if line.startswith("| fault class"):
                    header = cells
                elif header and "faults" in header and cells[0] == "TOTAL":
                    columns = sum(1 for c in header if c.endswith("%"))
                    total += int(cells[header.index("faults")]) * columns
                    header = None
    return total


def paper_pass(env, references, spans=None):
    """Runs the ten programs in sequence.  Returns (pass seconds,
    per-program seconds, peak child RSS in KiB, failures)."""
    per_program = {}
    peak_kib = 0
    failures = []
    start = time.perf_counter()
    for program in PROGRAMS:
        begin_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [os.path.join(BUILD, "prt", program), "--benchmark_filter=^$"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - t0
        end_ns = time.monotonic_ns()
        proc.stdout.close()
        per_program[program] = seconds
        peak_kib = max(peak_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            failures.append(f"{program} exited {proc.returncode}")
        elif output != references[program]:
            failures.append(f"{program} output differs from "
                            f"perfbench/reference/{program}.txt")
        if spans is not None:
            spans.append(("bench." + program, begin_ns, end_ns, PID_PAPER))
    return time.perf_counter() - start, per_program, peak_kib, failures


def load_references():
    refs = {}
    for program in PROGRAMS:
        with open(os.path.join(REFERENCE, program + ".txt"), "rb") as f:
            refs[program] = f.read()
    return refs


# --- end-to-end metrics ------------------------------------------------------

def e2e_bulk(args, env, workers, workdir):
    r = run_perfbench("bulk", args, env, workers, workdir,
                   ["--seconds", str(args.seconds)])
    calls = r["calls"]
    iterations = [calls[i:i + 3] for i in range(0, len(calls), 3)]
    if not iterations or len(calls) % 3 != 0:
        raise BenchError("bulk run made no complete iteration")
    iter_s = r["iteration_s"]
    faults_rate = [sum(c["faults"] for c in it) / s
                   for it, s in zip(iterations, iter_s)]
    ops_rate = [sum(c["ops"] for c in it) / s / 1e9
                for it, s in zip(iterations, iter_s)]
    # Latency is that of the ROADMAP's reference call.  An iteration-level
    # p99 would hinge on whether one rare suite straggler lands in the run.
    engine_ms = [c["seconds"] * 1e3 for c in calls if c["kind"] == "analysis.engine"]
    n_it = len(iter_s)
    report = [
        ("setup_s", median(r["setup_s"]), "s", f"median of {len(r['setup_s'])} set-ups"),
        ("faults_per_s", median(faults_rate), "faults/s", f"median of {n_it} iterations"),
        ("gops_per_s", median(ops_rate), "Gops/s", f"median of {n_it} iterations"),
        ("latency_p50_ms", percentile(engine_ms, 50), "ms",
         f"p50 of {len(engine_ms)} CampaignEngine::run calls"),
        ("latency_p99_ms", percentile(engine_ms, 99), "ms",
         f"p99 of {len(engine_ms)} CampaignEngine::run calls"),
        ("paper_s", median(iter_s), "s", f"median of {n_it} iterations (one full result set)"),
        ("peak_rss_mb", r["peak_rss_kib"] / 1024, "MB", "process peak"),
    ]
    for kind in ("analysis.engine", "analysis.march", "analysis.suite"):
        s = [c["seconds"] for c in calls if c["kind"] == kind]
        report.append((kind + "_s", median(s), "s", f"median of {len(s)} calls"))
    return report, r["attempted"], r["failed"], r["check_messages"]


def e2e_service(args, env, workers, workdir):
    r = run_perfbench("service", args, env, workers, workdir,
                   ["--seconds", str(args.seconds)])
    reqs = r["requests"]
    interactive = [q for q in reqs if not q["background"]]
    background = [q for q in reqs if q["background"]]
    if not interactive or not background:
        raise BenchError("service run completed no interactive or no "
                         "background request")
    wall = r["wall_s"]
    lat = [q["latency_s"] * 1e3 for q in interactive]
    # Background requests alternate PRT-ext and March C- over one universe;
    # a consecutive pair is one full result set (and a median over single
    # requests would sit between the two algorithms' latencies).
    pairs = [background[i]["latency_s"] + background[i + 1]["latency_s"]
             for i in range(0, len(background) - 1, 2)]
    if not pairs:
        raise BenchError("service run completed no background pair")
    report = [
        ("setup_s", median(r["setup_s"]), "s", f"median of {len(r['setup_s'])} set-ups"),
        ("faults_per_s", sum(q["faults"] for q in reqs) / wall, "faults/s",
         f"{len(reqs)} requests over {wall:.2f} s"),
        ("gops_per_s", sum(q["ops"] for q in reqs) / wall / 1e9, "Gops/s",
         f"{len(reqs)} requests over {wall:.2f} s"),
        ("latency_p50_ms", percentile(lat, 50), "ms", f"p50 of {len(lat)} interactive requests"),
        ("latency_p99_ms", percentile(lat, 99), "ms", f"p99 of {len(lat)} interactive requests"),
        ("paper_s", median(pairs), "s",
         f"median of {len(pairs)} background PRT-ext + March C- pairs"),
        ("peak_rss_mb", r["peak_rss_kib"] / 1024, "MB", "process peak"),
        ("requests_per_s", len(interactive) / wall, "1/s", "interactive"),
    ]
    return report, r["attempted"], r["failed"], r["check_messages"]


def e2e_paper(args, env):
    refs = load_references()
    failures = []
    warm, peak = [], 0
    for _ in range(PAPER_WARMUP_PASSES):
        seconds, _, pass_peak, bad = paper_pass(env, refs)
        warm.append(seconds)
        peak = max(peak, pass_peak)
        failures += bad
    passes, programs = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        seconds, per_program, pass_peak, bad = paper_pass(env, refs)
        passes.append(seconds)
        programs.append(per_program)
        peak = max(peak, pass_peak)
        failures += bad
    lat = [s * 1e3 for s in passes]
    sims = paper_fault_simulations()
    report = [
        ("setup_s", median(warm), "s", f"median of {len(warm)} warm-up passes"),
        ("faults_per_s", sims / median(passes), "faults/s",
         f"{sims} fault simulations per pass, median of {len(passes)} passes"),
        ("latency_p50_ms", percentile(lat, 50), "ms", f"p50 of {len(lat)} passes"),
        ("latency_p99_ms", percentile(lat, 99), "ms", f"p99 of {len(lat)} passes"),
        ("paper_s", median(passes), "s", f"median of {len(passes)} passes"),
        ("peak_rss_mb", peak / 1024, "MB", "largest child process peak"),
    ]
    for program in PROGRAMS:
        report.append((f"bench.{program}_s", median([p[program] for p in programs]),
                       "s", f"median of {len(programs)} launches"))
    attempted = len(PROGRAMS) * (len(passes) + len(warm))
    return report, attempted, len(failures), failures


# --- traced run ----------------------------------------------------------------

def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def python_events(spans):
    events = [{"name": "process_name", "ph": "M", "pid": PID_PAPER, "tid": 0,
               "args": {"name": "paper"}}]
    for i, (name, begin_ns, end_ns, pid) in enumerate(spans):
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "pid": pid, "tid": 1, "ts": begin_ns / 1e3,
                       "dur": (end_ns - begin_ns) / 1e3,
                       "args": {"id": i + 1, "parent": 0, "req": 0}})
    return events


def self_times(events):
    """Self time (us) of every span: its duration minus its children's."""
    child = {}
    for e in events:
        key = (e["pid"], e["args"]["parent"])
        child[key] = child.get(key, 0.0) + e["dur"]
    return [e["dur"] - child.get((e["pid"], e["args"]["id"]), 0.0)
            for e in events]


def layer_metrics(events, workers, service_result, overhead):
    """Per-layer metrics from the merged spans.  Returns (metrics, sample
    counts, spans with their self time)."""
    events = [e for e in events if e.get("ph") == "X"]
    spans = [dict(e, self=s) for e, s in zip(events, self_times(events))]
    by_name = {}
    for s in spans:
        by_name.setdefault((s["pid"], s["name"]), []).append(s)
    m, n = {}, {}

    def pick(pid, name, where=lambda s: True, **args):
        found = [s for s in by_name.get((pid, name), []) if where(s) and
                 all(s["args"].get(k) == v for k, v in args.items())]
        if not found:
            raise BenchError(f"no matching {name} span in the trace")
        return found

    def put(metric, value, found):
        m[metric] = value
        n[metric] = len(found)

    def total_self(metric, pid, name):
        found = pick(pid, name)
        put(metric, sum(s["self"] for s in found) / 1e6, found)

    def mean_dur(metric, pid, name, scale, **args):
        found = pick(pid, name, **args)
        put(metric, sum(s["dur"] for s in found) / len(found) * scale, found)

    def median_dur(metric, pid, name, scale, where=lambda s: True):
        found = pick(pid, name, where)
        put(metric, median([s["dur"] for s in found]) * scale, found)

    def gops(metric, pid, names, **args):
        found = [s for name in names for s in pick(pid, name, **args)]
        put(metric, sum(s["args"]["ops"] for s in found) /
            (sum(s["dur"] for s in found) / 1e6) / 1e9, found)

    L, S, P = PID_LAYERS, PID_SERVICE, PID_PAPER
    total_self("mem.universe_s", L, "mem.universe")
    total_self("mem.inject_s", L, "mem.inject")
    total_self("core.oracle_s", L, "core.oracle")
    total_self("core.transcript_s", L, "core.transcript")
    for kind in ("bom", "wom", "abort"):
        for w in (64, 512):
            total_self(f"core.replay_{kind}_w{w}_s", L, f"core.replay_{kind}_w{w}")
    for w in (64, 512):
        gops(f"core.replay_gops_w{w}", L, [f"core.replay_bom_w{w}"])
    total_self("march.transcript_s", L, "march.transcript")
    for w in (64, 512):
        total_self(f"march.replay_w{w}_s", L, f"march.replay_w{w}")
    mean_dur("analysis.cache_miss_ms", L, "analysis.cache_miss", 1e-3)
    mean_dur("analysis.cache_hit_us", L, "analysis.cache_hit", 1.0)
    mean_dur("analysis.merge_ms", L, "analysis.merge", 1e-3)
    for call in ("engine", "march", "suite"):
        mean_dur(f"analysis.{call}_s", L, f"analysis.{call}", 1e-6,
                 workers=workers)
    for call in ("engine", "suite"):
        one = pick(L, f"analysis.{call}", workers=1)
        put(f"analysis.{call}_speedup",
            sum(s["dur"] for s in one) / len(one) / 1e6 / m[f"analysis.{call}_s"],
            one)
    gops("analysis.gops_per_s", L,
         ["analysis.engine", "analysis.march", "analysis.suite"], workers=workers)

    median_dur("analysis.service.submit_us", S, "analysis.service.submit", 1.0)

    def interactive(s):
        return s["args"]["background"] == 0

    classes = {
        "f64": lambda s: interactive(s) and s["args"]["faults"] == 64,
        "f256": lambda s: interactive(s) and s["args"]["faults"] == 256,
        "f1024": lambda s: interactive(s) and s["args"]["faults"] == 1024,
        "cache_miss": lambda s: s["args"]["cache_miss"] == 1,
        "checkpointed": lambda s: s["args"]["checkpointed"] == 1,
        "early_abort": lambda s: interactive(s) and s["args"]["early_abort"] == 1,
        "bulk": lambda s: not interactive(s),
    }
    for name, where in classes.items():
        median_dur(f"analysis.service.latency_ms.{name}", S,
                   "analysis.service.request", 1e-3, where)
    # Identical requests share one synchronous re-run, so the ratio is
    # over the requests that were re-run.
    sync = {s["args"]["req"]: s["dur"] for s in pick(S, "analysis.sync")}
    paired = pick(S, "analysis.service.request",
                  lambda s: interactive(s) and s["args"]["req"] in sync)
    put("analysis.service.overhead", sum(s["dur"] for s in paired) /
        sum(sync[s["args"]["req"]] for s in paired), paired)
    reqs = service_result["requests"]
    put("analysis.service.gops_per_s",
        sum(q["ops"] for q in reqs) / service_result["wall_s"] / 1e9, reqs)
    stats = service_result["stats"]
    lookups = stats["cache_hits"] + stats["cache_misses"]
    m["analysis.service.cache_hit_ratio"] = (
        stats["cache_hits"] / lookups if lookups else 1.0)
    for name in ("checkpoint_writes", "rejected", "shedded", "retries"):
        m[f"analysis.service.{name}"] = stats[name]

    pool = pick(L, "util.pool_batches")
    put("util.pool_batch_us", sum(s["dur"] for s in pool) /
        sum(s["args"]["batches"] for s in pool), pool)
    mean_dur("util.durable_write_ms", L, "util.durable_write", 1e-3)
    for program in PROGRAMS:
        mean_dur(f"bench.{program}_s", P, f"bench.{program}", 1e-6)
    m.update(overhead)
    return m, n, spans


def layer_table(spans):
    """Self time and span count per layer (the name's first component)."""
    rows = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        t, n = rows.get(layer, (0.0, 0))
        rows[layer] = (t + s["self"] / 1e6, n + 1)
    return rows


def traced_run(args, env, workers, workdir):
    attempted = failed = 0
    messages = []

    def perfbench(mode, extra, traced):
        """Runs one perfbench mode; returns (result, trace file or None)."""
        nonlocal attempted, failed
        path = os.path.join(workdir, f"{mode}.trace.json") if traced else None
        r = run_perfbench(mode, args, env, workers, workdir, extra, path)
        attempted += r["attempted"]
        failed += r["failed"]
        messages.extend(r["check_messages"])
        return r, path

    def paper(traced):
        nonlocal attempted, failed
        spans = [] if traced else None
        seconds, _, _, bad = paper_pass(env, refs, spans)
        attempted += len(PROGRAMS)
        failed += len(bad)
        messages.extend(bad)
        return seconds, spans

    refs = load_references()
    fixed = {"bulk": ["--iterations", str(TRACED_BULK_ITERATIONS)],
             "service": ["--requests", str(TRACED_SERVICE_REQUESTS)]}
    # The same fixed work untraced, traced, untraced, traced: alternating
    # keeps slow drift of the host from reading as tracing overhead.  The
    # last traced pass is the one kept in the trace.
    totals = {False: 0.0, True: 0.0}
    kept = None
    for traced in (False, True, False, True):
        if args.workload == "paper":
            seconds, kept_pass = paper(traced)
        else:
            r, path = perfbench(args.workload, fixed[args.workload], traced)
            seconds = (sum(r["iteration_s"]) if args.workload == "bulk"
                       else r["wall_s"])
            kept_pass = (r, path)
        totals[traced] += seconds
        if traced:
            kept = kept_pass
    overhead = {"trace.untraced_s": totals[False], "trace.traced_s": totals[True],
                "trace.overhead": totals[True] / totals[False] - 1.0}

    # Every per-layer metric comes from the layer drive, a traced service
    # stream and a traced paper pass, whichever workload this run is for.
    trace_files = []
    if args.workload == "paper":
        paper_spans = kept
    else:
        trace_files.append(kept[1])
        paper_spans = paper(True)[1]
    if args.workload == "service":
        service_result = kept[0]
    else:
        service_result, path = perfbench("service", fixed["service"], True)
        trace_files.append(path)
    trace_files.append(perfbench("layers", [], True)[1])

    # Each perfbench mode writes its own pid (bulk 1, layers 2, service 3);
    # run.py's paper spans use PID_PAPER.
    events = []
    for path in trace_files:
        events += load_trace(path)
    events += python_events(paper_spans)
    metrics, counts, spans = layer_metrics(events, workers, service_result,
                                           overhead)
    trace_out = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
    with open(trace_out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    return metrics, counts, spans, attempted, failed, messages, trace_out


# --- main ------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "service", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = clean_env()
    workers = min(4, nproc())
    build(env)
    with open(METRICS) as f:
        spec = json.load(f)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        info = meta(args, env, workers)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("meta " + json.dumps(info, sort_keys=True))
        if args.trace == 0:
            if args.workload == "bulk":
                report, attempted, failed, messages = e2e_bulk(args, env, workers, workdir)
            elif args.workload == "service":
                report, attempted, failed, messages = e2e_service(args, env, workers, workdir)
            else:
                report, attempted, failed, messages = e2e_paper(args, env)
            wanted = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {name: value for name, value, _, _ in report}
            for name, value, unit, samples in report:
                print(f"  {name:<28} {value:>16.6g} {unit:<10} ({samples})")
        else:
            (values, counts, spans, attempted, failed, messages,
             trace_out) = traced_run(args, env, workers, workdir)
            wanted = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for layer, (t, n) in sorted(layer_table(spans).items()):
                print(f"  layer {layer:<10} self {t:12.6f} s  spans {n}")
            for name in wanted:
                samples = f"  ({counts[name]} samples)" if name in counts else ""
                print(f"  {name:<40} {values.get(name, math.nan):>16.6g} "
                      f"{units[name]}{samples}")
            print(f"  trace file: {os.path.relpath(trace_out, ROOT)}")
        if messages and failed == 0:
            failed = 1  # a set-up check failed outside any operation
        share = failed / attempted if attempted else 1.0
        print(f"  {'failed_share':<28} {share:>16.6g} ratio      "
              f"({failed} of {attempted} operations)")
        for msg in messages:
            print(f"  check failed: {msg}")
        missing = [n for n in wanted if n not in values]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        correct = failed == 0 and attempted > 0
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
