#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of polyufc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polyufc checkout: it builds the CLI and the layer
harness with dune, then drives one workload (see README.md beside this
file).  With --trace 0 it alternates three set-ups with closed loops of
seeded requests, S seconds of them in all, checks every response
against reference.json, and prints the end-to-end metrics, their times
scaled to a reference host speed (see HostSpeed).  With
--trace 1 it prints the per-layer profile instead.  Either way the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

    python3 perfbench/run.py --record

re-answers every request any seed can produce and rewrites
reference.json (after checking served == inline for one request per op).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import daemon  # noqa: E402
import tapes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
EXE = "_build/default/bin/polyufc.exe"
LAYERS = "_build/default/perfbench/layers.exe"
WORK = ".perfbench"
# Each run alternates set-up and timed requests this many times.
SEGMENTS = 3
# The program's peak RSS is read in each window right after this many of
# its timed requests, a number any build within 4x of this one reaches, so
# that it covers the same seeded requests in every run (the daemon's RSS
# grows with requests served, and a faster build serves more).
# peak_rss_mb is the largest of the three readings.
RSS_AT = {"cli-warm": 1, "serve-hits": 150, "serve-cold": 12}

# The last JSON line carries the metrics listed in BENCHMARK.json: all of
# these but UNGATED, which only the report prints.  The tail is not gated
# because on a shared VM the 10 slowest of thousands of 3-5 ms hits are
# the ones a hypervisor preemption (~20 ms, about one a second) landed
# on, and it varied by 50-100 % between runs.
E2E = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("edp_gain_geomean_pct", "%"),
]

UNGATED = {"latency_tail_ms"}

# (metric, unit, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("roofline.campaign_ms.bdw", "ms", "cli-warm latency_p50_ms/throughput_rps; serve-* setup_s"),
    ("roofline.campaign_ms.rpl", "ms", "cli-warm latency_p50_ms/throughput_rps; serve-* setup_s"),
    ("roofline.sim_runs", "count", "cli-warm latency_p50_ms; serve-* setup_s"),
    ("interp.ns_per_access", "ns", "serve-cold latency_p50_ms"),
    ("interp.accesses", "count", "(work count for the ns/access rows)"),
    ("cm.ns_per_access", "ns", "serve-cold latency_p50_ms; serve-hits setup_s"),
    ("cm.ms_per_analysis", "ms", "serve-cold latency_p50_ms; serve-hits setup_s"),
    ("hwsim.cache_ns_per_access", "ns", "cli-warm and serve-cold latency_p50_ms"),
    ("sim.ns_per_access", "ns", "cli-warm latency_p50_ms (the campaign is simulations)"),
    ("sim.multi3_ns_per_access", "ns", "serve-cold latency_tail_ms (analyze_multi)"),
    ("count.decompose_ms", "ms", "serve-cold latency_p50_ms"),
    ("count.eval_us", "us", "serve-hits latency_p50_ms"),
    ("count.points_scanned", "count", "serve-cold latency_p50_ms"),
    ("parse.us", "us", "serve-hits latency_p50_ms"),
    ("tile.us", "us", "serve-hits latency_p50_ms"),
    ("scop.us", "us", "serve-hits latency_p50_ms"),
    ("search.us_per_search", "us", "serve-hits latency_p50_ms (search)"),
    ("flow.compile_ms", "ms", "serve-cold latency_p50_ms (run, analyze_multi)"),
    ("flow.evaluate_ms", "ms", "serve-cold latency_p50_ms (run)"),
    ("fleet.analyze_ms", "ms", "serve-cold latency_tail_ms (analyze_multi)"),
    ("store.mem_hit_us", "us", "serve-hits latency_p50_ms"),
    ("store.disk_hit_us", "us", "cli-warm latency_p50_ms"),
    ("store.miss_us", "us", "serve-cold latency_p50_ms"),
    ("store.write_us", "us", "serve-cold latency_p50_ms"),
    ("store.hit_frac", "fraction", "serve-hits latency_p50_ms"),
    ("serve.frame_us", "us", "serve-hits latency_p50_ms/latency_tail_ms"),
    ("serve.handler_ms", "ms", "serve-hits latency_p50_ms/latency_tail_ms"),
    ("serve.overhead_ms", "ms", "serve-hits latency_p50_ms/latency_tail_ms"),
    ("proc.startup_ms", "ms", "cli-warm latency_p50_ms"),
    ("trace.overhead_pct", "%", "none (discount the per-layer rows by it)"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/polyufc.ml")):
        fail("run from the root of a polyufc checkout (no dune-project or bin/ here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["bin/polyufc.exe", "perfbench/layers.exe", "perfbench/probe.exe"]
    r = subprocess.run(
        ["dune", "build", "--root", ".", *targets],
        stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if r.returncode != 0:
        fail("dune build failed")


def program_env(rundir):
    """The environment the program runs in: no inherited POLYUFC_* knobs,
    crash dumps kept in the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("POLYUFC_", "FAULTSIM"))}
    env["POLYUFC_CRASH_DIR"] = rundir
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spawn(args, env):
    """Run one `polyufc` process to completion: (exit code, stdout, wall s,
    CPU s, peak RSS MiB) — the rusage is this child's alone."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [EXE, *args], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env,
    )
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return p.returncode, out, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def cli_call(r, store, env):
    """A request answered inline by a fresh process; (ok, payload, cpu, rss)."""
    args = tapes.cli_args(r)
    args += ["--no-cache"] if store is None else ["--cache-dir", store, "--jobs", "1"]
    code, out, _, cpu, rss = spawn(args, env)
    try:
        doc = json.loads(out)
    except ValueError:
        return False, "exit %d, unparsable stdout" % code, cpu, rss
    if code != 0 or "error" in doc:
        return False, doc.get("error", "exit %d" % code), cpu, rss
    return True, doc, cpu, rss


class Checker:
    """Compares every response with its reference digest."""

    def __init__(self):
        with open(REFERENCE) as f:
            self.ref = json.load(f)["digests"]
        self.problems = []

    def check(self, r, ok, payload):
        k = tapes.key(r)
        if not ok:
            self.problems.append("%s: error %s" % (k, json.dumps(payload)))
            return False
        want = self.ref.get(k)
        if want is None:
            self.problems.append("%s: no reference digest" % k)
            return False
        if tapes.digest(payload) != want:
            self.problems.append("%s: output differs from the reference" % k)
            return False
        return True


# --- host speed -------------------------------------------------------------

# The host is a share of a machine whose speed swings by up to 1.6x, in
# spells of seconds and phases of minutes, so raw times of the same work
# spread by 20-30 % between runs.  Between requests the client has
# `probe.exe`, a fixed piece of OCaml work that runs no polyufc code,
# time itself (about 1 ms, on the same core).  Each timed figure is
# divided by the host's slowness around it: the median probe time within
# PROBE_WINDOW_S of the interval, over REF_PROBE_MS.  The figures thus
# read as on a host where the probe takes REF_PROBE_MS; a faster program
# still reads faster, as the probe does not change with it.
PROBE = "_build/default/perfbench/probe.exe"
PROBE_EVERY_S = 0.25
PROBES_PER_BURST = 5
PROBE_WINDOW_S = 0.6
REF_PROBE_MS = 1.0


class HostSpeed:
    """Probe times (wall and CPU) with the time each began."""

    def __init__(self):
        self.at, self.wall_ms, self.cpu_ms = [], [], []
        self.last = -math.inf
        self.spent_s = 0.0
        self.proc = None

    def start(self):
        self.proc = subprocess.Popen(
            [PROBE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def stop(self):
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def tick(self, force=False):
        """A burst of probes, if PROBE_EVERY_S has passed since the last
        one or `force`; called between requests, never during one."""
        t = time.perf_counter()
        if not force and t - self.last < PROBE_EVERY_S:
            return
        for _ in range(PROBES_PER_BURST):
            t0 = time.perf_counter()
            self.proc.stdin.write("\n")
            wall, cpu, _ = self.proc.stdout.readline().split()
            self.at.append(t0)
            self.wall_ms.append(float(wall) * 1e3)
            self.cpu_ms.append(float(cpu) * 1e3)
        self.last = time.perf_counter()
        self.spent_s += self.last - t

    def _slowness(self, series, t0, t1):
        i = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        j = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        return statistics.median(series[i:j] or series) / REF_PROBE_MS

    def wall(self, t0, t1):
        """How much slower than the reference the host ran over [t0, t1]."""
        return self._slowness(self.wall_ms, t0, t1)

    def cpu(self, t0, t1):
        """The same for CPU time (steal is not CPU time, contention is)."""
        return self._slowness(self.cpu_ms, t0, t1)


SPEED = HostSpeed()


def stolen_s():
    """Seconds the hypervisor has taken from the core this process runs on."""
    cpu = "cpu%d " % min(os.sched_getaffinity(0))
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(cpu):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


class Phase:
    """Requests of one phase: timings, outcomes, and the EDP gains of the
    panel `run` (the same request, hence the same answer, in every
    workload and run: no seed and no speed-up can move the metric, only
    a changed cap decision can)."""

    def __init__(self):
        # (start, end, busy s) of each timed request; busy adds the
        # client's own work on the response
        self.reqs, self.ok, self.attempted, self.edp = [], 0, 0, []
        self.elapsed_s = self.stolen_s = 0.0
        self.cpu = []  # (start, end, program CPU s) of each timed window
        self.rss_mb = []  # one reading per window
        self.rss_short = 0  # windows that ended before their RSS_AT-th request

    def record(self, checker, r, ok, payload):
        self.attempted += 1
        if checker.check(r, ok, payload):
            self.ok += 1
            if r == tapes.PANEL:
                self.edp.append(payload["evaluation"]["edp_gain"])


def closed_loop(tape, seg, checker, seconds, ph, rss_at):
    """Send requests from the `tape` iterator one at a time to `seg`, at
    least one, until `seconds` have passed; the request in flight at the
    deadline still completes and counts.  The program's peak RSS is read
    right after the window's `rss_at`-th request.  The client's own
    cyclic GC is off meanwhile: a full collection over a long tape pauses
    the client for milliseconds, which would land in the latency tail."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        SPEED.tick(force=True)
        t_start = t_end = time.perf_counter()
        deadline = t_start + seconds
        cpu0, steal0 = seg.cpu_s(), stolen_s()
        sent = 0
        for r in tape:
            t0 = time.perf_counter()
            ok, payload = seg.call(r["op"], r["params"])
            t1 = time.perf_counter()
            ph.record(checker, r, ok, payload)
            sent += 1
            if sent == rss_at:
                ph.rss_mb.append(seg.peak_rss_mb())
            t_end = time.perf_counter()
            ph.reqs.append((t0, t1, t_end - t0))
            if t_end >= deadline:
                break
            SPEED.tick()
        ph.cpu.append((t_start, t_end, seg.cpu_s() - cpu0))
        ph.stolen_s += stolen_s() - steal0
        ph.elapsed_s += t_end - t_start
        SPEED.tick(force=True)
    finally:
        gc.enable()
        gc.unfreeze()


def measure(set_up, tape, checker, seconds, rss_at):
    """SEGMENTS times: set up (timed) with `set_up(i, setup_phase)`, then
    send the tape's next requests until the timed total reaches (i + 1) /
    SEGMENTS of `seconds`, so that a window overrun by multi-second
    requests shortens the next ones.  Interleaving spreads both the
    set-ups and the timed requests over the whole run, so that a slow
    spell of the host falls on a share of each rather than on all of
    one.  Set-ups are returned as (start, end, s less probe time)."""
    setups, setup, ph = [], Phase(), Phase()
    tape = iter(tape)
    for i in range(SEGMENTS):
        SPEED.tick(force=True)
        spent0, t0 = SPEED.spent_s, time.perf_counter()
        seg = set_up(i, setup)
        t1 = time.perf_counter()
        setups.append((t0, t1, t1 - t0 - (SPEED.spent_s - spent0)))
        try:
            window = (i + 1) * seconds / SEGMENTS - ph.elapsed_s
            closed_loop(tape, seg, checker, window, ph, rss_at)
            if len(ph.rss_mb) <= i:
                # a build too slow to reach rss_at: read at the window's end
                ph.rss_mb.append(seg.peak_rss_mb())
                ph.rss_short += 1
        finally:
            seg.stop()
    return setups, setup, ph


# --- workloads ----------------------------------------------------------


class CliSegment:
    """Timed requests answered by fresh processes over one warmed store;
    CPU and peak RSS are those of the run's timed children."""

    def __init__(self, store, env):
        self.store, self.env, self.rss, self.cpu = store, env, [], 0.0

    def call(self, op, params):
        ok, payload, cpu, rss = cli_call({"op": op, "params": params}, self.store, self.env)
        self.cpu += cpu
        self.rss.append(rss)
        return ok, payload

    def cpu_s(self):
        return self.cpu

    def peak_rss_mb(self):
        return max(self.rss)

    def stop(self):
        pass


def run_cli_warm(seed, seconds, rundir, checker):
    warm, tape = tapes.cli_warm(seed)
    env = program_env(rundir)

    def set_up(i, setup):
        store = fresh_dir(os.path.join(rundir, "store%d" % i))
        for r in warm:
            ok, payload, _, _ = cli_call(r, store, env)
            setup.record(checker, r, ok, payload)
            SPEED.tick()
        return CliSegment(store, env)

    return measure(set_up, tape, checker, seconds, RSS_AT["cli-warm"]) + ("child ru_maxrss",)


def start_daemon(rundir, setup_reqs, checker, setup):
    """Start a daemon on a fresh store and answer the set-up requests."""
    d = daemon.Daemon(EXE, fresh_dir(rundir), env=program_env(rundir))
    try:
        ok, pong = d.call("ping", {})
        if not ok or pong.get("pid") != d.pid:
            raise daemon.ServeError("another daemon answers on %s" % d.socket)
        for r in setup_reqs:
            ok, payload = d.call(r["op"], r["params"])
            setup.record(checker, r, ok, payload)
            SPEED.tick()
    except BaseException:
        d.stop()
        raise
    return d


def run_serve(workload):
    def run(seed, seconds, rundir, checker):
        setup_reqs, tape = tapes.TAPES[workload](seed)

        def set_up(i, setup):
            return start_daemon(os.path.join(rundir, "daemon%d" % i), setup_reqs, checker, setup)

        res = measure(set_up, tape, checker, seconds, RSS_AT[workload])
        inline_parity(next(r for r in tape if r["op"] == "analyze"), rundir, checker)
        return res + ("daemon VmHWM",)

    return run


def inline_parity(r, rundir, checker):
    """The inline `--json` stdout of a request the daemon answered must
    match the same reference digest."""
    ok, payload, _, _ = cli_call(r, None, program_env(rundir))
    checker.check(r, ok, payload)


WORKLOADS = {
    "cli-warm": run_cli_warm,
    "serve-hits": run_serve("serve-hits"),
    "serve-cold": run_serve("serve-cold"),
}


def geomean_gain_pct(gains):
    """Geomean EDP gain in percent, through the capped/baseline EDP ratios."""
    if not gains:  # only when the panel failed, and then `correct` is false
        return 0.0
    return 100.0 * (1.0 - math.exp(sum(math.log(1.0 - g) for g in gains) / len(gains)))


def end_to_end(workload, seed, seconds, rundir):
    checker = Checker()
    setups, setup, ph, rss_of = WORKLOADS[workload](seed, seconds, rundir, checker)
    n = len(ph.reqs)
    slow = [SPEED.wall(t0, t1) for t0, t1, _ in ph.reqs]
    raw = sorted((t1 - t0) * 1e3 for t0, t1, _ in ph.reqs)
    lat = sorted((t1 - t0) * 1e3 / f for (t0, t1, _), f in zip(ph.reqs, slow))
    busy_s = sum(b for _, _, b in ph.reqs)
    norm_busy_s = sum(b / f for (_, _, b), f in zip(ph.reqs, slow))
    cpu_s = sum(c for _, _, c in ph.cpu)
    norm_cpu_s = sum(c / SPEED.cpu(t0, t1) for t0, t1, c in ph.cpu)
    if n >= 11:
        tail, tail_label = lat[n - 11], "p%.1f, 10 samples beyond" % (100.0 * (n - 10) / n)
    else:
        tail, tail_label = lat[-1], "max: fewer than 11 samples"
    raw_setup = [s for _, _, s in setups]
    norm_setup = [s / SPEED.wall(t0, t1) for t0, t1, s in setups]
    edp = setup.edp + ph.edp
    values = {
        "setup_s": (statistics.median(norm_setup), "median of %d set-ups; raw %s s" % (
            len(setups), " ".join("%.3f" % s for s in raw_setup))),
        "throughput_rps": (n / norm_busy_s, "%d requests; raw %.3f in %.2f s busy" % (
            n, n / busy_s, busy_s)),
        "latency_p50_ms": (statistics.median(lat), "n=%d; raw %.4f" % (n, statistics.median(raw))),
        "latency_tail_ms": (tail, "%s, n=%d" % (tail_label, n)),
        "cpu_ms_per_req": (norm_cpu_s * 1e3 / n, "n=%d; raw %.4f" % (n, cpu_s * 1e3 / n)),
        "peak_rss_mb": (max(ph.rss_mb), "largest %s of %d windows, each after %d timed requests%s" % (
            rss_of, len(ph.rss_mb), RSS_AT[workload],
            " (%d windows ended before)" % ph.rss_short if ph.rss_short else "")),
        "ok_frac": (ph.ok / ph.attempted, "%d of %d" % (ph.ok, ph.attempted)),
        "edp_gain_geomean_pct": (geomean_gain_pct(edp), "over %d panel run responses" % len(edp)),
    }
    print("workload %s  seed %d  (%d set-up requests, %d failed)" % (
        workload, seed, setup.attempted, setup.attempted - setup.ok))
    print("  host slowness %.4f (median of %d probes, %.4f CPU; times below are scaled by it),"
          " %.1f %% of the timed windows stolen" % (
              statistics.median(SPEED.wall_ms) / REF_PROBE_MS, len(SPEED.at),
              statistics.median(SPEED.cpu_ms) / REF_PROBE_MS, 100 * ph.stolen_s / ph.elapsed_s))
    for name, unit in E2E:
        v, note = values[name]
        print("  %-22s %12.4f %-9s %s%s" % (
            name, v, unit, note, "  (reported, not gated)" if name in UNGATED else ""))
    for p in checker.problems[:20]:
        print("  check failed: " + p)
    attempted = setup.attempted + ph.attempted
    failed = attempted - setup.ok - ph.ok
    return {
        "correct": not checker.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in E2E
            if name not in UNGATED
        },
    }


# --- traced run: the per-layer profile ------------------------------------


def trace_tape(workload, seed):
    """A few analyze requests from the workload's own set-up and tape."""
    warm, tape = tapes.TAPES[workload](seed)
    picked = []
    for r in warm + tape:
        if r["op"] == "analyze" and r not in picked:
            picked.append(r)
    return picked[:6]


HIT_PASSES = 20


def daemon_stats(d):
    ok, stats = d.call("stats", {})
    if not ok or "cache" not in stats:
        fail("the daemon's v2 stats carry no cache object: %s" % json.dumps(stats))
    return stats


def handled_ms(before, after, last, n):
    """Mean time the daemon spent handling each of the `n` requests sent
    between the `before` and `after` stats snapshots, from its own
    serve.request span.  A stats request's span lands in the next
    snapshot, so the `before` request is in after - before and is taken
    out as the `after` request's span (last - after), a request alike."""
    span = [s["spans"]["serve.request"] for s in (before, after, last)]
    if span[1]["count"] - span[0]["count"] != n + 1 or span[2]["count"] - span[1]["count"] != 1:
        fail("the daemon's serve.request span counts do not match the requests sent")
    stats_us = span[2]["total_us"] - span[1]["total_us"]
    return (span[1]["total_us"] - span[0]["total_us"] - stats_us) / n / 1e3


def per_layer(workload, seed, rundir):
    checker = Checker()
    tape = trace_tape(workload, seed)
    tape_file = os.path.join(rundir, "tape.jsonl")
    with open(tape_file, "w") as f:
        for r in tape:
            f.write(json.dumps(dict(r["params"], op=r["op"])) + "\n")
    # the same requests over the socket: cold once, then timed as hits
    setup = Phase()
    d = start_daemon(os.path.join(rundir, "daemon"), tape, checker, setup)
    try:
        hits, hit_ms = Phase(), []
        before = daemon_stats(d)
        for _ in range(HIT_PASSES):
            for r in tape:
                t0 = time.perf_counter()
                ok, payload = d.call(r["op"], r["params"])
                hit_ms.append((time.perf_counter() - t0) * 1e3)
                hits.record(checker, r, ok, payload)
        after = daemon_stats(d)
        last = daemon_stats(d)
    finally:
        d.stop()
    env = program_env(rundir)
    startup = [spawn(["workloads"], env)[2] * 1e3 for _ in range(15)]
    trace_file = os.path.join(WORK, "trace-%s-%d.json" % (workload, seed))
    r = subprocess.run(
        [LAYERS, trace_file, os.path.join(rundir, "layers-store"), tape_file],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
    )
    if r.returncode != 0:
        fail("layer harness exited %d" % r.returncode)
    prof = json.loads(r.stdout)
    m = prof["metrics"]
    cache = after["cache"]
    m["store.hit_frac"] = cache["hits"] / (cache["hits"] + cache["misses"])
    m["serve.overhead_ms"] = statistics.mean(hit_ms) - handled_ms(before, after, last, hits.attempted)
    m["proc.startup_ms"] = statistics.median(startup)
    print("per-layer self time (traced pass, %d requests, trace in %s)" % (prof["requests"], trace_file))
    for row in prof["layers"]:
        print("  %-22s %5d calls %11.2f ms self %11.2f ms total" % (
            row["layer"], row["calls"], row["self_ms"], row["total_ms"]))
    print("per-layer metrics (workload %s, seed %d)" % (workload, seed))
    for name, unit, moves in PER_LAYER:
        print("  %-26s %14.4f %-8s -> %s" % (name, m[name], unit, moves))
    for p in checker.problems[:20]:
        print("  check failed: " + p)
    attempted = setup.attempted + hits.attempted
    failed = attempted - setup.ok - hits.ok
    return {
        "correct": not checker.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER},
    }


# --- reference recording ----------------------------------------------------


def record(rundir):
    """Answer every request once through a daemon and keep its digest; then
    check served == inline for one request per op."""
    reqs = tapes.all_requests()
    digests, served = {}, {}
    d = daemon.Daemon(EXE, fresh_dir(os.path.join(rundir, "daemon")), env=program_env(rundir))
    try:
        for i, r in enumerate(reqs):
            ok, payload = d.call(r["op"], r["params"])
            if not ok:
                fail("%s failed: %s" % (tapes.key(r), payload))
            digests[tapes.key(r)] = tapes.digest(payload)
            served[r["op"]] = served.get(r["op"], r)
            if i % 50 == 0:
                log("recorded %d of %d" % (i + 1, len(reqs)))
    finally:
        d.stop()
    env = program_env(rundir)
    for op, r in sorted(served.items()):
        ok, payload, _, _ = cli_call(r, None, env)
        if not ok or tapes.digest(payload) != digests[tapes.key(r)]:
            fail("inline %s differs from the served payload: %s" % (op, tapes.key(r)))
        log("served == inline: %s" % tapes.key(r))
    with open(REFERENCE, "w") as f:
        json.dump({"digests": dict(sorted(digests.items()))}, f, indent=0, sort_keys=True)
        f.write("\n")
    log("wrote %d digests to %s" % (len(digests), REFERENCE))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    a = ap.parse_args()
    # a terminated run still stops its daemon and children (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not a.record and a.workload is None:
        ap.error("--workload is required")
    build()
    # the client and every program process share one core: a round trip
    # then never waits for the hypervisor to wake an idle second vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rundir = os.path.join(WORK, "run-%d" % os.getpid())
    fresh_dir(rundir)
    try:
        if a.record:
            record(rundir)
            return
        SPEED.start()
        if a.trace:
            result = per_layer(a.workload, a.seed, rundir)
        else:
            result = end_to_end(a.workload, a.seed, a.seconds, rundir)
    finally:
        SPEED.stop()
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
