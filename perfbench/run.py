#!/usr/bin/env python3
"""sasynthd benchmark: drives a real daemon over loopback TCP and checks every
response against golden digests (perfbench/README.md has the definitions).

    python3 perfbench/run.py --workload cold-layers|hot-bursts|mixed-open \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds sasynthd and perfbench_tool from source
under .bench_build/, prints a few informational lines and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import random
import re
import selectors
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pool  # noqa: E402

HERE = pool.HERE
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
SASYNTHD = os.path.join(BUILD, "tools", "sasynthd")
TOOL = os.path.join(BUILD, "perfbench_tool")
NPROC = len(os.sched_getaffinity(0))
CONNECTIONS = min(4, NPROC)
SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
COLD_SPAWNS = 60         # daemon spawns per cold-layers run, for setup_s
HIT_PROBES = 200         # unpipelined hits timed for transport.overhead_us
STALL_GAP_MS = 30.0      # burst_stall_ratio: a gap this long is a stall
DUP_PAIRS = 15           # mixed-open: sweep misses sent as duplicate pairs
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)
TAIL_WINDOW = 1000       # samples per tail window (see tail())
QUEUE_LIMIT = 64         # sasynthd's default --queue; beyond it, `retry`
FILL_BURST = 16          # warm-fill requests per pipelined write
# mixed-open, the open loop: offered rate, the latency limit rate_per_s
# counts against, and the generator tails beyond which a run is invalid.
# It is not in BENCHMARK.json: on a host whose capacity swings between one
# and four cores, its latencies spread too far between runs (README.md).
MIXED_RATE = 400.0
MIXED_SLO_MS = 50.0
MIXED_LATE_LIMIT_MS = 5.0
MIXED_POOL_WAIT_LIMIT_MS = 20.0


class BenchError(Exception):
    pass


def now():
    return time.perf_counter()


# Set after the build: no traffic loop may run past it, so a hung daemon
# fails the run instead of hanging it.
WATCHDOG = [float("inf")]


def watchdog():
    if now() > WATCHDOG[0]:
        raise BenchError("run took too long; daemon hung?")


# ---------------------------------------------------------------- build ---

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j", str(NPROC),
                      "--target", "sasynthd", "perfbench_tool"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                raise BenchError(f"build failed, see {log_path}")


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_revision():
    """git revision when the checkout is a repository, else a digest of the
    sources the build reads."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    parts = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    parts.append(os.path.relpath(path, ROOT) + ":" +
                                 pool.digest(f.read().decode("latin-1")))
    return "tree-" + pool.digest("\n".join(parts))[:16]


def host_block(seed):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    burn = json.loads(subprocess.run([TOOL, "burn"], capture_output=True,
                                     text=True, check=True).stdout)
    return {"nproc": NPROC, "cpu_burn": burn,
            "compiler": version[0] if version else compiler,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
            "revision": source_revision(), "seed": seed}


# --------------------------------------------------------------- daemon ---

def split_response(buf):
    """(response, rest) when buf holds a whole `end`-terminated response."""
    if buf.startswith(b"end\n"):
        return buf[:4], buf[4:]
    i = buf.find(b"\nend\n")
    if i < 0:
        return None, buf
    return buf[:i + 5], buf[i + 5:]


class Conn:
    """One client connection: a blocking socket plus a response framer."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, text):
        self.sock.sendall(text.encode())

    def feed(self):
        """Reads once; returns the whole responses now buffered."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk
        out = []
        while True:
            resp, self.buf = split_response(self.buf)
            if resp is None:
                return out
            out.append(resp.decode())

    def roundtrip(self, text):
        self.send(text)
        got = []
        while not got:
            got = self.feed()
        return got[0]

    def close(self):
        self.sock.close()


class Daemon:
    """A sasynthd with default flags plus --port 0, from spawn to shutdown."""

    def __init__(self, trace_path=None):
        t0 = now()
        args = [SASYNTHD, "--port", "0"]
        if trace_path:
            args += ["--trace-out", trace_path]
        self.log = open(os.path.join(RUN_DIR, "sasynthd.log"), "a")
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        m = re.match(r"sasynthd listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.port = int(m.group(1))
        if self.command("ping") != "sasynth-pong v1\nend\n":
            self.stop()
            raise BenchError("daemon did not answer ping")
        self.spawn_s = now() - t0

    def command(self, cmd):
        conn = Conn(self.port)
        try:
            return conn.roundtrip(cmd + "\n")
        finally:
            conn.close()

    def stats(self):
        text = self.command("stats --format=json")
        return json.loads(text[:-len("end\n")])

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def stop(self):
        try:
            if self.proc.poll() is None:
                self.command("shutdown")
            self.proc.wait(timeout=60)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


# ---------------------------------------------------------- traffic -------

def run_serial(port, requests, records):
    """Closed loop, one connection, one request in flight."""
    conn = Conn(port)
    try:
        for req in requests:
            watchdog()
            t0 = now()
            resp = conn.roundtrip(req)
            records.append({"req": req, "resp": resp, "ms": (now() - t0) * 1e3})
    finally:
        conn.close()


def run_bursts(port, bursts_for, stop_at, records, bursts):
    """Closed loop over CONNECTIONS connections: each writes one burst as a
    single pipelined write, waits for all its responses, and repeats until
    stop_at. bursts_for(c) yields connection c's bursts (lists of requests).

    A burst starts only when the requests in flight across all connections
    stay within QUEUE_LIMIT, as a client honouring the daemon's admission
    bound would; the wait for room is not part of any latency."""
    sel = selectors.DefaultSelector()
    state, waiting = {}, []
    inflight = [0]

    def start(conn):
        st = state[conn]
        if "next" not in st and now() < stop_at:
            st["next"] = next(st["gen"], None)
        reqs = st.get("next")
        if reqs is None or now() >= stop_at:
            sel.unregister(conn.sock)
            conn.close()
            del state[conn]
            return
        if inflight[0] + len(reqs) > QUEUE_LIMIT:
            waiting.append(conn)
            return
        del st["next"]
        inflight[0] += len(reqs)
        st.update(reqs=reqs, got=[], t0=now())
        conn.send("".join(reqs))

    conns = [Conn(port) for _ in range(CONNECTIONS)]
    for c, conn in enumerate(conns):
        state[conn] = {"gen": bursts_for(c)}
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    for conn in conns:
        start(conn)
    try:
        while state:
            watchdog()
            for key, _ in sel.select(timeout=1):
                conn = key.data
                st = state[conn]
                resps = conn.feed()
                t = now()
                inflight[0] -= len(resps)
                st["got"] += [(r, t) for r in resps]
                if len(st["got"]) < len(st["reqs"]):
                    continue
                times = [st["t0"]] + [t for _, t in st["got"]]
                for req, (resp, t) in zip(st["reqs"], st["got"]):
                    records.append({"req": req, "resp": resp,
                                    "ms": (t - st["t0"]) * 1e3})
                gaps = [(b - a) * 1e3 for a, b in zip(times[1:], times[2:])]
                bursts.append({"ms": (times[-1] - st["t0"]) * 1e3,
                               "max_gap_ms": max(gaps, default=0.0)})
                for w in waiting[:]:
                    waiting.remove(w)
                    start(w)
                start(conn)
    finally:
        for conn in list(state):
            conn.close()
        sel.close()


def run_open_loop(port, arrivals, records):
    """Open loop over CONNECTIONS connections, one request in flight each.

    arrivals: [(due offset s, request, kind)], sorted by due. An arrival
    takes an idle connection or waits FIFO for one; its latency counts from
    its due time.

    select(2) takes a microsecond timeout where epoll rounds up to whole
    milliseconds, so the generator can sleep right up to each due time."""
    sel = selectors.SelectSelector()
    idle = []
    for _ in range(CONNECTIONS):
        conn = Conn(port)
        conn.free_at = 0.0
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        idle.append(conn)
    busy = {}
    base = now() + 0.01
    nxt, pending = 0, []
    try:
        while nxt < len(arrivals) or pending or busy:
            watchdog()
            t = now()
            while nxt < len(arrivals) and base + arrivals[nxt][0] <= t:
                pending.append(arrivals[nxt])
                nxt += 1
            while pending and idle:
                due_off, req, kind = pending.pop(0)
                conn = idle.pop()
                due = base + due_off
                ready = max(due, conn.free_at)
                t = now()
                busy[conn] = {"req": req, "kind": kind, "due": due,
                              "late_ms": (t - ready) * 1e3,
                              "wait_ms": (ready - due) * 1e3}
                conn.send(req)
            timeout = 0.05
            if nxt < len(arrivals) and not pending:
                timeout = min(timeout, base + arrivals[nxt][0] - now())
            timeout = max(0.0, timeout)
            for key, _ in sel.select(timeout=timeout):
                conn = key.data
                resps = conn.feed()
                if not resps:
                    continue
                t = now()
                rec = busy.pop(conn)
                rec.update(resp=resps[0], ms=(t - rec.pop("due")) * 1e3)
                records.append(rec)
                conn.free_at = t
                idle.append(conn)
    finally:
        for conn in idle + list(busy):
            conn.close()
        sel.close()


def fill(port):
    """Puts the warm set in the daemon's DesignCache, pipelined in bursts of
    FILL_BURST over all connections. Returns the (request, response) pairs."""
    reqs = [r for _, _, r in pool.warm_set()]
    chunks = [reqs[i:i + FILL_BURST] for i in range(0, len(reqs), FILL_BURST)]
    records, bursts = [], []
    run_bursts(port, lambda c: iter(chunks[c::CONNECTIONS]), float("inf"),
               records, bursts)
    return records


# ------------------------------------------------------------ metrics ---

def ladder_tail(values):
    """(value, percentile): the highest TAIL_LADDER percentile that has at
    least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    q = max([p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10],
            default=50.0)
    return vals[min(n - 1, int(q / 100.0 * n))], q


def tail(values):
    """(value, percentile, n) of ladder_tail. From 2 * TAIL_WINDOW samples
    on, the samples are cut in arrival order into windows of TAIL_WINDOW
    (the last takes the rest), and the median of the windows' tails is
    reported: on a host whose capacity swings within seconds, one slow
    stretch would otherwise set the whole run's tail."""
    n = len(values)
    k = n // TAIL_WINDOW
    if k < 2:
        return ladder_tail(values) + (n,)
    tails = [ladder_tail(values[i * TAIL_WINDOW:
                                (i + 1) * TAIL_WINDOW if i < k - 1 else n])
             for i in range(k)]
    return statistics.median(v for v, _ in tails), tails[0][1], n


def check(records, goldens):
    """Counts of sent/ok/error/retry/timeout and golden failures."""
    counts = {"sent": len(records), "ok": 0, "error": 0, "retry": 0,
              "timeout": 0, "golden_mismatch": 0, "failed": 0}
    for r in records:
        verdict = r["resp"].split("\n", 1)[0].split(" ")[2:3]
        verdict = verdict[0] if verdict else "error"
        counts[verdict if verdict in counts else "error"] += 1
        good = goldens.get(pool.digest(r["req"])) == pool.digest(r["resp"])
        r["good"] = good and verdict == "ok"
        if verdict == "ok" and not good:
            counts["golden_mismatch"] += 1
        if not r["good"]:
            counts["failed"] += 1
    return counts


def counter_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def hist_mean_delta(before, after, name):
    b, a = before["histograms"].get(name), after["histograms"].get(name)
    if not a:
        return 0.0
    n = a["count"] - (b["count"] if b else 0)
    s = a["sum"] - (b["sum"] if b else 0.0)
    return s / n if n else 0.0


# ---------------------------------------------------------- workloads ---

class Run:
    """What one workload run measured."""

    def __init__(self):
        self.records = []       # timed-phase requests
        self.fill_records = []
        self.setup_s = []
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.hwm_mb = []        # VmHWM of each timed daemon
        self.nets_ms = []
        self.pass_cpu_ms = []   # cold-layers: daemon CPU ms per request, per pass
        self.bursts = []
        self.dups_sent = 0      # mixed-open duplicate pairs
        self.stats_before = None
        self.stats = None       # (before, after) of the traced daemon
        self.probe_ms = []


def finish_daemon(run, d, before_cpu, t_start, traced):
    run.timed_s += now() - t_start
    run.cpu_s += d.cpu_s() - before_cpu
    run.hwm_mb.append(d.hwm_mb())
    if traced:
        run.stats = (run.stats_before, d.stats())
        probe = [r["req"] for r in run.records if r["resp"].startswith(
            "sasynth-response v1 ok")][:HIT_PROBES]
        probe_records = []
        run_serial(d.port, probe, probe_records)
        run.probe_ms = [r["ms"] for r in probe_records]


def cold_layers(seed, seconds, trace_path):
    run = Run()
    order = pool.cold_pool()
    rng = random.Random(seed)
    t_end = now() + seconds
    while True:
        t_pass = now()
        rng.shuffle(order)
        d = Daemon(trace_path)
        try:
            run.setup_s.append(d.spawn_s)
            if trace_path:
                run.stats_before = d.stats()
            t0, c0 = now(), d.cpu_s()
            cpu_before = run.cpu_s
            run_serial(d.port, order, run.records)
            finish_daemon(run, d, c0, t0, trace_path)
            run.pass_cpu_ms.append((run.cpu_s - cpu_before) * 1e3 /
                                   len(order))
        finally:
            d.stop()
        # Whole passes only, and none that would end past --seconds.
        if trace_path or now() + (now() - t_pass) > t_end:
            break
    while len(run.setup_s) < COLD_SPAWNS:
        d = Daemon()
        run.setup_s.append(d.spawn_s)
        d.stop()
    return run


_NET_OF = {}


def best_of_passes(records):
    """cold-layers: each request's lowest latency over the run's passes.

    Every pass sends the whole pool to a fresh daemon, so each request is
    timed once per pass, at a different moment of the run. On a shared
    host, neighbours can slow the cores by up to a third for tens of
    seconds at a time; a request's best time is the one they disturbed
    least."""
    best = {}
    for r in records:
        if r["good"]:
            best[r["req"]] = min(r["ms"], best.get(r["req"], r["ms"]))
    return [{"req": req, "ms": ms} for req, ms in best.items()]


def network_sums(records):
    """Summed latency of each (network, device, dtype, option) group of
    distinct requests: one user's "design my whole network" time when the
    layers are all cache misses."""
    if not _NET_OF:
        for net, spec in pool.layers():
            _NET_OF[spec] = net
    groups, seen = {}, set()
    for r in records:
        if r["req"] in seen:
            continue
        seen.add(r["req"])
        lines = r["req"].split("\n")
        key = (_NET_OF[lines[1].split(" ")[1]],) + tuple(lines[2:-2])
        groups[key] = groups.get(key, 0.0) + r["ms"]
    return list(groups.values())


def network_requests():
    """{(network, target index): [warm-set requests in layer order]}."""
    out = {}
    for net, t, req in pool.warm_set():
        out.setdefault((net, t), []).append(req)
    return out


def warm_daemon(run, trace_path, repeats):
    """Spawns and fills `repeats` daemons, timing each set-up; all but the
    last are stopped. Returns the last."""
    for i in range(repeats):
        t0 = now()
        d = Daemon(trace_path if i == repeats - 1 else None)
        try:
            run.fill_records += fill(d.port)
        except BaseException:
            d.stop()
            raise
        run.setup_s.append(now() - t0)
        if i < repeats - 1:
            d.stop()
    return d


def hot_bursts(seed, seconds, trace_path):
    """SETUP_REPEATS rounds, each a freshly filled daemon driven for an
    equal share of --seconds (one round when traced): set-up time and peak
    memory are medians over the rounds' daemons."""
    run = Run()
    nets = network_requests()
    keys = sorted(nets)
    rounds = 1 if trace_path else SETUP_REPEATS
    for i in range(rounds):
        d = warm_daemon(run, trace_path, 1)
        try:
            if trace_path:
                run.stats_before = d.stats()

            # Each connection walks all (network, target) pairs in a fresh
            # seeded order per walk, so every run has the same burst mix;
            # the stall rate differs by burst size, and a drifting mix
            # would move it.
            def bursts_for(c, i=i):
                rng = random.Random((seed * 100 + i) * 100 + c)
                while True:
                    order = keys[:]
                    rng.shuffle(order)
                    for key in order:
                        yield nets[key]

            t0, c0 = now(), d.cpu_s()
            run_bursts(d.port, bursts_for, t0 + seconds / rounds,
                       run.records, run.bursts)
            finish_daemon(run, d, c0, t0, trace_path)
        finally:
            d.stop()
    run.nets_ms = [b["ms"] for b in run.bursts]
    return run


def mixed_schedule(seed, seconds, rate):
    """[(due s, request, kind)]: rate * seconds seeded Poisson arrivals.

    Every run sends the same misses, so its tail does not hang on which
    layers a seed happened to draw: each SweepCache-assisted miss of the
    sweep pool once (DUP_PAIRS of them as duplicate pairs, two arrivals with
    one due time) and each true cold miss on the new device once. Warm-set
    hits fill the rest. All are dealt evenly over blocks of about
    TAIL_WINDOW arrivals, so each tail window sees the same mix. The seed
    sets the order, the arrival times, which misses are paired and which
    hits are sent."""
    rng = random.Random(seed)
    sweep = pool.sweep_pool()
    rng.shuffle(sweep)
    misses = ([(r, "sweep") for r in sweep[DUP_PAIRS:]] +
              [(r, "dup") for r in sweep[:DUP_PAIRS]] +
              [(r, "cold") for r in pool.new_device_pool()])
    n = int(round(rate * seconds))
    n_hit = n - len(misses) - DUP_PAIRS
    if n_hit < 0:
        raise BenchError("mixed-open needs a longer run for its miss set")
    rng.shuffle(misses)
    warm = [r for _, _, r in pool.warm_set()]
    hits = [(rng.choice(warm), "hit") for _ in range(n_hit)]
    blocks = max(1, n // TAIL_WINDOW)
    items = []
    for b in range(blocks):
        block = misses[b::blocks] + hits[b::blocks]
        rng.shuffle(block)
        items += block
    out, t = [], 0.0
    for req, kind in items:
        t += rng.expovariate(rate)
        out.append((t, req, kind))
        if kind == "dup":
            out.append((t, req, kind))
    return out


def mixed_open(seed, seconds, trace_path):
    run = Run()
    arrivals = mixed_schedule(seed, seconds, MIXED_RATE)
    run.dups_sent = sum(1 for a in arrivals if a[2] == "dup") // 2
    d = warm_daemon(run, trace_path, 1 if trace_path else SETUP_REPEATS)
    try:
        if trace_path:
            run.stats_before = d.stats()
        t0, c0 = now(), d.cpu_s()
        run_open_loop(d.port, arrivals, run.records)
        finish_daemon(run, d, c0, t0, trace_path)
    finally:
        d.stop()
    run.nets_ms = network_sums(r for r in run.records if r["kind"] != "hit")
    return run


WORKLOADS = {"cold-layers": cold_layers, "hot-bursts": hot_bursts,
             "mixed-open": mixed_open}


# ----------------------------------------------------------- reporting ---

def end_to_end(name, run):
    lat = [r["ms"] for r in run.records]
    ok = sum(1 for r in run.records if r["good"])
    rate = ok / run.timed_s
    cpu_ms = run.cpu_s * 1e3 / len(run.records)
    nets = run.nets_ms
    if name == "mixed-open":
        ok = sum(1 for r in run.records
                 if r["good"] and r["ms"] <= MIXED_SLO_MS)
        rate = ok / run.timed_s
    if name == "cold-layers":
        # Best of the passes (best_of_passes); one connection with one
        # request in flight completes requests at 1 / mean latency.
        best = best_of_passes(run.records)
        lat = [r["ms"] for r in best]
        rate = len(lat) / (sum(lat) / 1e3)
        cpu_ms = min(run.pass_cpu_ms)
        nets = network_sums(best)
    tail_ms, q, n = tail(lat)
    m = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "req_p50_ms": (statistics.median(lat), "ms"),
        "req_tail_ms": (tail_ms, "ms"),
        "net_p50_ms": (statistics.median(nets), "ms"),
        "rate_per_s": (rate, "1/s"),
        "cpu_ms_per_req": (cpu_ms, "ms"),
        "peak_rss_mb": (statistics.median(run.hwm_mb), "MB"),
    }
    info = {"tail_percentile": q, "tail_n": n, "timed_s": run.timed_s,
            "net_n": len(nets), "setups": len(run.setup_s),
            "passes": len(run.pass_cpu_ms)}
    return m, info


def client_validity(run):
    late = tail([r["late_ms"] for r in run.records])[0]
    wait = tail([r["wait_ms"] for r in run.records])[0]
    return late, wait, (late <= MIXED_LATE_LIMIT_MS and
                        wait <= MIXED_POOL_WAIT_LIMIT_MS)


def trace_spans(path, skip_phase1):
    """Summed ms of the dse.phase1 / dse.phase2 spans of the timed phase:
    the first skip_phase1 phase-1 sweeps (and their phase 2s) belong to the
    fill."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    p1 = sorted((e for e in events if e.get("name") == "dse.phase1"),
                key=lambda e: e["ts"])
    p2 = sorted((e for e in events if e.get("name") == "dse.phase2"),
                key=lambda e: e["ts"])
    cut = p1[skip_phase1]["ts"] if skip_phase1 < len(p1) else float("inf")
    if skip_phase1 == 0:
        cut = float("-inf")
    return (sum(e["dur"] for e in p1[skip_phase1:]) / 1e3,
            sum(e["dur"] for e in p2 if e["ts"] >= cut) / 1e3)


def in_process_layers(records):
    """Times the public serving calls on the run's unique ok responses."""
    seen, text = set(), []
    for r in records:
        if r["good"] and r["req"] not in seen:
            seen.add(r["req"])
            text.append(r["req"] + r["resp"])
    res = subprocess.run([TOOL, "layers"], input="".join(text),
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise BenchError("perfbench_tool layers failed: " + res.stderr)
    return json.loads(res.stdout)


def per_layer(name, run, untraced, trace_path):
    before, after = run.stats
    delta = lambda n: counter_delta(before, after, n)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    dse_runs = delta("serve_dse_runs_total")
    skip = (after["counters"]["dse_phase1_runs_total"] -
            delta("dse_phase1_runs_total"))
    p1_ms, p2_ms = trace_spans(trace_path, skip)
    explorations = delta("dse_explorations_total")
    work = delta("dse_work_items_total")
    evals = delta("dse_reuse_evaluated_total")
    cpu_ms = run.cpu_s * 1e3
    proc = in_process_layers(run.records)
    answered = len(run.records)
    stalled = sum(1 for b in run.bursts if b["max_gap_ms"] >= STALL_GAP_MS)
    m = {
        "dse.phase1_ms": (ratio(p1_ms, explorations), "ms"),
        "dse.phase2_ms": (ratio(p2_ms, explorations), "ms"),
        "dse.work_items_per_req": (ratio(work, dse_runs), "count"),
        "dse.reuse_evals_per_req": (ratio(evals, dse_runs), "count"),
        "dse.bound_prune_ratio": (
            ratio(delta("dse_items_pruned_bound_total"), work), "ratio"),
        "dse.evals_per_cpu_ms": (ratio(evals, cpu_ms), "1/ms"),
        "dse.parallel_speedup": (ratio(run.cpu_s, p1_ms / 1e3), "x"),
        "sweep_cache.exact_hit_ratio": (ratio(
            delta("sweep_cache_exact_hits_total"),
            delta("sweep_cache_exact_hits_total") +
            delta("sweep_cache_exact_misses_total")), "ratio"),
        "sweep_cache.hint_hit_ratio": (ratio(
            delta("sweep_cache_hint_hits_total"),
            delta("sweep_cache_hint_hits_total") +
            delta("sweep_cache_hint_misses_total")), "ratio"),
        "design_cache.hit_ratio": (ratio(delta("cache_hits_total"),
                                         delta("cache_probes_total")),
                                   "ratio"),
        "design_cache.lookup_us": (proc["lookup_us"], "us"),
        "protocol.parse_us": (proc["parse_us"], "us"),
        "protocol.key_us": (proc["key_us"], "us"),
        "protocol.format_us": (proc["format_us"], "us"),
        "server.handle_us": (proc["handle_us"], "us"),
        "transport.overhead_us": (
            statistics.median(run.probe_ms) * 1e3 - proc["handle_us"], "us"),
        "event_loop.burst_stall_ratio": (ratio(stalled, len(run.bursts)),
                                         "ratio"),
        "event_loop.wakeups_per_req": (ratio(delta("loop_wakeups_total"),
                                             answered), "count"),
        "scheduler.queue_wait_ms": (
            hist_mean_delta(before, after, "serve_queue_wait_ms"), "ms"),
        "pool.task_wait_ms": (
            hist_mean_delta(before, after, "pool_task_wait_ms"), "ms"),
        "singleflight.coalesced_ratio": (ratio(
            delta("serve_coalesced_total"), answered), "ratio"),
        "client.late_ms": (0.0, "ms"),
        "client.pool_wait_ms": (0.0, "ms"),
        "obs.trace_overhead_pct": (overhead_pct(name, untraced, run), "%"),
    }
    if name == "mixed-open":
        late, wait, _ = client_validity(run)
        m["client.late_ms"] = (late, "ms")
        m["client.pool_wait_ms"] = (wait, "ms")
    info = {"dse_runs": dse_runs, "bound_prune_base_items": work,
            "bursts": len(run.bursts), "stalled_bursts": stalled,
            "in_process_pairs": proc["pairs"]}
    return m, info


def overhead_pct(name, untraced, traced):
    """Traced against untraced cost of the same workload and seed: daemon
    CPU per request (the open loop fixes the rate, so wall time says
    nothing there); for the closed loops, wall time per request."""
    if name == "mixed-open":
        a = untraced.cpu_s / len(untraced.records)
        b = traced.cpu_s / len(traced.records)
    else:
        a = untraced.timed_s / len(untraced.records)
        b = traced.timed_s / len(traced.records)
    return (b - a) / a * 100.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(RUN_DIR, exist_ok=True)
    goldens = pool.load_goldens()
    if not goldens:
        raise BenchError("no goldens")
    build()
    WATCHDOG[0] = now() + 160
    host = host_block(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    fn = WORKLOADS[args.workload]

    run = fn(args.seed, args.seconds, None)
    counts = check(run.records, goldens)
    fill_counts = check(run.fill_records, goldens)
    valid = True
    if args.trace == 0:
        metrics, info = end_to_end(args.workload, run)
    else:
        trace_path = os.path.join(RUN_DIR, "trace.json")
        traced = fn(args.seed, args.seconds, trace_path)
        for c, v in check(traced.records, goldens).items():
            counts[c] += v
        for c, v in check(traced.fill_records, goldens).items():
            fill_counts[c] += v
        metrics, info = per_layer(args.workload, traced, run, trace_path)
    if args.workload == "mixed-open":
        late, wait, valid = client_validity(run)
        info.update(client_late_ms=late, client_pool_wait_ms=wait,
                    valid=valid, dups_sent=run.dups_sent)
    info.update(counts=counts, fill_counts=fill_counts)
    with open(os.path.join(RUN_DIR, f"last-{args.workload}.json"), "w") as f:
        json.dump({"host": host, "info": info, "setup_s": run.setup_s,
                   "records": [{k: r.get(k) for k in ("req", "ms", "good", "kind")}
                               for r in run.records]}, f)
    print(f"detail {args.workload} " + json.dumps(info, sort_keys=True))
    for k, (v, unit) in metrics.items():
        print(f"  {k:32s} {v:14.6f} {unit}")
    failed = counts["failed"] + fill_counts["failed"]
    result = {"correct": failed == 0 and valid,
              "attempted": counts["sent"] + fill_counts["sent"],
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()} if valid else {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
