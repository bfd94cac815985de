#!/usr/bin/env python3
"""The ppm benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the ppm library, the `ppm` CLI and the
`ppmbench` driver) into $CARGO_TARGET_DIR (default .bench_build).
The last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. See perfbench/README.md for what each workload and metric
means, and `--record` for regenerating perfbench/refs.json.
"""

import argparse
import json
import math
import os
import random
import re
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")

WORKLOADS = ["fig5_sweep", "m88k_long", "sampled_100m", "serve_mix"]

# Seeds map onto a fixed pool of input sets, each with recorded
# reference outputs; HELD_OUT_SEED selects a set no other seed reaches.
NUM_SETS = 8
HELD_OUT_SEED = 7919
HELD_OUT_SET = NUM_SETS

SETUP_SPAWNS = 20         # set-up measurements before the first and
                          # after every iteration of a batch run
SERVE_STARTS = 40         # daemon starts per serve run, spread over it
LOAD_DAEMONS = 4          # of which carry a share of the load each
SERVE_WORKERS = 2         # engine worker threads in the daemon
SERVE_CONNS = 4           # generator connections (= nproc)
LIMIT_S = 1.0             # latency limit, from when a request was due
TIMEOUT_S = 10.0          # a request unanswered this long has failed
LATE_FRAC_LIMIT = 0.05    # share of sends over one arrival gap late
                          # beyond which the generator fell behind
SAMPLE_ERR_LIMIT_PCT = 1.0

# serve_mix rates, calibrated once with `--calibrate` (a closed-loop
# capacity probe of the mix below; see README.md): ~20% and ~39% of
# what it served in a slow phase of the host, so that queueing stays
# low when the host slows down.
LO_RPS = 8.0
HI_RPS = 16.0

# serve_mix request kinds and their counts in every block of 60
# arrivals, shuffled within the block: each step of every input set
# sees the same composition. family / workload / trace in equal thirds
# as in tools/serve_smoke.sh; the workload third is split into repeat
# and unique so that the capture hit rate matches the ~16% of the
# closed-loop probe the mix was specified against.
MIX_BLOCK = [("family", 20), ("repeat", 8), ("unique", 12), ("trace", 20)]
MIX_CYCLE = 600           # requests per set before the mix repeats
REPEAT_BUDGET = 100_000   # instructions per workload request
TRACE_RECORDS = 20_000    # branch records per synthetic trace


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "cmake")


def build():
    """Configure once, then build incrementally; raises on failure."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "ppmbench"), os.path.join(bdir, "ppm")


def child_env(**extra):
    """The environment without any inherited PPM_* knob."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PPM_")}
    env.update({k: str(v) for k, v in extra.items()})
    return env


# --- statistics --------------------------------------------------------

def pct(values, q):
    """Nearest-rank q-quantile (0 < q < 1); inf sorts last."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values):
    return statistics.median(values)


def set_of(seed):
    return HELD_OUT_SET if seed == HELD_OUT_SEED else seed % NUM_SETS


# --- batch workloads ---------------------------------------------------

def ppmbench(exe, mode, workload, set_idx):
    out = subprocess.run([exe, mode, workload, "--set", str(set_idx)],
                         env=child_env(), stdout=subprocess.PIPE,
                         check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class Setup:
    """Set-up times: assembly plus input generation, as a fresh
    setup-only ppmbench process times them. They are taken in batches
    spread over the run, so that their median covers the same stretch
    of time as the iterations'. Process start itself is left out: it
    is the loader's work, not ppm's, and it follows the host's
    page-fault cost, which drifted by 25-30% within half an hour."""

    def __init__(self, exe, workload, set_idx):
        self.args = (exe, "setup", workload, set_idx)
        self.runs = []

    def measure(self):
        for _ in range(SETUP_SPAWNS):
            self.runs.append(ppmbench(*self.args))

    def medians(self):
        return (median(r["assemble_s"] + r["input_s"] for r in self.runs),
                median(r["assemble_s"] for r in self.runs),
                median(r["input_s"] for r in self.runs))


class Check:
    """Correctness verdict plus operation tallies for one run."""

    def __init__(self):
        self.ok = True
        self.attempted = 0
        self.failed = 0

    def require(self, cond, msg):
        if not cond:
            self.ok = False
            log("CHECK FAILED: " + msg)
        return cond


def check_batch(check, workload, set_idx, run, refs):
    """Check one plain iteration's output against the references."""
    check.attempted += 1
    if workload == "sampled_100m":
        full = refs["sampled_100m"]["full_headline_pct"]
        err = max(abs(a - b) for a, b in zip(run["headline_pct"], full))
        run["sample_err_pct"] = err
        ok = check.require(err <= SAMPLE_ERR_LIMIT_PCT,
                           f"sampled error {err:.4f} pp over the "
                           f"{SAMPLE_ERR_LIMIT_PCT} pp limit")
    else:
        want = refs[workload][str(set_idx)]
        ok = check.require(run["digest"] == want,
                           f"{workload} set {set_idx}: digest "
                           f"{run['digest']} != reference {want}")
    check.failed += not ok


def run_batch(exe, workload, set_idx, seconds, trace, refs, check):
    setup = Setup(exe, workload, set_idx)
    setup.measure()
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        # Traced runs alternate with plain ones so the overhead is
        # measured against plain runs from the same minute.
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        res = ppmbench(exe, mode, workload, set_idx)
        run = res["run"]
        run["peak_rss_mb"] = res["peak_rss_mb"]
        log(f"{workload} {mode}: wall {run['wall_s']:.3f} s")
        if mode == "plain":
            check_batch(check, workload, set_idx, run, refs)
            plain.append(run)
        else:
            check.require(run["digest"] == plain[0]["digest"],
                          "traced run computed different output")
            traced.append(run)
        # Deterministic work counts must agree exactly across runs.
        check.require(run["counters"] == plain[0]["counters"],
                      "work counters differ between runs")
        if mode == "traced":
            check.require(all(run["layers"][k] == traced[0]["layers"][k]
                              for k in TRACED_COUNTERS
                              if k in run["layers"]),
                          "traced work counters differ between runs")
        setup.measure()
        done = time.perf_counter() - t0 >= seconds
        if done and (not trace or traced):
            break
    setup_s, assemble_s, input_s = setup.medians()

    if not trace:
        # Each metric is a per-iteration figure, reported as the median
        # over the run's iterations.
        def per_iter(f):
            return median(f(r) for r in plain)
        return {
            "setup_s": setup_s,
            "wall_s": per_iter(lambda r: r["wall_s"]),
            "peak_rss_mb": per_iter(lambda r: r["peak_rss_mb"]),
            "p50_ms": per_iter(lambda r: 1e3 * pct(r["cell_s"], 0.5)),
            "p90_ms": per_iter(lambda r: 1e3 * pct(r["cell_s"], 0.9)),
            "goodput_per_s":
                per_iter(lambda r: len(r["cell_s"]) / r["wall_s"]),
        }

    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = median(r["layers"][key] for r in traced)
    runner = {k: median(r["runner"][k] for r in plain)
              for k in plain[0]["runner"]}
    cells = [c for r in plain for c in r["cell_s"]]
    sim_s = layers["sim.self_s"]
    m = per_layer_defaults()
    m.update({
        "asmr.assemble_s": assemble_s,
        "workloads.input_s": input_s,
        "runner.cell_s.p50": pct(cells, 0.5),
        "runner.cell_s.max": max(cells),
        "runner.queue_s": runner["queue_s"],
        "runner.stream_s": runner["stream_s"],
        "runner.replay_frac": runner["replay_frac"],
        "runner.capture_hit_frac": runner["capture_hit_frac"],
        "trace.overhead_frac":
            median(r["wall_s"] for r in traced) /
            median(r["wall_s"] for r in plain) - 1.0,
    })
    for key, counter in plain[0]["counters"].items():
        if key in m:
            m[key] = counter
    m.update(layers)
    if "sim.instrs" in layers and sim_s > 0:
        m["sim.minstr_per_s"] = layers["sim.instrs"] / sim_s / 1e6
    if workload == "sampled_100m":
        m["sample.err_pct"] = median(r["sample_err_pct"] for r in plain)
    return m


# Counters of the traced run that must repeat exactly.
TRACED_COUNTERS = ("sim.instrs", "dpg.arc_ops", "sample.measured_instrs")


# --- metric tables (BENCHMARK.json lists the same names) ---------------

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"), ("p90_ms", "ms"), ("goodput_per_s", "1/s"),
]
PER_LAYER = [
    ("asmr.assemble_s", "s"), ("workloads.input_s", "s"),
    ("sim.self_s", "s"), ("sim.minstr_per_s", "Minstr/s"),
    ("sim.profile_s", "s"), ("sim.instrs", "count"),
    ("sample.profile_s", "s"), ("sample.checkpoint_s", "s"),
    ("sample.checkpoint_mb", "MB"), ("sample.cluster_s", "s"),
    ("sample.measure_s", "s"), ("sample.analysis_s", "s"),
    ("sample.measured_instrs", "count"),
    ("sample.err_pct", "pp"),
    ("pred.predict_s", "s"), ("pred.ns_per_instr", "ns"),
    ("dpg.graph_s", "s"), ("dpg.propagate_elements", "count"),
    ("dpg.saturation_events", "count"), ("dpg.generates", "count"),
    ("dpg.arcs_s", "s"), ("dpg.arc_ops", "count"),
    ("dpg.finalize_s", "s"),
    ("runner.cell_s.p50", "s"), ("runner.cell_s.max", "s"),
    ("runner.queue_s", "s"), ("runner.stream_s", "s"),
    ("runner.replay_frac", "frac"), ("runner.capture_hit_frac", "frac"),
    ("serve.lo.p50_ms", "ms"), ("serve.lo.p90_ms", "ms"),
    ("serve.hi.p50_ms", "ms"), ("serve.hi.p90_ms", "ms"),
    ("serve.lo.samples", "count"), ("serve.hi.samples", "count"),
    ("serve.hi.goodput_rps", "1/s"),
    ("serve.rtt_ms.family", "ms"), ("serve.rtt_ms.repeat", "ms"),
    ("serve.rtt_ms.unique", "ms"), ("serve.rtt_ms.trace", "ms"),
    ("serve.conn_wait_ms", "ms"), ("serve.queue_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.protocol_ms", "ms"), ("serve.capture_hit_frac", "frac"),
    ("serve.overloaded", "count"), ("serve.gen_late_ms", "ms"),
    ("report.emit_s", "s"), ("trace.overhead_frac", "frac"),
]
UNITS = dict(END_TO_END + PER_LAYER)


def per_layer_defaults():
    """Layers a workload does not exercise report 0."""
    return {name: 0 for name, _ in PER_LAYER}


# --- serve_mix ---------------------------------------------------------

def trace_records(seed):
    """A synthetic CBP-style branch trace: loops, biased and random
    branches over a few dozen pcs."""
    rng = random.Random(seed)
    pcs = [0x400000 + 4 * rng.randrange(1 << 12) for _ in range(48)]
    bias = [rng.choice([0.0, 0.05, 0.5, 0.95, 1.0]) for _ in pcs]
    lines = []
    i = 0
    while len(lines) < TRACE_RECORDS:
        body = rng.randrange(3, 12)
        for trip in range(rng.randrange(4, 40)):
            for j in range(body):
                k = (i + j) % len(pcs)
                taken = rng.random() < bias[k]
                lines.append(f"0x{pcs[k]:x} {'T' if taken else 'N'}")
            lines.append(f"0x{pcs[i % len(pcs)]:x} "
                         f"{'T' if trip else 'N'}")
        i += body
    return "\n".join(lines[:TRACE_RECORDS]) + "\n"


def serve_mix(set_idx):
    """The set's request cycle: a list of (kind, key, request-dict)."""
    rng = random.Random(f"ppm-serve-mix/{set_idx}")
    families = ["pointer-chase", "hash-churn", "interp-dispatch",
                "call-tree", "stream-stride", "branch-corr", "progen-mix"]
    repeat_pool = [("gcc", rng.randrange(1, 1 << 31)),
                   ("compress", rng.randrange(1, 1 << 31))]
    unique_wls = ["li", "go", "perl", "vortex"]
    traces = {seed: trace_records(seed)
              for seed in (rng.randrange(1, 1 << 31) for _ in range(6))}
    block = [kind for kind, count in MIX_BLOCK for _ in range(count)]
    kinds = []
    while len(kinds) < MIX_CYCLE:
        rng.shuffle(block)
        kinds += block
    cycle, used = [], set()

    def fresh_seed(name):
        seed = rng.randrange(1, 1 << 31)
        while (name, seed) in used:
            seed = rng.randrange(1, 1 << 31)
        used.add((name, seed))
        return seed

    # Each kind takes its programs in turn, so every set's mix costs
    # about the same; family and unique requests are programs not seen
    # before in the set.
    turn = {kind: 0 for kind, _ in MIX_BLOCK}
    for kind in kinds[:MIX_CYCLE]:
        i = turn[kind]
        turn[kind] += 1
        if kind == "family":
            fam = families[i % len(families)]
            seed = fresh_seed(fam)
            req = {"kind": "analyze", "family": fam, "seed": seed}
            key = f"family:{fam}:{seed}"
        elif kind in ("repeat", "unique"):
            if kind == "repeat":
                wl, seed = repeat_pool[i % len(repeat_pool)]
            else:
                wl = unique_wls[i % len(unique_wls)]
                seed = fresh_seed(wl)
            req = {"kind": "analyze", "workload": wl, "seed": seed,
                   "max_instrs": REPEAT_BUDGET}
            key = f"workload:{wl}:{seed}:{REPEAT_BUDGET}"
        else:
            seed = sorted(traces)[i % len(traces)]
            req = {"kind": "trace", "name": f"synth-{seed}.trace",
                   "records": traces[seed]}
            key = f"trace:{seed}"
        cycle.append((kind, key, req))
    return cycle


def request_line(req, rid):
    doc = {"schema": "ppm-serve-v1", "id": rid}
    doc.update(req)
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def fingerprint_hash(line):
    """FNV-1a of the raw fingerprint bytes of an ok response."""
    start = line.find(b'"fingerprint":')
    end = line.rfind(b',"timing":')
    h = 0xcbf29ce484222325
    for byte in line[start + len(b'"fingerprint":'):end]:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class Daemon:
    """One `ppm serve` process on an ephemeral localhost port."""

    def __init__(self, ppm):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [ppm, "serve", "--port", "0"],
            env=child_env(PPM_THREADS=SERVE_WORKERS),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        banner = self.proc.stdout.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", banner)
        if not m:
            self.stop()
            raise RuntimeError(f"ppm serve did not start: {banner!r}")
        self.port = int(m.group(1))
        pong = self.call({"kind": "ping"})
        if '"status":"ok"' not in pong:
            self.stop()
            raise RuntimeError(f"ppm serve ping failed: {pong!r}")
        self.startup_s = time.perf_counter() - t0

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port))

    def call(self, req):
        with self.connect() as s:
            s.sendall(request_line(req, "ctl"))
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
        return buf.decode()

    def stats(self):
        return json.loads(self.call({"kind": "stats"}))["stats"]

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.call({"kind": "shutdown"})
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Step:
    """One open-loop load step at a fixed rate, run against one or
    more daemons in turn; records and makespan accumulate over them."""

    def __init__(self, name, rate):
        self.name, self.rate = name, rate
        self.records = []
        self.makespan = 0.0


def run_step(daemon, step, requests):
    """Send @requests at step.rate over SERVE_CONNS connections,
    each request to the connection with the fewest outstanding ones.
    Every request is timed from when it was due. Sends never block and
    responses are parsed after the step, so the generator's own work
    cannot delay a send.

    The daemon serves one request at a time per connection, so a
    request also records when the daemon could start on it: the later
    of its send and the previous response on its connection."""
    sel = selectors.DefaultSelector()
    conns = []
    for _ in range(SERVE_CONNS):
        s = daemon.connect()
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.setblocking(False)
        conn = {"sock": s, "out": [], "rbuf": b"", "wbuf": b"",
                "last_recv": 0.0}
        conns.append(conn)
        sel.register(s, selectors.EVENT_READ, conn)

    def flush(conn):
        try:
            sent = conn["sock"].send(conn["wbuf"])
        except BlockingIOError:
            sent = 0
        conn["wbuf"] = conn["wbuf"][sent:]
        events = selectors.EVENT_READ
        if conn["wbuf"]:
            events |= selectors.EVENT_WRITE
        sel.modify(conn["sock"], events, conn)

    n = len(requests)
    lines = [request_line(req, f"{step.name}-{i}")
             for i, (_, _, req) in enumerate(requests)]
    records = []
    start = time.perf_counter() + 0.05
    due = [start + i / step.rate for i in range(n)]
    nxt = pending = 0
    deadline = due[-1] + TIMEOUT_S
    while True:
        now = time.perf_counter()
        while nxt < n and due[nxt] <= now:
            kind, key, _ = requests[nxt]
            conn = min(conns, key=lambda c: len(c["out"]))
            rec = {"kind": kind, "key": key, "due": due[nxt], "sent": now}
            # A connection still waiting to write sends on EVENT_WRITE.
            idle = not conn["wbuf"]
            conn["wbuf"] += lines[nxt]
            if idle:
                flush(conn)
            conn["out"].append(rec)
            records.append(rec)
            pending += 1
            nxt += 1
            now = time.perf_counter()
        if (nxt == n and pending == 0) or now > deadline:
            break
        wait = (due[nxt] - now) if nxt < n else deadline - now
        for sk, events in sel.select(max(0.0, min(wait, 0.5))):
            conn = sk.data
            if events & selectors.EVENT_WRITE:
                flush(conn)
            if not events & selectors.EVENT_READ:
                continue
            chunk = conn["sock"].recv(1 << 20)
            if not chunk:
                raise RuntimeError("ppm serve closed a connection")
            conn["rbuf"] += chunk
            while b"\n" in conn["rbuf"]:
                line, conn["rbuf"] = conn["rbuf"].split(b"\n", 1)
                rec = conn["out"].pop(0)
                rec["recv"] = time.perf_counter()
                rec["start"] = max(rec["sent"], conn["last_recv"])
                conn["last_recv"] = rec["recv"]
                rec["line"] = line
                pending -= 1
    for conn in conns:
        sel.unregister(conn["sock"])
        conn["sock"].close()
    sel.close()
    for rec in records:
        if "recv" in rec:
            parse_response(rec, rec.pop("line"))
        else:
            rec["status"] = "timeout"
    step.records += records
    step.makespan += max(r.get("recv", r["due"] + TIMEOUT_S)
                         for r in records) - records[0]["due"]


def parse_response(rec, line):
    doc = json.loads(line)
    rec["status"] = doc.get("status", "error")
    if rec["status"] != "ok":
        log(f"serve: {rec['key']} -> {rec['status']}: {doc.get('error')}")
        return
    timing = doc.get("timing", {})
    rec["fp"] = fingerprint_hash(line)
    rec["queue_s"] = timing.get("queue_sec", 0.0)
    rec["engine_s"] = (timing.get("simulate_sec", 0.0) +
                       timing.get("analyze_sec", 0.0))


def step_summary(step):
    """Latency percentiles from due time; a failed request or one over
    the limit counts as missing it (latency = inf)."""
    lat = []
    good = 0
    for rec in step.records:
        if rec["status"] == "ok":
            lat.append(rec["recv"] - rec["due"])
            good += lat[-1] <= LIMIT_S
        else:
            lat.append(math.inf)
    late = sorted(r["sent"] - r["due"] for r in step.records)
    return {
        "n": len(lat),
        "p50": pct(lat, 0.5), "p90": pct(lat, 0.9),
        "goodput": good / step.makespan,
        "late_max": late[-1],
        "late_frac": sum(x > 1.0 / step.rate for x in late) / len(late),
    }


def run_serve(ppm, exe, set_idx, seconds, trace, refs, check):
    setup = ppmbench(exe, "setup", "serve_mix", set_idx)
    cycle = serve_mix(set_idx)
    # The end-to-end metrics are hi's, so a plain run spends all of
    # its time on hi. A traced run first gives lo its 100 samples and
    # the rest of the run to hi.
    n_lo = max(100, round(LO_RPS * seconds * 0.4)) if trace else 0
    n_hi = max(100, round(HI_RPS * (seconds - n_lo / LO_RPS)))
    seq = [cycle[i % len(cycle)] for i in range(n_lo + n_hi)]
    parts = [seq[:n_lo], seq[n_lo:]]
    steps = [Step("lo", LO_RPS), Step("hi", HI_RPS)]
    if not trace:
        parts, steps = parts[1:], steps[1:]
    # Figures vary more between daemon processes than within one, so
    # the load is spread over LOAD_DAEMONS daemons in turn, each
    # running its share of lo and then of hi, and the steps pool them.
    # The other daemons only measure start-up, between the loaded ones.
    starts, rss = [], []
    hits = misses = overloaded = 0
    every = SERVE_STARTS // LOAD_DAEMONS
    for i in range(SERVE_STARTS):
        daemon = Daemon(ppm)
        starts.append(daemon.startup_s)
        try:
            if i % every == every - 1:
                k = i // every
                before = daemon.stats()["cache"]
                for step, part in zip(steps, parts):
                    share = part[k * len(part) // LOAD_DAEMONS:
                                 (k + 1) * len(part) // LOAD_DAEMONS]
                    run_step(daemon, step, share)
                after = daemon.stats()
                rss.append(daemon.peak_rss_mb())
                hits += after["cache"]["capture_hits"] - \
                    before["capture_hits"]
                misses += after["cache"]["capture_misses"] - \
                    before["capture_misses"]
                overloaded += after["overloaded"]
        finally:
            daemon.stop()

    expect = refs["serve_mix"][str(set_idx)]
    for step in steps:
        for rec in step.records:
            check.attempted += 1
            if rec["status"] != "ok" or rec["recv"] - rec["due"] > LIMIT_S:
                check.failed += 1
            if rec["status"] == "ok":
                check.require(rec["fp"] == expect.get(rec["key"]),
                              f"served {rec['key']}: fingerprint "
                              f"{rec['fp']} != {expect.get(rec['key'])}")
    summary = {step.name: step_summary(step) for step in steps}
    for name, s in summary.items():
        # Percentiles need ten samples beyond them; a step where the
        # generator itself fell behind measured nothing.
        check.require(s["n"] * 0.1 >= 10,
                      f"{name}: {s['n']} samples are too few for p90")
        check.require(s["late_frac"] <= LATE_FRAC_LIMIT,
                      f"{name}: generator late on {s['late_frac']:.1%} "
                      f"of sends (max {1e3 * s['late_max']:.1f} ms)")
        log(f"serve_mix {name}: n={s['n']} p50={1e3 * s['p50']:.1f}ms "
            f"p90={1e3 * s['p90']:.1f}ms goodput={s['goodput']:.2f}/s "
            f"late_over_gap={s['late_frac']:.2%} "
            f"late_max={1e3 * s['late_max']:.1f}ms")
    hi = summary["hi"]

    ok = [r for s in steps for r in s.records if r["status"] == "ok"]
    if not trace:
        return {
            "setup_s": median(starts),
            # The daemons' time on the run's requests: what a slower
            # server moves, unlike the makespan the schedule fixes.
            "wall_s": sum(r["recv"] - r["start"] for r in ok),
            "peak_rss_mb": median(rss),
            "p50_ms": 1e3 * hi["p50"],
            "p90_ms": 1e3 * hi["p90"],
            "goodput_per_s": hi["goodput"],
        }

    lo = summary["lo"]
    m = per_layer_defaults()
    m.update({
        "asmr.assemble_s": setup["assemble_s"],
        "workloads.input_s": setup["input_s"],
        "serve.lo.p50_ms": 1e3 * lo["p50"], "serve.lo.p90_ms": 1e3 * lo["p90"],
        "serve.hi.p50_ms": 1e3 * hi["p50"], "serve.hi.p90_ms": 1e3 * hi["p90"],
        "serve.lo.samples": lo["n"], "serve.hi.samples": hi["n"],
        "serve.hi.goodput_rps": hi["goodput"],
        # Means, so that the four parts add up to the mean time from
        # send to response.
        "serve.conn_wait_ms": 1e3 * statistics.fmean(
            r["start"] - r["sent"] for r in ok),
        "serve.queue_ms": 1e3 * statistics.fmean(r["queue_s"] for r in ok),
        "serve.engine_ms": 1e3 * statistics.fmean(
            r["engine_s"] for r in ok),
        "serve.protocol_ms": 1e3 * statistics.fmean(
            r["recv"] - r["start"] - r["queue_s"] - r["engine_s"]
            for r in ok),
        "serve.capture_hit_frac": hits / max(1, hits + misses),
        "serve.overloaded": overloaded,
        "serve.gen_late_ms": 1e3 * max(lo["late_max"], hi["late_max"]),
    })
    for kind, _ in MIX_BLOCK:
        rtts = [r["recv"] - r["start"] for r in ok if r["kind"] == kind]
        m[f"serve.rtt_ms.{kind}"] = 1e3 * median(rtts) if rtts else 0
    return m


def calibrate(ppm, set_idx, seconds):
    """Closed-loop capacity probe of the serve_mix: SERVE_CONNS
    connections, each sending its next request as soon as the previous
    one is answered, for @seconds. LO_RPS and HI_RPS were set from its
    req/s; it prints that, the p90 and the capture hit rate."""
    cycle = serve_mix(set_idx)
    lock = threading.Lock()
    nxt, rtts = [0], []
    stop = time.perf_counter() + seconds

    def client():
        with daemon.connect() as s:
            while time.perf_counter() < stop:
                with lock:
                    i = nxt[0]
                    nxt[0] += 1
                t0 = time.perf_counter()
                s.sendall(request_line(cycle[i % len(cycle)][2], str(i)))
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = s.recv(1 << 20)
                    if not chunk:
                        raise RuntimeError("ppm serve closed a connection")
                    buf += chunk
                with lock:
                    rtts.append(time.perf_counter() - t0)

    daemon = Daemon(ppm)
    try:
        before = daemon.stats()["cache"]
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client)
                   for _ in range(SERVE_CONNS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        after = daemon.stats()["cache"]
    finally:
        daemon.stop()
    hits = after["capture_hits"] - before["capture_hits"]
    misses = after["capture_misses"] - before["capture_misses"]
    print(json.dumps({"req_per_s": len(rtts) / elapsed,
                      "p90_ms": 1e3 * pct(rtts, 0.9),
                      "capture_hit_frac": hits / max(1, hits + misses),
                      "requests": len(rtts)}))


# --- reference recording ----------------------------------------------

def record(exe, ppm, workloads):
    """Regenerate the references of @workloads in refs.json from the
    current build (all four take about 10 minutes)."""
    refs = {}
    if os.path.exists(REFS):
        with open(REFS) as f:
            refs = json.load(f)
    sets = list(range(NUM_SETS)) + [HELD_OUT_SET]
    for workload in ("fig5_sweep", "m88k_long"):
        if workload in workloads:
            refs[workload] = {
                str(s): ppmbench(exe, "plain", workload, s)["run"]["digest"]
                for s in sets}
            log(f"recorded {workload}")
    if "sampled_100m" in workloads:
        full = subprocess.run([exe, "fullref"], env=child_env(),
                              stdout=subprocess.PIPE, check=True,
                              text=True)
        doc = json.loads(full.stdout.strip())
        refs["sampled_100m"] = {"dyn_instrs": doc["dyn_instrs"],
                                "full_headline_pct": doc["headline_pct"]}
        log("recorded sampled_100m full reference")
    if "serve_mix" in workloads:
        refs["serve_mix"] = {}
        daemon = Daemon(ppm)
        try:
            with daemon.connect() as s:
                for st in sets:
                    table = {}
                    for _, key, req in serve_mix(st):
                        if key in table:
                            continue
                        s.sendall(request_line(req, key))
                        buf = b""
                        while not buf.endswith(b"\n"):
                            buf += s.recv(1 << 20)
                        if b'"status":"ok"' not in buf:
                            raise RuntimeError(f"{key}: {buf[:200]!r}")
                        table[key] = fingerprint_hash(buf.rstrip(b"\n"))
                    refs["serve_mix"][str(st)] = table
                    log(f"recorded serve_mix set {st}: {len(table)} "
                        "requests")
        finally:
            daemon.stop()
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


# --- main --------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="regenerate the references in refs.json of "
                         "--workload (default: all) and exit")
    ap.add_argument("--calibrate", action="store_true",
                    help="run the closed-loop serve_mix capacity probe "
                         "for --seconds and exit")
    args = ap.parse_args()
    if not (args.record or args.calibrate) and not args.workload:
        ap.error("--workload is required")

    exe, ppm = build()
    if args.calibrate:
        calibrate(ppm, set_of(args.seed), args.seconds)
        return 0
    if args.record:
        record(exe, ppm, [args.workload] if args.workload else WORKLOADS)
        return 0
    with open(REFS) as f:
        refs = json.load(f)

    check = Check()
    set_idx = set_of(args.seed)
    if args.workload == "serve_mix":
        metrics = run_serve(ppm, exe, set_idx, args.seconds, args.trace,
                            refs, check)
    else:
        metrics = run_batch(exe, args.workload, set_idx, args.seconds,
                            args.trace, refs, check)

    if not check.ok:
        print(json.dumps({"correct": False, "attempted": check.attempted,
                          "failed": check.failed, "metrics": {}}))
        return 1
    expected = PER_LAYER if args.trace else END_TO_END
    assert sorted(metrics) == sorted(name for name, _ in expected)
    out = {name: {"value": value, "unit": UNITS[name]}
           for name, value in metrics.items()}
    print(json.dumps({"correct": True, "attempted": check.attempted,
                      "failed": check.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
