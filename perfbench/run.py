#!/usr/bin/env python3
"""End-to-end benchmark of the disc sequence miner (see perfbench/README.md).

    python3 perfbench/run.py --workload dense|sparse|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's Quest
input from --seed, measures, checks every output against a reference, and
prints one JSON object as its last stdout line. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes the
spans of the run to <build>/traces/.
"""
import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
THREADS = min(4, os.cpu_count() or 1)

# Quest shapes of the paper's Figure 9 (dense) and Figure 8 / Table 11
# (sparse). The Quest draw is fixed (QUEST_SEED); --seed permutes its item
# labels and shuffles its customers, so every seed mines the same amount of
# work over different bytes (README.md, "Seeds").
QUEST_SEED = 42
FIG9 = dict(ncust=1000, slen=8, tlen=8, seq_patlen=8, nitems=1000)
FIG8 = dict(ncust=25000, slen=10, tlen=2.5, seq_patlen=4, nitems=1000)
WORKLOADS = {
    # batch: one-shot seqmine runs at `minsup`, plus a read-only serve leg.
    "dense": dict(shape=FIG9, minsup=0.0075, serve=(0.05, 0.04, 0.03),
                  loads=False, batch_share=0.6),
    "sparse": dict(shape=FIG8, minsup=0.005, serve=(0.06, 0.05, 0.04),
                   loads=False, batch_share=0.6),
    # serve: seqmined over database A with B on disk, loads mixed in; the
    # one-shot runs mine A at the serve loop's lowest threshold.
    "serve": dict(shape=FIG9, minsup=0.03, serve=(0.05, 0.04, 0.03),
                  loads=True, batch_share=0.3),
}
E2E_UNITS = {"setup_s": "s", "mine_s": "s", "mine_mt_s": "s", "dyn_s": "s",
             "pseudo_s": "s", "peak_rss_mib": "MiB", "req_p50_ms": "ms",
             "req_p90_ms": "ms", "req_per_s": "1/s"}
CLIENTS = 4          # closed-loop connections of the serve leg
SESSION_THREADS = 2  # seqmined --serve-threads (its default)
LOAD_EVERY = 9       # serve: one `load` after this many completed mines


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                raise BenchError("cmake configure failed; see build.log")
        if subprocess.call(["cmake", "--build", BUILD, "-j", str(THREADS)],
                           stdout=out, stderr=out) != 0:
            raise BenchError("build failed; see %s/build.log" % BUILD)


def binary(name):
    return os.path.join(BUILD, name)


def helper(*args, timeout=170):
    """Runs perfbench_layers and returns its JSON result line."""
    out = subprocess.run([binary("perfbench_layers")] + [str(a) for a in args],
                         stdout=subprocess.PIPE, timeout=timeout, check=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def socket_path(work, name):
    """A unix socket path in `work`, relative when that is shorter: socket
    paths are limited to about 100 bytes."""
    path = os.path.join(work, name)
    return min(path, os.path.relpath(path), key=len)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def run_process(argv, timeout=170):
    """Runs one process; returns (exit code, wall seconds, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Spans:
    """Spans recorded by this script, merged with the helper's at the end."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.records = []
        self.lock = threading.Lock()
        self.next_id = 1 << 32  # clear of the helper's ids

    def add(self, name, start, end, parent=0, request=0):
        with self.lock:
            span_id = self.next_id
            self.next_id += 1
            self.records.append(dict(
                name=name, id=span_id, parent=parent, request=request,
                start_us=(start - self.origin) * 1e6,
                end_us=(end - self.origin) * 1e6))
        return span_id


def self_times(spans):
    """Self time per span name: duration minus the union of its children."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        covered, reach = 0.0, s["start_us"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], reach), min(c["end_us"], s["end_us"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals.setdefault(s["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s["end_us"] - s["start_us"]
        entry[2] += s["end_us"] - s["start_us"] - covered
    return totals


class Inputs:
    """The workload's generated databases and reference pattern digests."""

    def __init__(self, name, seed, work):
        spec = WORKLOADS[name]
        self.spec = spec
        self.dbs = []
        for i in range(2 if spec["loads"] else 1):
            path = os.path.join(work, "db%d.spmf" % i)
            shape = spec["shape"]
            helper("gen", path, "--ncust=%d" % shape["ncust"],
                   "--slen=%g" % shape["slen"], "--tlen=%g" % shape["tlen"],
                   "--seq-patlen=%g" % shape["seq_patlen"],
                   "--nitems=%d" % shape["nitems"],
                   "--quest-seed=%d" % QUEST_SEED, "--seed=%d" % (seed + i))
            self.dbs.append(path)
        # refs[db][minsup] = (sha256 of the SPMF pattern text, patterns)
        minsups = sorted({spec["minsup"], *spec["serve"]})
        self.refs = []
        for i, db in enumerate(self.dbs):
            prefix = os.path.join(work, "ref%d" % i)
            result = helper("ref", db, "--minsups=" + ",".join(map(str, minsups)),
                            "--out=" + prefix)
            self.refs.append({m: (sha256_file(r["path"]), r["patterns"])
                              for m, r in zip(minsups, result["refs"])})


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def add(self, attempted, failed):
        with self.lock:
            self.attempted += attempted
            self.failed += failed

    def record(self, ok):
        self.add(1, 0 if ok else 1)


def one_shot(inputs, work, counter, until):
    """Rounds of the four one-shot seqmine runs, each output checked."""
    db, minsup = inputs.dbs[0], inputs.spec["minsup"]
    ref = inputs.refs[0][minsup][0]
    # disc-all, the headline, runs twice a round; the multi-threaded run is
    # short and lumpy, so three times. At least two rounds, so that every
    # metric is a median.
    variants = [("mine_s", "disc-all", 1)] * 2 + [
        ("dyn_s", "dynamic-disc-all", 1), ("pseudo_s", "pseudo", 1)] + [
        ("mine_mt_s", "disc-all", THREADS)] * 3
    times = {key: [] for key, _, _ in variants}
    rss = []
    start = time.perf_counter()
    while len(times["pseudo_s"]) < 2 or time.perf_counter() - start < until:
        for key, algo, threads in variants:
            out = os.path.join(work, "out.txt")
            if os.path.exists(out):
                os.remove(out)
            code, wall, peak = run_process(
                [binary("seqmine"), db, "--algo=" + algo, "--minsup=%g" % minsup,
                 "--threads=%d" % threads, "--quiet", "--out=" + out])
            counter.record(code == 0 and os.path.exists(out)
                           and sha256_file(out) == ref)
            times[key].append(wall)
            if key == "mine_s":
                rss.append(peak)
    return times, rss


class Connection:
    """A line-protocol client of seqmined over a unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(path)
        self.buf = b""
        self.line()  # greeting

    def _fill(self):
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("seqmined closed the connection")
        self.buf += chunk

    def line(self):
        while b"\n" not in self.buf:
            self._fill()
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def block(self):
        """The pattern block up to the bare `end` line, without it."""
        scanned = 0
        while True:
            if self.buf.startswith(b"end\n"):
                self.buf = self.buf[4:]
                return b""
            i = self.buf.find(b"\nend\n", scanned)
            if i >= 0:
                block, self.buf = self.buf[:i + 1], self.buf[i + 5:]
                return block
            scanned = max(0, len(self.buf) - 4)
            self._fill()

    def send(self, text):
        self.sock.sendall(text.encode() + b"\n")

    def close(self):
        try:
            self.send("quit")
            while self.sock.recv(1 << 16):
                pass
        except OSError:
            pass
        self.sock.close()


def header_field(header, key):
    for token in header.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    return None


class Daemon:
    """seqmined on a unix socket with one database preloaded."""

    def __init__(self, db, sock):
        self.sock = sock
        if os.path.exists(sock):
            os.remove(sock)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("seqmined"), db, "--listen-unix=" + sock,
             "--serve-threads=%d" % SESSION_THREADS, "--max-inflight=16",
             "--max-pending=16", "--per-client=16"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = b""
        deadline = start + 60
        while not line.startswith(b"seqmined: listening"):
            if not select.select([self.proc.stdout], [], [],
                                 max(0.0, deadline - time.perf_counter()))[0]:
                self.stop()
                raise RuntimeError("seqmined did not start listening")
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError("seqmined exited before listening")
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """Drains seqmined; returns its exit code and peak RSS in MiB."""
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        self.proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(30, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def serve_loop(inputs, daemon, counter, seconds, spans=None, initial_loads=0):
    """CLIENTS closed-loop connections sending `mine --minsup m`; with
    loads, connection 0 swaps the resident database every LOAD_EVERY
    completed mines. Returns per-request samples.

    Connection c cycles through the thresholds starting at the c-th, so
    every run sends the same mix: a drawn mix moves the median by seed."""
    minsups = inputs.spec["serve"]
    lock = threading.Lock()
    samples = []      # (latency_ms, wall_ms, end time)
    load_ms = []
    state = dict(since_load=0, resident=0)
    errors = []
    start = time.perf_counter()
    stop = start + seconds

    def do_load(conn, target):
        t0 = time.perf_counter()
        conn.send("load " + inputs.dbs[target])
        reply = conn.line()
        t1 = time.perf_counter()
        counter.record(reply.startswith("ok load"))
        if spans:
            spans.add("server.load", t0, t1)
        with lock:
            load_ms.append((t1 - t0) * 1e3)

    def client(c):
        conn = None
        try:
            conn = Connection(daemon.sock)
            if c == 0:
                for _ in range(initial_loads):
                    do_load(conn, 0)
            request = 0
            while time.perf_counter() < stop:
                if c == 0 and inputs.spec["loads"]:
                    with lock:
                        due = state["since_load"] >= LOAD_EVERY
                        if due:
                            state["since_load"] = 0
                            state["resident"] ^= 1
                            target = state["resident"]
                    if due:
                        do_load(conn, target)
                        continue
                m = minsups[(c + request) % len(minsups)]
                t0 = time.perf_counter()
                conn.send("mine --minsup %g" % m)
                header = conn.line()
                ok = header.startswith("ok mine")
                block = conn.block() if ok else b""
                t1 = time.perf_counter()
                digest = hashlib.sha256(block).hexdigest()
                ok = ok and header_field(header, "status") == "complete" and any(
                    ref[m][0] == digest for ref in inputs.refs)
                counter.record(ok)
                request += 1
                wall = float(header_field(header, "wall_ms") or 0)
                if spans:
                    rid = (c + 1) << 24 | request
                    parent = spans.add("server.request", t0, t1, request=rid)
                    spans.add("engine.mine", t1 - wall / 1e3, t1, parent, rid)
                with lock:
                    state["since_load"] += 1
                    if ok:
                        samples.append(((t1 - t0) * 1e3, wall, t1))
        except (OSError, ConnectionError, ValueError) as e:
            counter.record(False)
            errors.append(repr(e))
        finally:
            if conn:
                conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors:
        log("serve client error: " + e)
    return samples, load_ms, start


def request_metrics(samples, start):
    lat = sorted(s[0] for s in samples)
    n = len(lat)
    if n < 2:
        return dict(req_p50_ms=0.0, req_p90_ms=0.0, req_per_s=0.0), n
    q = statistics.quantiles(lat, n=10, method="inclusive")
    span = max(s[2] for s in samples) - start
    return dict(req_p50_ms=statistics.median(lat), req_p90_ms=q[8],
                req_per_s=n / span), n


def setup_times(inputs, work, reps):
    """setup_s samples: loads into a SequenceDatabase (batch), or seqmined
    launches until `listening` (serve)."""
    if not inputs.spec["loads"]:
        return helper("load", inputs.dbs[0], "--reps=%d" % reps)["load_s"]
    times = []
    for _ in range(reps):
        d = Daemon(inputs.dbs[0], socket_path(work, "setup.sock"))
        times.append(d.setup_s)
        d.stop()
    return times


def ratio_line(label, num_name, num, den_name, den):
    return "%s = %s / %s = %.4f s / %.4f s = %.3f" % (
        label, num_name, den_name, num, den, num / den if den else float("nan"))


def measure(name, seed, seconds, work):
    """--trace 0: every end-to-end metric."""
    counter = Counter()
    inputs = Inputs(name, seed, work)
    spec = inputs.spec
    setup = setup_times(inputs, work, 15)
    for b in ("seqmine", "seqmined"):  # page the binaries in
        subprocess.run([binary(b), "--help"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    times, rss = one_shot(inputs, work, counter, seconds * spec["batch_share"])
    daemon = Daemon(inputs.dbs[0], socket_path(work, "serve.sock"))
    try:
        samples, _, start = serve_loop(inputs, daemon, counter,
                                       seconds * (1 - spec["batch_share"]))
    finally:
        code, daemon_rss = daemon.stop()
    counter.record(code == 0)
    req, n = request_metrics(samples, start)
    metrics = dict(setup_s=median(setup),
                   mine_s=median(times["mine_s"]),
                   mine_mt_s=median(times["mine_mt_s"]),
                   dyn_s=median(times["dyn_s"]),
                   pseudo_s=median(times["pseudo_s"]),
                   peak_rss_mib=daemon_rss if spec["loads"] else median(rss),
                   **req)
    beyond = sum(1 for s in samples if s[0] > metrics["req_p90_ms"])
    print("%s seed=%d: %d patterns at minsup %g; %d one-shot rounds; "
          "%d requests (%d beyond p90)" % (
              name, seed, inputs.refs[0][spec["minsup"]][1], spec["minsup"],
              len(times["mine_s"]), n, beyond))
    print(ratio_line("Table 13 disc/pseudo", "mine_s", metrics["mine_s"],
                     "pseudo_s", metrics["pseudo_s"]))
    print(ratio_line("scaling t1/t%d" % THREADS, "mine_s", metrics["mine_s"],
                     "mine_mt_s", metrics["mine_mt_s"]))
    return counter, {k: dict(value=v, unit=E2E_UNITS[k]) for k, v in metrics.items()}


PER_LAYER_UNITS = {
    "seq.load_s": "s", "first_level.build_s": "s", "first_level.bytes": "bytes",
    "mine.disc_all_s": "s", "mine.disc_all_mt_s": "s", "mine.dyn_s": "s",
    "mine.pseudo_s": "s", "mine.peak_rss_mib": "MiB",
    "disc.iterations": "count", "disc.infrequent_skips": "count",
    "disc.frequent_buckets": "count", "kms.ckms_advances": "count",
    "kms.initial_scans": "count", "order.seq_compares": "count",
    "disc.encode.compares": "count", "disc.useful_ratio": "ratio",
    "counting_array.increments": "count", "counting_array.probes": "count",
    "partition.reduced_sequences": "count",
    "disc.partitions.second_level": "count", "mine.scaling_eff": "ratio",
    "pool.queue_wait_us.sum": "us", "pattern_set.rebuild_s": "s",
    "output.serialize_s": "s", "output.bytes": "bytes",
    "engine.mine_ms": "ms", "engine.wait_ms": "ms", "cache.hit_ratio": "ratio",
    "cache.hits": "count", "cache.misses": "count",
    "server.overhead_ms": "ms", "server.load_ms": "ms",
    "server.requests": "count", "obs.trace_overhead": "ratio",
}


def trace_overhead(inputs, work, counter, pairs, spans):
    """Paired seqmine disc-all runs, plain and with the program's own span
    tracer on (--trace-out); (traced - plain) / plain of the medians."""
    db, minsup = inputs.dbs[0], inputs.spec["minsup"]
    ref = inputs.refs[0][minsup][0]
    out = os.path.join(work, "out.txt")
    walls = {False: [], True: []}
    for traced in [t for i in range(pairs) for t in (i % 2, 1 - i % 2)]:
        argv = [binary("seqmine"), db, "--algo=disc-all", "--minsup=%g" % minsup,
                "--threads=1", "--quiet", "--out=" + out]
        if traced:
            argv.append("--trace-out=" + os.path.join(work, "program_trace.json"))
        t0 = time.perf_counter()
        code, wall, _ = run_process(argv)
        spans.add("obs.seqmine_traced" if traced else "obs.seqmine_plain",
                  t0, t0 + wall)
        counter.record(code == 0 and sha256_file(out) == ref)
        walls[bool(traced)].append(wall)
    plain = median(walls[False])
    return (median(walls[True]) - plain) / plain


def measure_layers(name, seed, seconds, work):
    """--trace 1: every per-layer metric, and the spans of the run."""
    counter = Counter()
    spans = Spans()
    inputs = Inputs(name, seed, work)
    spec = inputs.spec
    layer_spans = os.path.join(work, "layers_spans.json")
    engine_spans = os.path.join(work, "engine_spans.json")
    metrics = {}

    layers = helper("layers", inputs.dbs[0], "--minsup=%g" % spec["minsup"],
                    "--threads=%d" % THREADS, "--spans=" + layer_spans)
    counter.record(layers["agree"])
    if layers["counts_unstable"]:
        log("counts differ between two threads=1 runs: "
            + layers["counts_unstable"])
    counter.record(not layers["counts_unstable"])
    for key in PER_LAYER_UNITS:
        if key in layers:
            metrics[key] = layers[key]
    metrics["disc.useful_ratio"] = (
        layers["disc.frequent_buckets"] / layers["disc.iterations"]
        if layers["disc.iterations"] else 0.0)

    leg = seconds * 0.2
    engine = helper("engine", *inputs.dbs,
                    "--minsups=" + ",".join(map(str, spec["serve"])),
                    "--clients=%d" % CLIENTS,
                    "--session-threads=%d" % SESSION_THREADS,
                    "--seconds=%g" % leg,
                    "--spans=" + engine_spans)
    counter.add(int(engine["attempted"]), int(engine["failed"]))
    for key in ("engine.wait_ms", "cache.hit_ratio", "cache.hits", "cache.misses"):
        metrics[key] = engine[key]

    daemon = Daemon(inputs.dbs[0], socket_path(work, "serve.sock"))
    try:
        samples, load_ms, _ = serve_loop(
            inputs, daemon, counter, leg, spans,
            initial_loads=0 if spec["loads"] else 3)
    finally:
        code, _ = daemon.stop()
    counter.record(code == 0)
    metrics["engine.mine_ms"] = median([s[1] for s in samples])
    metrics["server.overhead_ms"] = median([s[0] - s[1] for s in samples])
    metrics["server.load_ms"] = median(load_ms)
    metrics["server.requests"] = len(samples)

    pairs = max(2, min(5, int(seconds * 0.3 / (2 * layers["mine.disc_all_s"] + 0.05))))
    metrics["obs.trace_overhead"] = trace_overhead(inputs, work, counter, pairs,
                                                   spans)

    # Each helper process numbers its spans from 1: move them apart.
    merged = list(spans.records)
    for n, path in enumerate((layer_spans, engine_spans), start=1):
        with open(path) as f:
            for s in json.load(f):
                s["id"] += n << 40
                s["parent"] += n << 40 if s["parent"] else 0
                merged.append(s)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    totals = self_times(merged)
    out = os.path.join(traces, "%s-seed%d.json" % (name, seed))
    with open(out, "w") as f:
        json.dump(dict(spans=merged, self_us={
            k: dict(count=v[0], total_us=v[1], self_us=v[2])
            for k, v in totals.items()}), f)
    print("%s seed=%d spans -> %s" % (name, seed, os.path.relpath(out, ROOT)))
    for span_name, (count, total, own) in sorted(totals.items()):
        print("  %-32s n=%-5d total %10.1f ms  self %10.1f ms" % (
            span_name, count, total / 1e3, own / 1e3))
    print("disc.useful_ratio = %d frequent buckets / %d iterations = %.4f" % (
        layers["disc.frequent_buckets"], layers["disc.iterations"],
        metrics["disc.useful_ratio"]))
    print("cache.hit_ratio = %d hits / (%d hits + %d misses) = %.3f" % (
        engine["cache.hits"], engine["cache.hits"], engine["cache.misses"],
        engine["cache.hit_ratio"]))
    return counter, {k: dict(value=metrics[k], unit=u)
                     for k, u in PER_LAYER_UNITS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    os.makedirs(work)
    try:
        run = measure_layers if args.trace else measure
        counter, metrics = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(dict(correct=counter.failed == 0,
                          attempted=max(1, counter.attempted),
                          failed=counter.failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
