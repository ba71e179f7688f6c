#!/usr/bin/env python3
"""Served benchmark of the gir reverse-rank stack.

    python3 perfbench/run.py --workload scan|churn|cluster --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds gir_serve, gir_router and
gir_perfbench from source (CMake, into .bench_build/), generates the
seeded inputs as files, starts the deployment over loopback, drives it
with 4 closed-loop clients and checks every answer its seed selects
against two in-process oracles. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger (README.md has the table). Exit code 0 on a correct run,
1 on a wrong answer, 2 when the run could not be made.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUNS = os.path.join(ROOT, ".bench_run")

# Python-side deployment of each workload; sizes and op mixes live in
# workload.cc. `tail_ops`: point mutations in a write-only phase after a
# read-only window, so the write metrics exist on every workload without
# touching its reads. Its 2000 insert/delete pairs leave each shard at
# about 18% churn, below the 25% compaction threshold.
WORKLOADS = {
    "scan": {"cluster": False, "tail_ops": 4000},
    "churn": {"cluster": False, "tail_ops": 0},
    "cluster": {"cluster": True, "tail_ops": 0},
}
# The served WAL is written but not fsync'd: on a disk shared with other
# tenants an fsync waits for their writeback too (the filesystem journal
# commits it alongside), so fsync'd write latency, and the throughput of
# the closed loop waiting on it, measured the neighbours. The WAL layer's
# own fsync cost is in the per-layer ledger (io.wal.*, layers.cc).
FSYNC_POLICY = "never"
SETUPS = 5          # deployments started per untraced run; setup_s = median
WARMUP_S = 2.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class RunError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---- build ---------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RunError("gir sources not found at %s" % ROOT)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another copy of the sources cannot
        # be reused; start it afresh.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "build.log")
    with open(out, "w") as logf:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]):
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT) != 0:
                raise RunError("build failed, see %s" % out)


def tool(name):
    return os.path.join(BUILD, name)


# ---- processes -----------------------------------------------------------

class Procs:
    """Every child process of the run; stop() ends and reaps them all."""

    def __init__(self):
        self.procs = []

    def start(self, args, logname):
        with open(logname, "w") as logf:
            p = subprocess.Popen(args, stdout=logf, stderr=subprocess.STDOUT)
        self.procs.append(p)
        return p

    def stop(self, procs=None):
        """SIGTERM (the servers drain and exit 0), then reap. Returns the
        exit codes."""
        procs = list(self.procs if procs is None else procs)
        for p in procs:
            if p.poll() is None:
                p.terminate()
        codes = []
        for p in procs:
            try:
                codes.append(p.wait(timeout=STOP_TIMEOUT_S))
            except subprocess.TimeoutExpired:
                p.kill()
                codes.append(p.wait())
            self.procs.remove(p)
        return codes


def ping(port):
    """One GIRNET01 PING round trip; True when answered kOk."""
    body = struct.pack("<BBHIQ", 1, 0, 0, 0, 1)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2.0) as s:
            s.sendall(b"GIRNET01" + struct.pack("<I", len(body)) + body)
            head = _recv(s, 4)
            reply = _recv(s, struct.unpack("<I", head)[0])
    except OSError:
        return False
    return len(reply) >= 2 and reply[0] == 1 and reply[1] == 0


def _recv(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise OSError("closed")
        buf += chunk
    return buf


def wait_ready(proc, port_file, deadline):
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RunError("%s exited with %d at start-up" % (proc.args[0], proc.returncode))
        if os.path.exists(port_file):
            with open(port_file) as f:
                text = f.read().strip()
            if text and ping(int(text)):
                return int(text)
        time.sleep(0.002)
    raise RunError("%s not ready after %.0f s" % (proc.args[0], START_TIMEOUT_S))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def start_single(procs, run_dir, tag):
    """gir_serve --shards 2 --scan-mode tau with a fresh WAL dir. Returns
    (front port, serving processes, setup seconds)."""
    d = fresh_dir(os.path.join(run_dir, tag))
    port_file = os.path.join(d, "port")
    t0 = time.monotonic()
    p = procs.start([tool("gir_serve"),
                     "--points", os.path.join(run_dir, "points.bin"),
                     "--weights", os.path.join(run_dir, "weights.bin"),
                     "--shards", "2", "--scan-mode", "tau",
                     "--wal-dir", fresh_dir(os.path.join(d, "wal")),
                     "--fsync-policy", FSYNC_POLICY,
                     "--port", "0", "--port-file", port_file],
                    os.path.join(d, "serve.log"))
    port = wait_ready(p, port_file, t0 + START_TIMEOUT_S)
    return port, [p], time.monotonic() - t0


def start_cluster(procs, run_dir, tag):
    """Two `gir_serve --shard-lane L` workers behind gir_router."""
    d = fresh_dir(os.path.join(run_dir, tag))
    envelope = os.path.join(run_dir, "shards.gir")
    t0 = time.monotonic()
    workers = []
    for lane in range(2):
        wd = fresh_dir(os.path.join(d, "lane%d" % lane))
        workers.append((procs.start(
            [tool("gir_serve"), "--index", envelope, "--shard-lane", str(lane),
             "--wal-dir", fresh_dir(os.path.join(wd, "wal")),
             "--fsync-policy", FSYNC_POLICY,
             "--port", "0", "--port-file", os.path.join(wd, "port")],
            os.path.join(wd, "serve.log")), os.path.join(wd, "port")))
    ports = [wait_ready(p, pf, t0 + START_TIMEOUT_S) for p, pf in workers]
    router_port_file = os.path.join(d, "router.port")
    router = procs.start(
        [tool("gir_router"), "--index", envelope,
         "--shards", ",".join("127.0.0.1:%d" % p for p in ports),
         "--port", "0", "--port-file", router_port_file],
        os.path.join(d, "router.log"))
    port = wait_ready(router, router_port_file, t0 + START_TIMEOUT_S)
    return port, [p for p, _ in workers] + [router], time.monotonic() - t0


def cpu_times():
    """(steal, total) jiffies from /proc/stat's aggregate cpu line."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_mb(procs):
    total_kb = 0
    for p in procs:
        with open("/proc/%d/status" % p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def perfbench(*args):
    cmd = [tool("gir_perfbench")] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RunError("%s failed (%d): %s" % (args[0], proc.returncode, proc.stdout.strip()))


def load(run_dir, workload, seed, port, seconds, tail_ops, out_name, spans=None):
    out = os.path.join(run_dir, out_name)
    args = ["load", "--workload", workload, "--seed", seed, "--port", port,
            "--data", run_dir, "--seconds", seconds, "--warmup", WARMUP_S,
            "--tail-ops", tail_ops, "--out", out]
    if spans:
        args += ["--spans", os.path.join(run_dir, spans)]
    perfbench(*args)
    with open(out) as f:
        return json.load(f)


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---- the two kinds of run ------------------------------------------------

def served_tallies(result):
    """(attempted, failed) of one load result; wrong answers are failures."""
    return result["attempted"], result["failed"] + result["wrong"]


def served_latency(res, cls):
    """(p50, tail, lowest tail percentile, samples) of one latency class
    of a load result, as medians over its sub-windows."""
    try:
        return benchlib.windowed_latency(res["lat_ms"][cls], res["lat_window"][cls],
                                         res["sub_windows"])
    except ValueError as e:
        raise RunError("%s: %s" % (cls, e))


def end_to_end(args, run_dir, procs):
    start = start_cluster if WORKLOADS[args.workload]["cluster"] else start_single
    t0 = time.monotonic()
    setups, live = [], None
    for i in range(SETUPS):
        port, serving, seconds = start(procs, run_dir, "deploy%d" % i)
        setups.append(seconds)
        if i + 1 < SETUPS:
            if any(procs.stop(serving)):
                raise RunError("a server did not drain cleanly")
        else:
            live = (port, serving)
    port, serving = live
    # The drained deployments wrote their shutdown checkpoints; flush them
    # so their writeback does not land in the measured window.
    os.sync()
    steal0, total0 = cpu_times()
    t1 = time.monotonic()
    res = load(run_dir, args.workload, args.seed, port, args.seconds,
               WORKLOADS[args.workload]["tail_ops"], "load.json")
    t2 = time.monotonic()
    steal1, total1 = cpu_times()
    rss = peak_rss_mb(serving)
    if any(procs.stop(serving)):
        raise RunError("a server did not drain cleanly")

    metrics, notes = {}, []
    metrics["setup_s"] = statistics.median(setups)
    for cls in ("rtk", "rkr", "write"):
        p50, tail, pct, n = served_latency(res, cls)
        metrics[cls + "_p50_ms"] = p50
        notes.append("%s: %d samples, p50 %.3f ms, tail %.3f ms at p%.2f or above"
                     % (cls, n, p50, tail, pct))
    windows = res["sub_windows"]
    metrics["query_qps"] = (statistics.median(res["answered_by_window"])
                            / (float(args.seconds) / windows))
    metrics["server_rss_mb"] = rss
    attempted, failed = served_tallies(res)
    log("samples: " + "; ".join(notes))
    # Time the hypervisor gave to other guests; a noisy neighbour shows here.
    log("host cpu steal during the load: %.1f%%"
        % (100.0 * benchlib.ratio(steal1 - steal0, total1 - total0)))
    log("checked %d answers against the replica (1 in %d queries) and %d against "
        "the reference (1 in %d), chosen by seed; wrong %d, failed_frac %.6f"
        % (res["checked"], res["check_every"], res["referenced"], res["reference_every"],
           res["wrong"], benchlib.failed_frac(attempted, failed)))
    if res["first_error"]:
        log("first error: " + res["first_error"])
    log("wall time: %.1f s start-ups, %.1f s load, %.1f s of it checking answers"
        % (t1 - t0, t2 - t1, res["check_s"]))
    return res["wrong"] == 0, attempted, failed, metrics


def per_layer(args, run_dir, procs):
    cluster = WORKLOADS[args.workload]["cluster"]
    tail_ops = WORKLOADS[args.workload]["tail_ops"]
    port, serving, _ = (start_cluster if cluster else start_single)(procs, run_dir, "traced")
    os.sync()
    res = load(run_dir, args.workload, args.seed, port, args.seconds, tail_ops,
               "traced.json", spans="served.spans")
    if any(procs.stop(serving)):
        raise RunError("a server did not drain cleanly")
    served = read_spans(os.path.join(run_dir, "served.spans"))
    results = [res]
    single_spans = served
    if cluster:
        # The same traffic against one gir_serve: dist self time is the
        # cluster's latency minus this on the same op. Half the window
        # still pairs thousands of ops and keeps the run within its time.
        port, serving, _ = start_single(procs, run_dir, "traced_single")
        os.sync()
        single = load(run_dir, args.workload, args.seed, port, args.seconds / 2.0,
                      tail_ops, "traced_single.json", spans="single.spans")
        if any(procs.stop(serving)):
            raise RunError("a server did not drain cleanly")
        single_spans = read_spans(os.path.join(run_dir, "single.spans"))
        results.append(single)
    # The replay starts where the run it is paired with (server.self_us)
    # started measuring.
    perfbench("layers", "--workload", args.workload, "--seed", args.seed,
              "--data", run_dir, "--out", os.path.join(run_dir, "layers.json"),
              "--spans", os.path.join(run_dir, "layers.spans"),
              "--from", ",".join("%d" % v for v in results[-1]["first_measured"]))
    with open(os.path.join(run_dir, "layers.json")) as f:
        direct = json.load(f)
    layer_spans = read_spans(os.path.join(run_dir, "layers.spans"))
    metrics = layer_metrics(res, direct, served, single_spans, layer_spans, cluster)
    tallies = [served_tallies(r) for r in results]
    attempted = sum(a for a, _ in tallies)
    failed = sum(f for _, f in tallies)
    wrong = sum(r["wrong"] for r in results) + direct["replay_mismatches"]
    log("layer replay: %d ops after %d untimed mutations, %d answers checked "
        "against the reference, %d mismatches; server.self_us over %d ops"
        % (direct["replay_ops"], direct["replay_prefix"], direct["replay_referenced"],
           direct["replay_mismatches"], metrics["server.self_samples"]))
    metrics["failed_frac"] = benchlib.failed_frac(attempted, failed)
    return wrong == 0, attempted, failed, metrics


def layer_metrics(res, direct, served, single_spans, layer_spans, cluster):
    m = {k: v for k, v in direct.items() if not k.startswith("replay_")}

    mutations = ("insert_point", "delete_point", "insert_weight", "delete_weight")
    for kind in mutations:
        d = benchlib.durations_us(layer_spans, "grid.dynamic." + kind)
        m["grid.dynamic.%s_us" % kind] = benchlib.median(d) or 0.0
    m["grid.sharded.query_self_us"] = _query_self(
        layer_spans, "grid.sharded.", "grid.dynamic.")
    sharded_muts = [v for kind in mutations
                    for v in benchlib.durations_us(layer_spans, "grid.sharded." + kind)]
    m["grid.sharded.mutation_p50_us"] = benchlib.median(sharded_muts) or 0.0
    tail = benchlib.tail_percentile(sharded_muts)[0] if sharded_muts else None
    m["grid.sharded.mutation_p99_us"] = tail or 0.0
    mut_ops = {s["op"] for s in layer_spans
               if s["name"].split(".")[-1] in mutations and s["name"].startswith("sharded_wal.")}
    m["io.wal.append_us"] = benchlib.median_self_time(
        layer_spans, "sharded_wal.", "grid.sharded.", ops=mut_ops)

    stats = benchlib.parse_stats(res["stats"])
    shard_stat = lambda key: [v for k, v in stats.items() if k.startswith("shard") and k.endswith("." + key)]
    m["grid.sharded.bg_compactions"] = sum(shard_stat("bg_compactions"))
    m["grid.sharded.queue_depth_max"] = res["queue_depth_max"]

    # server: served latency minus the in-process call on the same op, over
    # the replayed stretch of the measured window.
    server_self = _query_self_times(single_spans + layer_spans, "served.", "sharded_wal.")
    m["server.self_us"] = benchlib.median(server_self) or 0.0
    m["server.self_samples"] = len(server_self)
    hits, misses = stats.get("cache_hits", 0.0), stats.get("cache_misses", 0.0)
    writes = stats.get("mutations_applied", 0.0)
    m["server.mean_batch_queries"] = benchlib.ratio(
        stats.get("queries_completed", 0.0) - hits, stats.get("batches_dispatched", 0.0))
    m["server.cache_hit_rate"] = benchlib.ratio(hits, hits + misses)
    m["server.cache_extensions_per_write"] = benchlib.ratio(stats.get("cache_extensions", 0.0), writes)
    m["server.cache_invalidations_per_write"] = benchlib.ratio(stats.get("cache_invalidations", 0.0), writes)
    m["server.cache_evictions"] = stats.get("cache_evictions", 0.0)
    m["server.rejected_overload"] = stats.get("rejected_overload", 0.0)

    # dist: only the cluster workload routes; elsewhere the layer is absent (0).
    if cluster:
        dist_self = _query_self_times(
            _relabel(served, "cluster.") + _relabel(single_spans, "single."),
            "cluster.served.", "single.served.")
        m["dist.self_us"] = benchlib.median(dist_self) or 0.0
        m["dist.self_samples"] = len(dist_self)
        requests = shard_stat("requests")
        m["dist.retries"] = sum(shard_stat("retries"))
        m["dist.failures"] = sum(shard_stat("failures"))
        m["dist.degraded_queries"] = stats.get("router.degraded_queries", 0.0)
        m["dist.shard_request_skew"] = (
            benchlib.ratio(max(requests), min(requests)) if requests else 0.0)
    else:
        for name in ("dist.self_us", "dist.self_samples", "dist.retries", "dist.failures",
                     "dist.degraded_queries", "dist.shard_request_skew"):
            m[name] = 0.0

    for cls in ("rtk", "rkr", "write"):
        m["served.%s_samples" % cls] = len(res["lat_ms"][cls])
        # Tails are per-layer: they did not repeat within a tenth across
        # seeds on this shared host (README.md).
        m["served.%s_p99_ms" % cls] = served_latency(res, cls)[1]
    return m


def _relabel(spans, prefix):
    return [dict(s, name=prefix + s["name"]) for s in spans]


def _query_ops(spans, layer):
    return {s["op"] for s in spans
            if s["name"].startswith(layer) and s["name"].split(".")[-1] in ("rtk", "rkr")}


def _query_self_times(spans, parent, child):
    return benchlib.self_times(spans, parent, child, ops=_query_ops(spans, parent))


def _query_self(spans, parent, child):
    return benchlib.median(_query_self_times(spans, parent, child)) or 0.0


def declared_units(section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    procs = Procs()
    run_dir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        build()
        fresh_dir(run_dir)
        gen = ["gen", "--seed", args.seed, "--out", run_dir]
        perfbench(*(gen + (["--envelope"] if WORKLOADS[args.workload]["cluster"] else [])))
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(args, run_dir, procs)
    except (RunError, OSError, subprocess.SubprocessError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        procs.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass  # another run's directory is still there

    units = declared_units("per_layer" if args.trace else "end_to_end")
    problem = benchlib.metric_set_problem(metrics, units)
    if problem:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
