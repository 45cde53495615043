#!/usr/bin/env python
"""Load generator for the proving service: throughput/latency under a
sustained mixed prove/verify workload.

Spawns a real ``repro serve`` daemon (its own process, unix socket),
replays a mixed request stream from concurrent clients, then replays the
prove set a second time to measure the proof cache and assert that every
cached envelope is **byte-identical** to its first-run counterpart.
Per-request latencies are kept as plain lists (one per thread,
concatenated at the end) and reported as exact quantiles
(``statistics.quantiles``, method ``inclusive``), which
``tools/bench_diff.py`` gates.

Writes ``BENCH_service.json`` (schema ``bench-service-v2``: exact
quantiles, no bucket blobs) with latency quantiles per job kind, throughput, queue high-water marks, and
cache hit rates.  Exit status is nonzero if any job was dropped — a
submission that neither completed nor failed typed — or a cached repeat
came back with different bytes.

Run:
    PYTHONPATH=src python tools/bench_service.py [--quick] \
        [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import QueueFullError, ServiceClient  # noqa: E402

#: Workloads in the request mix (small enough for the test preset to
#: keep a CI run under a minute, distinct enough to exercise the key
#: cache across statements).
WORKLOADS = ("litmus", "sha", "aes")

#: Distinct seeds per workload in the cold phase; the repeat phase
#: replays the same (workload, seed) pairs so every one is a cache hit.
SEEDS = (1, 2, 3)


class Worker(threading.Thread):
    """One bench client: drains the shared request list, records
    per-request latency, retries 429 backpressure with backoff."""

    def __init__(self, idx, sock_path, requests, lock, results):
        super().__init__(name=f"bench-client-{idx}", daemon=True)
        self.sock_path = sock_path
        self.client_id = f"bench-{idx}"
        self.requests = requests
        self.lock = lock
        self.results = results
        self.latencies = {"prove": [], "verify": []}
        self.failures = []
        self.backpressure_retries = 0

    def run(self):
        with ServiceClient(self.sock_path,
                           client_id=self.client_id) as svc:
            while True:
                with self.lock:
                    if not self.requests:
                        return
                    req = self.requests.pop()
                self._one(svc, req)

    def _one(self, svc, req):
        kind, workload, seed, envelope = req
        t0 = time.perf_counter()
        backoff = 0.05
        while True:
            try:
                if kind == "prove":
                    env = svc.prove(workload, seed=seed, wait_s=300)
                    with self.lock:
                        self.results.setdefault((workload, seed),
                                                env)
                else:
                    if not svc.verify(envelope, wait_s=300):
                        self.failures.append(
                            (kind, workload, seed, "verify returned False"))
                break
            except QueueFullError:
                # Backpressure is the contract, not a failure: back off
                # and resubmit (t0 keeps counting — the queue wait is
                # part of the latency a saturating client observes).
                self.backpressure_retries += 1
                time.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
            except Exception as exc:  # noqa: BLE001 - tallied, not fatal
                self.failures.append(
                    (kind, workload, seed, f"{type(exc).__name__}: {exc}"))
                break
        self.latencies[kind].append(time.perf_counter() - t0)


def start_daemon(sock_path, preset, queue_depth):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--unix-socket", sock_path, "--preset", preset,
         "--queue-depth", str(queue_depth)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise SystemExit(
                f"bench_service: daemon exited early ({proc.returncode}):"
                f"\n{out}")
        if os.path.exists(sock_path):
            try:
                with ServiceClient(sock_path, connect_timeout_s=2) as svc:
                    svc.ping()
                return proc
            except OSError:
                pass
        time.sleep(0.05)
    proc.kill()
    raise SystemExit("bench_service: daemon never came up")


def run_phase(sock_path, requests, concurrency, results):
    """Drive ``requests`` through ``concurrency`` clients; returns
    (latencies by kind, failures, backpressure retries, wall seconds)."""
    pending = list(requests)
    lock = threading.Lock()
    workers = [Worker(i, sock_path, pending, lock, results)
               for i in range(concurrency)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall = time.perf_counter() - t0
    latencies = {"prove": [], "verify": []}
    failures, retries = [], 0
    for w in workers:
        for kind in latencies:
            latencies[kind] += w.latencies[kind]
        failures.extend(w.failures)
        retries += w.backpressure_retries
    return latencies, failures, retries, wall


def latency_summary(samples):
    """Count, mean and exact p50/p99 of one list of latencies (every
    list this bench summarizes has at least one sample per workload)."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"count": len(samples), "p50_s": round(cuts[49], 6),
            "p99_s": round(cuts[98], 6),
            "mean_s": round(statistics.fmean(samples), 6)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized run (still >= 50 mixed requests)")
    ap.add_argument("--requests", type=int, default=None, metavar="N",
                    help="total mixed requests (default 120, quick 54)")
    ap.add_argument("--concurrency", type=int, default=4, metavar="C",
                    help="concurrent bench clients (default 4)")
    ap.add_argument("--preset", default="test-fast",
                    help="security preset for prove jobs (default "
                         "%(default)s)")
    ap.add_argument("--queue-depth", type=int, default=32, metavar="N",
                    help="daemon queue bound (default 32: small enough "
                         "that the bench exercises backpressure)")
    ap.add_argument("--out", default="BENCH_service.json", metavar="PATH",
                    help="report path (default %(default)s)")
    args = ap.parse_args(argv)

    total = args.requests or (54 if args.quick else 120)
    if total < 50:
        raise SystemExit("bench_service: need >= 50 requests for a "
                         "meaningful mixed-load run")

    sock_dir = tempfile.mkdtemp(prefix="repro-bench-svc-")
    sock_path = os.path.join(sock_dir, "repro.sock")
    print(f"bench_service: starting daemon (preset {args.preset}, "
          f"queue {args.queue_depth}) ...")
    proc = start_daemon(sock_path, args.preset, args.queue_depth)

    try:
        # -- cold + mixed phase ------------------------------------------
        # Seed one envelope per workload for the verify mix, serially,
        # so every verify request has a real proof to check.
        results = {}
        seed_lat, seed_fail, _, _ = run_phase(
            sock_path, [("prove", w, SEEDS[0], None) for w in WORKLOADS],
            1, results)
        if seed_fail:
            raise SystemExit(f"bench_service: seeding failed: {seed_fail}")

        pairs = list(itertools.product(WORKLOADS, SEEDS))
        mixed, prove_i = [], 0
        for i in range(total - len(WORKLOADS)):
            if i % 3 == 2:  # 1 verify : 2 proves
                workload = WORKLOADS[i % len(WORKLOADS)]
                mixed.append(("verify", workload, SEEDS[0],
                              results[(workload, SEEDS[0])]))
            else:
                workload, seed = pairs[prove_i % len(pairs)]
                prove_i += 1
                mixed.append(("prove", workload, seed, None))
        proves = sum(1 for r in mixed if r[0] == "prove")
        print(f"bench_service: mixed phase — {len(mixed)} requests "
              f"({proves} prove / {len(mixed) - proves} verify) across "
              f"{args.concurrency} clients ...")
        lat, failures, retries, wall = run_phase(
            sock_path, mixed, args.concurrency, results)
        for kind in lat:
            lat[kind] += seed_lat[kind]
        all_lat = lat["prove"] + lat["verify"]
        done = len(all_lat) - len(failures)

        # -- repeat phase: every prove again, expecting cached bytes -----
        repeat_results = {}
        repeat = [("prove", w, s, None) for (w, s) in sorted(results)]
        print(f"bench_service: repeat phase — {len(repeat)} cached "
              "proves ...")
        rep_lat, rep_fail, _, rep_wall = run_phase(
            sock_path, repeat, args.concurrency, repeat_results)
        byte_identical = not rep_fail and all(
            repeat_results.get(k) == results[k] for k in results)

        with ServiceClient(sock_path) as svc:
            stats = svc.stats()
            svc.shutdown_server()
        daemon_out = ""
        try:
            daemon_out = proc.communicate(timeout=60)[0] or ""
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("bench_service: daemon refused to shut down")
        if proc.returncode != 0:
            raise SystemExit(f"bench_service: daemon exited "
                             f"{proc.returncode}:\n{daemon_out}")
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()

    proof_hits = stats["proof_cache"]["hits"]
    proof_lookups = proof_hits + stats["proof_cache"]["misses"]
    repeat_summary = latency_summary(rep_lat["prove"])
    total_requests = len(all_lat) + repeat_summary["count"]

    report = {
        "schema": "bench-service-v2",
        "quick": bool(args.quick),
        "preset": args.preset,
        "config": {
            "requests": total, "concurrency": args.concurrency,
            "queue_depth": args.queue_depth, "workloads": list(WORKLOADS),
            "seeds_per_workload": len(SEEDS),
        },
        "totals": {
            "requests": total_requests,
            "completed": done + repeat_summary["count"] - len(rep_fail),
            "failed": len(failures) + len(rep_fail),
            "dropped_on_crash": 0 if proc.returncode == 0 else None,
            "backpressure_retries": retries,
        },
        "latency": {
            "prove": latency_summary(lat["prove"]),
            "verify": latency_summary(lat["verify"]),
            "all": latency_summary(all_lat),
        },
        "throughput_rps": round(len(all_lat) / wall, 3) if wall else 0.0,
        "wall_s": round(wall, 3),
        "queue": stats["queue"],
        "pk_cache": stats["pk_cache"],
        "proof_cache": dict(stats["proof_cache"],
                            hit_rate=round(proof_hits / proof_lookups, 4)
                            if proof_lookups else 0.0),
        "repeat": {
            "requests": repeat_summary["count"],
            "byte_identical": byte_identical,
            "p50_s": repeat_summary["p50_s"],
            "wall_s": round(rep_wall, 3),
        },
        "failures": [list(f) for f in failures + rep_fail][:20],
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    overall = report["latency"]["all"]
    print(f"bench_service: {total_requests} requests, "
          f"{report['totals']['failed']} failed, "
          f"{retries} backpressure retries")
    print(f"  latency p50 {overall['p50_s']:.4g}s  "
          f"p99 {overall['p99_s']:.4g}s  "
          f"throughput {report['throughput_rps']:.1f} req/s")
    print(f"  queue peak {stats['queue']['peak_depth']}/"
          f"{stats['queue']['max_depth']}  proof-cache hit rate "
          f"{report['proof_cache']['hit_rate']:.0%}  repeat "
          f"byte-identical: {byte_identical}")
    print(f"wrote {args.out}")

    if failures or rep_fail:
        print("FAIL: jobs were dropped or failed", file=sys.stderr)
        return 1
    if not byte_identical:
        print("FAIL: cached repeat envelopes differ from first run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
