"""The four workloads: what one cycle is, how it is checked, what it
leaves behind.

Rule 1 of the benchmark: every timing sample is one *cycle* — a fixed
list of statements, identical work every time — never one item of a
mixed list.  Each workload drives the program only through its public
names (``repro.setup/prove/prove_many/verify/ProofBundle/PAPER/
ServiceClient``, ``python -m repro serve``, the synthetic generator and
the circuit registry), checks every output, and counts failures instead
of raising.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import repro
from repro import PAPER, ProofBundle, ServiceClient, prove, prove_many, setup, verify
from repro.errors import DeserializationError
from repro.service import protocol
from repro.workloads.registry import build_workload
from repro.workloads.synthetic import synthetic_r1cs

import defs
import host

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class BenchFailure(Exception):
    """The program answered, and the answer was wrong."""


class Tally:
    """Operations attempted and failed.  A refused, timed-out or wrong
    answer is a failed operation, never an exception."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def attempt(self, what: str, fn: Callable, *args, **kwargs):
        """One counted operation: ``fn``'s value, or None when it raised
        (the failure is recorded with its traceback on stderr)."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the benchmark keeps running
            traceback.print_exc(file=sys.stderr)
            self.check(f"{what}: {type(exc).__name__}: {exc}", False)
            return None
        self.check(what, True)
        return value

    def merge(self, attempted: int, failed: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures)


@dataclass
class Statement:
    """One (keys, public, witness) the cycle proves, and what it cost to
    build."""

    circuit_id: str
    pk: object
    vk: object
    public: object
    witness: object
    build_s: float


@dataclass
class Cycle:
    """Timings and outputs of one cycle.

    ``calib_prove_s`` / ``calib_verify_s`` are the host-speed reference
    (:class:`host.Calibrator`) measured beside the proving and the
    verifying half; the ``*_ref_s`` properties are the timings at
    reference speed.
    """

    prove_s: float
    ser_s: float
    verify_s: float
    #: (statement index, envelope bytes) per proof, in proving order.
    envelopes: List[Tuple[int, bytes]] = field(default_factory=list)
    #: Cache-hit repeat round trip (service workload only).
    cached_s: float = 0.0
    calib_prove_s: float = defs.CALIB_REF_S
    calib_verify_s: float = defs.CALIB_REF_S
    #: The whole cycle, first call to last answer, calibration bursts
    #: taken out: what the closed loop spends per cycle (set by
    #: :meth:`Workload.cycle`).
    loop_s: float = 0.0

    @property
    def proofs(self) -> int:
        return len(self.envelopes)

    @property
    def nbytes(self) -> int:
        return sum(len(env) for _i, env in self.envelopes)

    @property
    def link_s(self) -> float:
        """Envelope bytes over the paper's modelled 10 MB/s link."""
        return self.nbytes / defs.LINK_BYTES_PER_S

    @property
    def e2e_s(self) -> float:
        """The paper's end-to-end time: prover + send at 10 MB/s +
        verifier (Table 5)."""
        return self.prove_s + self.ser_s + self.link_s + self.verify_s

    # The verifying half's calibration also covers serialisation and the
    # cache-hit repeat, which run next to it.
    @property
    def prove_ref_s(self) -> float:
        return self.prove_s * defs.CALIB_REF_S / self.calib_prove_s

    @property
    def ser_ref_s(self) -> float:
        return self.ser_s * defs.CALIB_REF_S / self.calib_verify_s

    @property
    def cached_ref_s(self) -> float:
        return self.cached_s * defs.CALIB_REF_S / self.calib_verify_s

    @property
    def verify_ref_s(self) -> float:
        return self.verify_s * defs.CALIB_REF_S / self.calib_verify_s

    @property
    def e2e_ref_s(self) -> float:
        """End-to-end time at reference speed; the modelled link does not
        depend on the host."""
        return (self.prove_ref_s + self.ser_ref_s + self.link_s
                + self.verify_ref_s)

    @property
    def loop_ref_s(self) -> float:
        """``loop_s`` scaled by the cycle's duration-weighted speed."""
        timed = self.prove_s + self.ser_s + self.cached_s + self.verify_s
        timed_ref = (self.prove_ref_s + self.ser_ref_s + self.cached_ref_s
                     + self.verify_ref_s)
        return self.loop_s * timed_ref / timed if timed else 0.0


def synthetic_statement(log_size: int, seed: int) -> Statement:
    t0 = time.perf_counter()
    r1cs, public, witness = synthetic_r1cs(log_size, seed=seed)
    build_s = time.perf_counter() - t0
    pk, vk = setup(r1cs, preset=PAPER)
    return Statement(f"synthetic-2p{log_size}", pk, vk, public, witness,
                     build_s)


def registry_statement(name: str) -> Statement:
    t0 = time.perf_counter()
    circuit_id, circuit = build_workload(name)
    r1cs, public, witness = circuit.compile()
    build_s = time.perf_counter() - t0
    pk, vk = setup(r1cs, preset=PAPER)
    return Statement(circuit_id, pk, vk, public, witness, build_s)


def flip_byte(envelope: bytes) -> bytes:
    """``envelope`` with one bit of its middle byte flipped (the proof
    payload is all but the first few dozen bytes)."""
    bad = bytearray(envelope)
    bad[len(bad) // 2] ^= 0x01
    return bytes(bad)


class Workload:
    """Shared shape: build, cycle, checks, close."""

    name = ""

    def __init__(self, scale: defs.Scale, seed: int, tally: Tally,
                 out_dir: str):
        self.scale = scale
        self.seed = seed
        self.tally = tally
        self.out_dir = out_dir
        self.statements: List[Statement] = []
        self.peak_rss_mb = 0.0
        #: Host-speed reference, attached for the timed window.
        self.cal: Optional[host.Calibrator] = None
        self._speed = (0.0, defs.CALIB_REF_S)  # (taken at, burst seconds)

    def prove_seed(self, k: int) -> int:
        """Seed of cycle ``k``'s proofs, derived from ``--seed``."""
        return self.seed * 1_000_003 + k

    def speed(self, reuse: bool = False) -> float:
        """One burst of the host-speed reference (the reference value
        itself when no calibrator is attached).  ``reuse`` takes the last
        burst instead when it ended a moment ago — a cycle's closing burst
        opens the next cycle."""
        if self.cal is None:
            return defs.CALIB_REF_S
        taken_at, burst_s = self._speed
        if not (reuse and time.perf_counter() - taken_at < 0.05):
            burst_s = self.cal.burst()
            self._speed = (time.perf_counter(), burst_s)
        return burst_s

    def build(self) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> Optional[Cycle]:
        """Run cycle ``k`` as one counted operation; None when it failed."""
        def calibrating_s() -> float:
            return self.cal.spent_s if self.cal is not None else 0.0

        t0, spent0 = time.perf_counter(), calibrating_s()
        cycle = self.tally.attempt(f"{self.name} cycle {k}", self._cycle, k)
        if cycle is not None:
            cycle.loop_s = (time.perf_counter() - t0
                            - (calibrating_s() - spent0))
        return cycle

    def _cycle(self, k: int) -> Cycle:
        raise NotImplementedError

    def rejects(self, index: int, envelope: bytes) -> bool:
        """True when the program rejects ``envelope`` for statement
        ``index`` (a parse error is a rejection)."""
        st = self.statements[index]
        try:
            return not verify(st.vk, ProofBundle.from_bytes(envelope))
        except DeserializationError:
            return True

    def tamper_check(self, cycle: Cycle) -> None:
        """One byte flipped in a payload must be rejected (outside the
        timings: run on the warm-up cycle and after the window)."""
        index, envelope = cycle.envelopes[0]
        rejected = self.tally.attempt(
            "tampered envelope", self.rejects, index, flip_byte(envelope))
        if rejected is not None:
            self.tally.check("tampered envelope rejected", rejected)

    def warm_checks(self, cycle: Cycle) -> None:
        self.tamper_check(cycle)

    def close(self) -> None:
        """Stop everything the workload started, record the high-water
        RSS of the process that proved, and run the leak checks."""
        from repro.parallel import shutdown

        shutdown()
        self.peak_rss_mb = max(host.self_peak_rss_mb(),
                               host.children_peak_rss_mb())
        self.tally.check("no shm segment left by this process",
                         not host.shm_segments_of([os.getpid()]))


class DirectWorkload(Workload):
    """Serial ``prove`` -> ``to_bytes`` -> ``from_bytes`` -> ``verify`` of
    one synthetic banded R1CS."""

    def __init__(self, name: str, log_size: int, *args):
        super().__init__(*args)
        self.name = name
        self.log_size = log_size

    def build(self) -> None:
        self.statements = [synthetic_statement(self.log_size, self.seed)]

    def _cycle(self, k: int) -> Cycle:
        st = self.statements[0]
        c0 = self.speed(reuse=True)
        t0 = time.perf_counter()
        bundle = prove(st.pk, st.public, st.witness, seed=self.prove_seed(k),
                       circuit_id=st.circuit_id)
        t1 = time.perf_counter()
        c1 = self.speed()
        t2 = time.perf_counter()
        envelope = bundle.to_bytes()
        t3 = time.perf_counter()
        valid = verify(st.vk, ProofBundle.from_bytes(envelope))
        t4 = time.perf_counter()
        c2 = self.speed()
        if not valid:
            raise BenchFailure("proof rejected")
        return Cycle(t1 - t0, t3 - t2, t4 - t3, [(0, envelope)],
                     calib_prove_s=(c0 + c1) / 2, calib_verify_s=(c1 + c2) / 2)


class BatchWorkload(Workload):
    """Registry circuits, four jobs each through ``prove_many``, then
    every envelope verified."""

    name = "batch_small"

    def build(self) -> None:
        self.workers = host.bench_workers()
        self.statements = [registry_statement(n) for n in self.scale.registry]

    def _cycle(self, k: int, workers: Optional[int] = None) -> Cycle:
        workers = self.workers if workers is None else workers
        prove_s = ser_s = 0.0
        envelopes: List[Tuple[int, bytes]] = []
        c0 = self.speed(reuse=True)
        for index, st in enumerate(self.statements):
            jobs = [(st.public, st.witness)] * defs.BATCH_JOBS_PER_CIRCUIT
            t0 = time.perf_counter()
            bundles = prove_many(st.pk, jobs, workers=workers,
                                 base_seed=self.prove_seed(k),
                                 circuit_id=st.circuit_id)
            t1 = time.perf_counter()
            blobs = [b.to_bytes() for b in bundles]
            t2 = time.perf_counter()
            prove_s += t1 - t0
            ser_s += t2 - t1
            envelopes.extend((index, blob) for blob in blobs)
        c1 = self.speed()
        t0 = time.perf_counter()
        for index, blob in envelopes:
            if not verify(self.statements[index].vk,
                          ProofBundle.from_bytes(blob)):
                raise BenchFailure(
                    f"{self.statements[index].circuit_id} proof rejected")
        verify_s = time.perf_counter() - t0
        c2 = self.speed()
        return Cycle(prove_s, ser_s, verify_s, envelopes,
                     calib_prove_s=(c0 + c1) / 2, calib_verify_s=(c1 + c2) / 2)

    def warm_checks(self, cycle: Cycle) -> None:
        """Besides the tamper check: the warm-up cycle proved once more
        serially must give the same bytes as the pool gave."""
        self.tamper_check(cycle)
        serial = self.tally.attempt("serial re-prove of warm-up cycle",
                                    self._cycle, 0, 1)
        if serial is not None:
            self.tally.check("pooled bytes equal serial bytes",
                             serial.envelopes == cycle.envelopes)


class Daemon:
    """A real ``python -m repro serve`` child on a unix socket."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        # Relative to the working directory: a unix socket path holds at
        # most ~107 bytes and the checkout may sit deep in the tree.
        self.sock_path = os.path.relpath(
            os.path.join(out_dir, f"serve.{os.getpid()}.sock"))
        self.log_path = os.path.join(out_dir, f"serve.{os.getpid()}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.start_s = 0.0

    def start(self, timeout_s: float = 60.0) -> ServiceClient:
        """Spawn the daemon and return a connected client; ``start_s`` is
        spawn to first answered ping."""
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--unix-socket", self.sock_path,
                 "--preset", defs.PRESET_NAME],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        while time.perf_counter() - t0 < timeout_s:
            if self.proc.poll() is not None:
                raise BenchFailure(
                    f"daemon exited early with code {self.proc.returncode}")
            if os.path.exists(self.sock_path):
                try:
                    client = ServiceClient(self.sock_path)
                    client.ping()
                except OSError:
                    pass
                else:
                    self.start_s = time.perf_counter() - t0
                    return client
            time.sleep(0.005)
        raise BenchFailure("daemon never answered a ping")

    @property
    def pid(self) -> int:
        return self.proc.pid if self.proc is not None else -1

    def stop(self, client: Optional[ServiceClient], tally: Tally) -> float:
        """Drain and stop the daemon; returns its high-water RSS (MB),
        read just before.  Every leak check is a counted operation."""
        if self.proc is None:
            return 0.0
        peak = host.pid_peak_rss_mb(self.pid)
        if client is not None and self.proc.poll() is None:
            tally.attempt("daemon shutdown request", client.shutdown_server)
            client.close()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            code = None
            self.proc.kill()
            self.proc.wait()
        tally.check("repro serve child drained and exited 0, none left "
                    "alive", code == 0)
        tally.check("socket file removed",
                    not os.path.exists(self.sock_path))
        tally.check("no shm segment left by the daemon",
                    not host.shm_segments_of([self.pid]))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        if code == 0:
            os.unlink(self.log_path)  # kept only when something went wrong
        return peak


class ServiceWorkload(Workload):
    """One closed-loop ``ServiceClient`` against a real daemon: cold prove
    with a fresh seed, the identical request again (a cache hit with
    identical bytes), then ``verify`` of the envelope."""

    name = "service_sha"

    def __init__(self, *args):
        super().__init__(*args)
        self.daemon = Daemon(self.out_dir)
        self.client: Optional[ServiceClient] = None
        self.rss_at_cycle_mb = 0.0

    def build(self) -> None:
        self.client = self.daemon.start()

    def _cycle(self, k: int) -> Cycle:
        client, seed = self.client, self.prove_seed(k)
        c0 = self.speed(reuse=True)
        t0 = time.perf_counter()
        envelope = client.prove(defs.SERVICE_CIRCUIT, seed=seed)
        t1 = time.perf_counter()
        job_id = client.submit("prove", circuit_id=defs.SERVICE_CIRCUIT,
                               seed=seed)
        reply = client.result(job_id)
        repeat = protocol.decode_blob(str(reply.get("envelope", "")))
        t2 = time.perf_counter()
        valid = client.verify(envelope)
        t3 = time.perf_counter()
        calib_s = (c0 + self.speed()) / 2
        if not reply.get("cached"):
            raise BenchFailure("identical request was not a cache hit")
        if repeat != envelope:
            raise BenchFailure("cache hit returned different bytes")
        if not valid:
            raise BenchFailure("proof rejected")
        return Cycle(t1 - t0, 0.0, t3 - t2, [(0, envelope)], cached_s=t2 - t1,
                     calib_prove_s=calib_s, calib_verify_s=calib_s)

    def cycle(self, k: int) -> Optional[Cycle]:
        cycle = super().cycle(k)
        if k == defs.SERVICE_RSS_AT_CYCLE:
            self.rss_at_cycle_mb = host.pid_peak_rss_mb(self.daemon.pid)
        return cycle

    def rejects(self, index: int, envelope: bytes) -> bool:
        try:
            return not self.client.verify(envelope)
        except DeserializationError:
            return True

    def close(self) -> None:
        client, self.client = self.client, None
        daemon_peak = self.daemon.stop(client, self.tally)
        super().close()
        # The daemon is the process that proves.  It keeps every finished
        # job (envelope included) up to ``max_results``, so its memory grows
        # with the number of requests served: read at a fixed cycle, the
        # figure does not depend on how many cycles the window fitted.
        self.peak_rss_mb = self.rss_at_cycle_mb or daemon_peak


def make_workload(name: str, scale: defs.Scale, seed: int, tally: Tally,
                  out_dir: str) -> Workload:
    args = (scale, seed, tally, out_dir)
    if name == "prove_2p19":
        return DirectWorkload(name, scale.log_2p19, *args)
    if name == "prove_2p20":
        return DirectWorkload(name, scale.log_2p20, *args)
    if name == "batch_small":
        return BatchWorkload(*args)
    if name == "service_sha":
        return ServiceWorkload(*args)
    raise ValueError(f"unknown workload {name!r}; known: "
                     f"{', '.join(defs.WORKLOAD_NAMES)}")
