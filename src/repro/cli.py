"""Command-line interface: ``python -m repro <command>``.

Commands
--------
tables       Print every paper table the performance model lands: Tables
             I, II, IV and V and the Fig. 7 sensitivity sweep.
simulate     Simulate one NoCap proof (size, breakdowns, power).
prove        Build, prove and verify a demo workload circuit; ``--out``
             writes the proof as a self-describing envelope.
verify       Verify a proof envelope written by ``prove --out`` (exit
             codes per docs/ROBUSTNESS.md).
trace        Prove a workload under the tracer, print its phase tree,
             simulate it on NoCap, and export a Chrome trace plus a
             per-phase breakdown (see docs/OBSERVABILITY.md).
serve        Run the proving service daemon (docs/SERVICE.md).
client       Submit work to a running ``repro serve`` daemon.
report       Dump the flight recorder's recent job reports and
             supervision events from a JSONL spool written via
             ``--flight-log`` / REPRO_FLIGHT_LOG.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .errors import (
    ConfigError,
    DeserializationError,
    ProverTimeoutError,
    ReproError,
    TranscriptError,
    VerificationError,
)
from .workloads.registry import build_workload, workload_choices

#: Distinct exit codes per error class, so scripted callers can tell a
#: malformed proof from a bad configuration without parsing stderr.
EXIT_CONFIG_ERROR = 3
EXIT_DESERIALIZATION_ERROR = 4
EXIT_VERIFICATION_ERROR = 5
EXIT_TIMEOUT = 6
_EXIT_CODES = ((ConfigError, EXIT_CONFIG_ERROR),
               (DeserializationError, EXIT_DESERIALIZATION_ERROR),
               (ProverTimeoutError, EXIT_TIMEOUT),
               ((VerificationError, TranscriptError), EXIT_VERIFICATION_ERROR))


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import estimate, gmean, table1_rows, table5_rows
    from .analysis.tables import format_table
    from .nocap import area_model, sensitivity_sweep
    from .workloads.spec import PAPER_WORKLOADS

    rows = table1_rows()
    print(format_table(
        ["zkSNARK / prover", "Prover (s)", "Send (s)", "Verifier (s)", "Total (s)"],
        [(r.label, r.prover_s, r.send_s, r.verifier_s, r.total_s) for r in rows],
        "Table I: end-to-end, 16M constraints, 10 MB/s link"))

    print()
    print(format_table(
        ["Component", "Area (mm^2)"],
        [(name, f"{mm2:.2f}") for name, mm2 in area_model().as_table().items()],
        "Table II: NoCap area breakdown"))

    t4 = []
    for w in PAPER_WORKLOADS:
        e = estimate(w.raw_constraints)
        t4.append((w.name, e.nocap_seconds, e.speedup_vs_cpu,
                   e.pipezk_seconds / e.nocap_seconds))
    print()
    print(format_table(["Workload", "NoCap (s)", "vs CPU", "vs PipeZK"], t4,
                       "Table IV: proving time and speedups"))
    print(f"gmean: {gmean([r[2] for r in t4]):.0f}x vs CPU, "
          f"{gmean([r[3] for r in t4]):.0f}x vs PipeZK")

    t5 = table5_rows()
    print()
    print(format_table(
        ["Workload", "Total (s)", "vs PipeZK"],
        [(r.workload, r.total_s, r.speedup_vs_pipezk) for r in t5],
        "Table V: end-to-end vs PipeZK"))
    print(f"gmean: {gmean([r.speedup_vs_pipezk for r in t5]):.1f}x")

    factors = (0.25, 0.5, 1.0, 2.0, 4.0)
    perf = {}
    for p in sensitivity_sweep(factors=factors):
        perf.setdefault(p.resource, {})[p.factor] = p.relative_performance
    print()
    print(format_table(
        ["Resource"] + [f"x{f}" for f in factors],
        [(res,) + tuple(perf[res][f] for f in factors) for res in perf],
        "Fig. 7: relative gmean performance"))
    return 0


#: Resources ``simulate`` can scale (one ``--<resource> FACTOR`` each).
_RESOURCES = ("arith", "hash", "ntt", "hbm", "rf")


def _simulate_payload(report, power, log_n: int) -> dict:
    """Machine-readable summary of one simulation (``simulate --json``)."""
    from .obs import FAMILIES

    time_fracs = report.time_fractions()
    traffic_fracs = report.traffic_fractions()
    return {
        "schema": "repro/simulate",
        "schema_version": 1,
        "log_n": log_n,
        "padded_constraints": report.padded_constraints,
        "total_seconds": report.total_seconds,
        "total_traffic_bytes": report.total_traffic_bytes,
        "compute_utilization": report.compute_utilization(),
        "memory_utilization": report.memory_utilization(),
        "power_watts": {
            "total": power.total_watts,
            "fu": power.fu_watts,
            "rf": power.rf_watts,
            "hbm": power.hbm_watts,
        },
        # Stable column ordering: the canonical FAMILIES taxonomy.
        "time_fractions": {f: time_fracs.get(f, 0.0) for f in FAMILIES},
        "traffic_fractions": {f: traffic_fracs.get(f, 0.0)
                              for f in FAMILIES},
        "tasks": [
            {"name": t.name, "family": t.family, "seconds": t.seconds,
             "mem_bytes": t.mem_bytes, "bound": t.bound}
            for t in report.task_times
        ],
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .nocap import DEFAULT_CONFIG, NoCapSimulator, power_model
    from .obs import FAMILIES

    scales = {resource: getattr(args, resource) for resource in _RESOURCES
              if getattr(args, resource) != 1.0}
    cfg = DEFAULT_CONFIG.scale(**scales) if scales else DEFAULT_CONFIG
    if args.log_n < 0:
        raise ConfigError(f"--log-n must be >= 0, got {args.log_n}")
    report = NoCapSimulator(cfg).simulate(1 << args.log_n,
                                          recompute=not args.no_recompute)
    power = power_model(report)
    payload = _simulate_payload(report, power, args.log_n)
    if args.trace_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(args.trace_out, report=report,
                           metadata={"command": "simulate",
                                     "log_n": args.log_n})
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"NoCap proof of 2^{args.log_n} constraints: "
          f"{report.total_seconds * 1e3:.2f} ms")
    print(f"  HBM traffic: {report.total_traffic_bytes / 1e9:.2f} GB "
          f"({report.memory_utilization():.0%} of bandwidth-time)")
    print(f"  compute utilization: {report.compute_utilization():.0%}")
    print(f"  power: {power.total_watts:.1f} W "
          f"(FUs {power.fu_watts:.1f}, RF {power.rf_watts:.1f}, "
          f"HBM {power.hbm_watts:.1f})")
    print(f"  {'family':<10} {'time':>7} {'traffic':>8}")
    for fam in FAMILIES:
        print(f"    {fam:<10} {payload['time_fractions'][fam]:6.1%} "
              f"{payload['traffic_fractions'][fam]:7.1%}")
    if args.trace_out:
        print(f"  task timeline written to {args.trace_out}")
    return 0


def _keys(workload: str, preset_name: str):
    """Build, compile and set up ``workload`` under ``preset_name``: the
    one path from a workload name to keys, shared by ``prove``,
    ``verify`` and ``trace``.  Returns ``(name, circuit, public,
    witness, pk, vk)``; an unknown name is a ``ConfigError`` (exit 3)."""
    from .snark import preset_by_name, setup

    name, circuit = build_workload(workload)
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset_by_name(preset_name))
    return name, circuit, public, witness, pk, vk


def _cmd_prove(args: argparse.Namespace) -> int:
    from .analysis import estimate
    from .snark import prove, verify

    name, circuit, public, witness, pk, vk = _keys(args.workload, args.preset)
    print(f"{name}: {circuit.num_constraints} constraints")
    t0 = time.perf_counter()
    bundle = prove(pk, public, witness, circuit_id=name,
                   timeout_s=args.timeout)
    t1 = time.perf_counter()
    ok = verify(vk, bundle)
    t2 = time.perf_counter()
    print(f"prove: {t1 - t0:.2f} s | verify: {t2 - t1:.2f} s | "
          f"proof: {bundle.size_bytes()} bytes | valid: {ok}")
    ev = bundle.report.events
    print(f"job {bundle.report.job_id}" + (f" incidents={ev}" if ev else ""))
    if args.out:
        raw = bundle.to_bytes()
        with open(args.out, "wb") as fh:
            fh.write(raw)
        print(f"proof bundle ({len(raw)} bytes, preset {pk.preset.name}) "
              f"written to {args.out}")
    print("\nprojection at paper parameters:")
    print(estimate(circuit).summary())
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a serialized proof bundle against its embedded statement.

    Exit codes follow docs/ROBUSTNESS.md: 0 valid, 4 malformed envelope
    (DeserializationError), 5 proof invalid, 3 configuration problems
    (unknown preset / unresolvable circuit id).
    """
    from .snark import ProofBundle, verify

    with open(args.bundle, "rb") as fh:
        raw = fh.read()
    # Strict parse: DeserializationError propagates to main() -> exit 4.
    bundle = ProofBundle.from_bytes(raw)
    workload = args.workload or bundle.circuit_id
    if not workload:
        raise ConfigError(
            "bundle carries no circuit id; pass --workload to name the "
            "statement it proves")
    name, _, _, _, _, vk = _keys(workload, bundle.preset_name)
    print(f"{args.bundle}: preset {bundle.preset_name}, circuit {name}, "
          f"{len(bundle.public)} public inputs, {len(raw)} bytes")
    if verify(vk, bundle):
        print("proof valid")
        return 0
    print("proof INVALID", file=sys.stderr)
    return EXIT_VERIFICATION_ERROR


def _cmd_trace(args: argparse.Namespace) -> int:
    """Prove under the tracer, print the phase tree, simulate the same
    statement on NoCap, and emit Chrome trace + BENCH_phases.json with a
    drift table."""
    from . import obs
    from .nocap import NoCapSimulator
    from .obs.export import write_chrome_trace, write_phases
    from .snark import prove, verify

    name, circuit, public, witness, pk, vk = _keys(args.workload, args.preset)
    print(f"{name}: {circuit.num_constraints} constraints")
    with obs.tracing() as tracer:
        bundle = prove(pk, public, witness, circuit_id=name,
                       timeout_s=args.timeout)
        ok = verify(vk, bundle)
    if not ok:
        print("proof failed to verify", file=sys.stderr)
        return 1
    print("\nphase tree:")
    print(tracer.format_tree())

    log_size = pk.r1cs.shape.log_size
    report = NoCapSimulator().simulate(1 << log_size)

    write_chrome_trace(args.trace_out, records=tracer.records(),
                       report=report,
                       metadata={"command": "trace", "workload": name,
                                 "padded_constraints": 1 << log_size})
    payload = write_phases(args.phases_out, tracer=tracer, report=report,
                           workload=name)

    func = payload["functional"]
    sim = payload["simulated"]
    print(f"\nfunctional prove: {func['total_s'] * 1e3:.1f} ms (measured) | "
          f"NoCap: {sim['total_s'] * 1e3:.3f} ms (simulated, 2^{log_size})")
    print(f"\n  {'family':<10} {'measured':>10} {'meas %':>7} "
          f"{'sim %':>7} {'drift':>7}")
    for fam in obs.FAMILIES:
        meas_s = func["seconds_by_family"][fam]
        meas_f = func["fractions_by_family"][fam]
        sim_f = sim["fractions_by_family"][fam]
        print(f"  {fam:<10} {meas_s * 1e3:8.1f}ms {meas_f:6.1%} "
              f"{sim_f:6.1%} {meas_f - sim_f:+6.1%}")
    print("\n(drift = measured share - simulated share; large positive "
          "values mark phases where\n the software prover is slower than "
          "the hardware model expects)")
    if args.metrics:
        print("\nmetrics:")
        for group in ("counters", "gauges"):
            for key, value in sorted(func[group].items()):
                print(f"  {key:<28} {value:>14,}")
    print(f"\ntrace written to {args.trace_out} "
          f"(open in https://ui.perfetto.dev)")
    print(f"phase breakdown written to {args.phases_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Dump recent flight-recorder records (jobs + supervision events)
    from a JSONL spool: ``--log``, or the ``REPRO_FLIGHT_LOG`` environment
    variable (the recorder in any prover process with that variable set
    appends every record there).  This process has proved nothing, so
    with neither there is nothing to read: ``ConfigError`` (exit 3).
    """
    import os

    from .obs.events import FLIGHT_LOG_ENV, format_events, read_spool

    path = args.log or os.environ.get(FLIGHT_LOG_ENV)
    if not path:
        raise ConfigError(f"no flight log to read: pass --log PATH or set "
                          f"{FLIGHT_LOG_ENV}")
    try:
        events = read_spool(path, last=args.last)
    except OSError as exc:
        print(f"cannot read flight log {path}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(events, indent=2))
        return 0
    print(f"flight recorder: {len(events)} record(s) from {path}")
    if events:
        print(format_events(events))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the proving service daemon (see docs/SERVICE.md)."""
    from .service.server import ServiceConfig, serve_forever

    kwargs = dict(
        host=args.host, port=args.port, unix_socket=args.unix_socket,
        queue_depth=args.queue_depth, preset=args.preset,
        key_cache_bytes=args.key_cache_mb * 1024 * 1024,
        proof_cache_bytes=args.proof_cache_mb * 1024 * 1024)
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout  # else keep the config default
    return serve_forever(ServiceConfig(**kwargs))


def _client_from(args: argparse.Namespace):
    """A client for the daemon ``args`` names.  Server-side failures
    surface as the same typed errors local commands raise, so the
    exit-code table (docs/API.md) applies unchanged."""
    from .service import ServiceClient

    return ServiceClient(args.unix_socket or args.connect)


def _client_prove(args: argparse.Namespace) -> int:
    with _client_from(args) as svc:
        envelope = svc.prove(args.workload, preset=args.preset,
                             seed=args.seed, timeout_s=args.timeout)
    print(f"proof: {len(envelope)} bytes")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(envelope)
        print(f"proof bundle written to {args.out}")
    return 0


def _client_verify(args: argparse.Namespace) -> int:
    with open(args.bundle, "rb") as fh:
        envelope = fh.read()
    with _client_from(args) as svc:
        ok = svc.verify(envelope, circuit_id=args.workload or "",
                        timeout_s=args.timeout)
    if ok:
        print("proof valid")
        return 0
    print("proof INVALID", file=sys.stderr)
    return EXIT_VERIFICATION_ERROR


def _client_status(args: argparse.Namespace) -> int:
    with _client_from(args) as svc:
        print(json.dumps(svc.status(args.job_id), indent=2))
    return 0


def _client_stats(args: argparse.Namespace) -> int:
    with _client_from(args) as svc:
        print(json.dumps(svc.stats(), indent=2))
    return 0


def _client_shutdown(args: argparse.Namespace) -> int:
    with _client_from(args) as svc:
        svc.shutdown_server()
    print("server draining")
    return 0


#: One exit-code contract for every command, local or via the service.
EXIT_CODE_TABLE = """\
exit codes: 0 success | 1 generic failure | 2 usage error |
3 configuration (ConfigError) | 4 malformed input (DeserializationError) |
5 proof invalid (VerificationError) | 6 deadline expired
(ProverTimeoutError).  `repro client` maps server-side errors onto the
same codes."""


def build_parser() -> argparse.ArgumentParser:
    from .snark.params import PRESETS

    # Shared option vocabulary (one spelling everywhere): commands opt in
    # to exactly the parents they support.
    preset_p = argparse.ArgumentParser(add_help=False)
    preset_p.add_argument("--preset", choices=sorted(PRESETS),
                          default="test-fast",
                          help="security preset (default %(default)s)")
    timeout_p = argparse.ArgumentParser(add_help=False)
    timeout_p.add_argument("--timeout", type=float, default=None,
                           metavar="SECS",
                           help="cooperative proving deadline; on expiry "
                                f"exit {EXIT_TIMEOUT} (ProverTimeoutError)")
    telemetry_p = argparse.ArgumentParser(add_help=False)
    telemetry_p.add_argument("--flight-log", metavar="PATH", default=None,
                             help="append flight-recorder records to PATH "
                                  "as JSON lines (read back with `repro "
                                  "report --log PATH`)")
    workload_p = argparse.ArgumentParser(add_help=False)
    workload_p.add_argument("workload", choices=workload_choices())
    bundle_p = argparse.ArgumentParser(add_help=False)
    bundle_p.add_argument("bundle", metavar="BUNDLE",
                          help="path to a serialized proof envelope")
    bundle_p.add_argument("--workload", choices=workload_choices(),
                          default=None,
                          help="statement the proof claims (default: the "
                               "circuit id embedded in the envelope)")
    connect_p = argparse.ArgumentParser(add_help=False)
    connect_p.add_argument("--connect", metavar="HOST:PORT",
                           default="127.0.0.1:7464",
                           help="service TCP address "
                                "(default %(default)s)")
    connect_p.add_argument("--unix-socket", metavar="PATH", default=None,
                           help="connect over a unix socket instead of TCP")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoCap (MICRO 2024) reproduction: hash-based ZKPs with "
                    "a co-designed accelerator model",
        epilog=EXIT_CODE_TABLE)
    parser.add_argument("--strict", action="store_true",
                        help="re-raise typed input errors with a traceback "
                             "instead of the one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I/II/IV/V and Fig. 7"
                   ).set_defaults(func=_cmd_tables)

    sim = sub.add_parser("simulate", help="simulate one NoCap proof")
    sim.add_argument("--log-n", type=int, default=24,
                     help="log2 of the padded constraint count (default 24)")
    sim.add_argument("--no-recompute", action="store_true",
                     help="disable the sumcheck recomputation optimization")
    for resource in _RESOURCES:
        sim.add_argument(f"--{resource}", type=float, default=1.0,
                         help=f"scale factor for {resource} (default 1.0)")
    sim.add_argument("--json", action="store_true",
                     help="print a machine-readable summary instead of text")
    sim.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the simulated task timeline as Chrome "
                          "trace-event JSON")
    sim.set_defaults(func=_cmd_simulate)

    prove = sub.add_parser(
        "prove", help="prove+verify a demo workload",
        parents=[workload_p, preset_p, timeout_p, telemetry_p])
    prove.add_argument("--out", metavar="PATH", default=None,
                       help="write the proof as a self-describing envelope "
                            "(verify it with `repro verify PATH`)")
    prove.set_defaults(func=_cmd_prove)

    sub.add_parser(
        "verify", help="verify a proof bundle written by `repro prove --out`",
        parents=[bundle_p]).set_defaults(func=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="prove under the tracer (phase tree) + simulate on NoCap, "
             "export Chrome trace and per-phase breakdown",
        parents=[workload_p, preset_p, timeout_p, telemetry_p])
    trace.add_argument("--trace-out", metavar="PATH", default="trace.json",
                       help="Chrome trace-event JSON output path "
                            "(default trace.json)")
    trace.add_argument("--phases-out", metavar="PATH",
                       default="BENCH_phases.json",
                       help="per-phase breakdown output path "
                            "(default BENCH_phases.json)")
    trace.add_argument("--metrics", action="store_true",
                       help="also print kernel counters (hashes, "
                            "butterflies, ...)")
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the proving service daemon (docs/SERVICE.md)",
        parents=[preset_p, timeout_p, telemetry_p])
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port; 0 picks a free one "
                            "(default %(default)s)")
    serve.add_argument("--unix-socket", metavar="PATH", default=None,
                       help="listen on a unix socket instead of TCP")
    serve.add_argument("--queue-depth", type=int, default=16, metavar="N",
                       help="bounded job-queue depth; submissions past it "
                            "are rejected with the 429-style queue-full "
                            "error (default %(default)s)")
    serve.add_argument("--key-cache-mb", type=int, default=256,
                       metavar="MB",
                       help="proving/verifying-key cache budget "
                            "(default %(default)s)")
    serve.add_argument("--proof-cache-mb", type=int, default=64,
                       metavar="MB",
                       help="content-addressed proof cache budget "
                            "(default %(default)s)")
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="submit work to a running `repro serve` daemon")
    csub = client.add_subparsers(dest="action", required=True)
    cprove = csub.add_parser(
        "prove", help="prove a workload on the service",
        parents=[workload_p, connect_p, timeout_p])
    cprove.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="security preset (default: the daemon's "
                             "--preset)")
    cprove.add_argument("--seed", type=int, default=None,
                        help="zk-mask seed (fixed seed => deterministic, "
                             "cacheable proof bytes)")
    cprove.add_argument("--out", metavar="PATH", default=None,
                        help="write the returned proof envelope "
                             "(verify with `repro verify PATH`)")
    cprove.set_defaults(func=_client_prove)
    csub.add_parser(
        "verify", help="verify a proof envelope on the service",
        parents=[bundle_p, connect_p, timeout_p]
    ).set_defaults(func=_client_verify)
    cstatus = csub.add_parser(
        "status", help="query one job's state", parents=[connect_p])
    cstatus.add_argument("job_id", metavar="JOB_ID")
    cstatus.set_defaults(func=_client_status)
    csub.add_parser(
        "stats", help="dump service queue/cache/job statistics",
        parents=[connect_p]).set_defaults(func=_client_stats)
    csub.add_parser(
        "shutdown", help="ask the daemon to drain and exit",
        parents=[connect_p]).set_defaults(func=_client_shutdown)

    report = sub.add_parser(
        "report",
        help="dump recent flight-recorder job reports and supervision "
             "events")
    report.add_argument("--last", type=int, default=20, metavar="N",
                        help="show the most recent N records "
                             "(default: %(default)s)")
    report.add_argument("--json", action="store_true",
                        help="emit raw JSON records instead of the "
                             "one-line-per-event rendering")
    report.add_argument("--log", metavar="PATH", default=None,
                        help="read records from a JSONL flight log "
                             "(default: $REPRO_FLIGHT_LOG; one of the "
                             "two is required)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "flight_log", None):   # prove / trace / serve
        from .obs import FLIGHT

        FLIGHT.spool_to(args.flight_log)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        return 0
    except ReproError as exc:
        # User-input errors get a one-line message and a distinct exit
        # code, not a traceback (unless --strict asks for one).  The
        # mapping is the same whether the error was raised locally or
        # relayed from a `repro serve` daemon by `repro client`.
        if args.strict:
            raise
        # Service/transport errors (queue full, server unreachable) are
        # transient operational failures, not input errors: exit 1.
        code = next((code for types, code in _EXIT_CODES
                     if isinstance(exc, types)), 1)
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
