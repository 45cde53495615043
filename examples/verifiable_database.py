"""Real-time verifiable database (Litmus, Sec. I / VIII-A).

A database proves its transactions executed correctly (every read saw the
latest write, every write landed).  The example proves a small batch with
the real circuit, then uses the performance models to reproduce the
paper's operating-point analysis: at a 1-second transaction-latency
target, software proving sustains only ~2 transactions/second, while
NoCap reaches three orders of magnitude more.

Run:  python examples/verifiable_database.py
"""

from repro.analysis import database_throughput
from repro.baselines import DEFAULT_CPU
from repro.nocap.simulator import prover_seconds as nocap_prover_seconds
from repro.snark import TEST, prove, setup, verify
from repro.workloads.litmus import litmus_circuit, random_transactions


def main() -> None:
    # -- functional layer: prove a real transaction batch -------------------
    num_rows, num_txns = 8, 6
    initial_table = [100 + i for i in range(num_rows)]
    txns = random_transactions(num_txns, num_rows, seed=42)
    circuit, final_table, final_log = litmus_circuit(txns, initial_table)
    print(f"batch of {num_txns} transactions over {num_rows} rows "
          f"({circuit.num_constraints} constraints)")
    print(f"  initial table: {initial_table}")
    print(f"  final table:   {final_table}")

    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset=TEST)
    bundle = prove(pk, public, witness, circuit_id="litmus")
    assert verify(vk, bundle)
    print(f"  transaction batch proof verified ({bundle.size_bytes()} bytes)")

    # A tampered final state must fail.
    bundle.public = bundle.public.copy()
    bundle.public[1 + num_rows] = (int(bundle.public[1 + num_rows]) + 1)
    assert not verify(vk, bundle)
    print("  forged final state rejected")

    # -- performance layer: the paper's operating points ---------------------
    print("\noperating points at a 1 s transaction-latency target")
    print("(latency = prove batch + send proof at 10 MB/s + verify):")
    cpu_pt = database_throughput(DEFAULT_CPU.prover_seconds)
    nocap_pt = database_throughput(nocap_prover_seconds)
    print(f"  32-core CPU: batch {cpu_pt.batch_transactions:>5} txns, "
          f"latency {cpu_pt.latency_s:.2f} s -> "
          f"{cpu_pt.throughput_tps:,.1f} tx/s")
    print(f"  NoCap:       batch {nocap_pt.batch_transactions:>5} txns, "
          f"latency {nocap_pt.latency_s:.2f} s -> "
          f"{nocap_pt.throughput_tps:,.0f} tx/s")
    print(f"  gain: {nocap_pt.throughput_tps / cpu_pt.throughput_tps:,.0f}x "
          "(paper: 2 tx/s -> 1,142 tx/s)")

    # Litmus's own pipelined batching reaches high throughput only with
    # ~100 s latencies; show the tradeoff.
    print("\nlatency-throughput tradeoff (NoCap):")
    for budget in (0.5, 1.0, 2.0, 5.0):
        pt = database_throughput(nocap_prover_seconds, latency_budget_s=budget)
        print(f"  {budget:>4.1f} s budget -> {pt.throughput_tps:>8,.0f} tx/s "
              f"(batch {pt.batch_transactions:,})")


if __name__ == "__main__":
    main()
