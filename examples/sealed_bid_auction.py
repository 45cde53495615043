"""Trustless sealed-bid auction (the paper's Auction benchmark, after
Galal & Youssef).

The auctioneer announces a winner and a price, and proves to every
participant that the winner really submitted the highest bid — without
revealing any losing bid.

Run:  python examples/sealed_bid_auction.py
"""

import random

from repro.snark import TEST, prove, setup, verify
from repro.workloads.auction import auction_circuit


def main() -> None:
    rng = random.Random(0xB1D5)
    bid_bits = 20
    bids = [rng.randrange(1 << bid_bits) for _ in range(12)]
    winner = max(range(len(bids)), key=lambda i: bids[i])

    print(f"{len(bids)} sealed bids submitted (values private)")
    print(f"auctioneer announces: winner = bidder #{winner}, "
          f"price = {bids[winner]}")

    circuit, amount = auction_circuit(bids, winner, bid_bits)
    print(f"auction circuit: {circuit.num_constraints} constraints")

    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset=TEST)
    bundle = prove(pk, public, witness, circuit_id="auction")
    assert verify(vk, bundle)
    print(f"auction proof verified ({bundle.size_bytes()} bytes): every "
          "losing bid is <= the announced price, and the winner bid it")

    # An inflated announced price must fail verification.
    bundle.public = bundle.public.copy()
    bundle.public[2] = int(bundle.public[2]) + 1
    assert not verify(vk, bundle)
    print("inflated price rejected")

    # A dishonest winner declaration is rejected at circuit construction.
    loser = min(range(len(bids)), key=lambda i: bids[i])
    try:
        auction_circuit(bids, loser, bid_bits)
    except ValueError as e:
        print(f"dishonest winner rejected: {e}")


if __name__ == "__main__":
    main()
