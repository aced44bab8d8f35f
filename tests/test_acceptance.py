"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS] line (visible with pytest -s) once its
assertions hold at the stated tolerance. The closed-form latency oracle in
criterion 1 is written against the protocol timeline only: four on-chain
steps, each costing reaction delay + wait to the next block boundary +
finality delay, plus the deployment and attach times.
"""

from itertools import permutations, product

import pytest

from edgefed import FederationContract, aggregate, run_once, run_scenario
from edgefed.cli import EXIT_OK, main
from edgefed.contract import Bid, select_winner
from edgefed.simkernel import generate_topology
from edgefed.units import to_micro

from conftest import scenario

SWEEP_N = (2, 10, 15, 25, 30)


def mean_total_s(cfg) -> float:
    return aggregate(run_scenario(cfg)).segments["total"].mean_s


def mean_info_exchange_s(cfg) -> float:
    return aggregate(run_scenario(cfg)).segments["info_exchange"].mean_s


# -- criterion 1: baseline federation time ------------------------------------


def closed_form_baseline_us(period_us, finality_us, reaction_us, service_us,
                            confirm_overhead_us, attach_us) -> int:
    """Oracle timeline, independent of the simulator.

    announce -> bid -> selection -> confirmation are the four on-chain steps;
    each one is submitted, waits for the first block boundary strictly after
    submission, then becomes observable after the finality delay. Deployment
    runs between the selection event and the confirmation submission; attach
    follows the confirmation event.
    """

    def boundary_after(t):
        return (t // period_us + 1) * period_us

    t = boundary_after(0) + finality_us                      # announce finalized
    t = boundary_after(t + reaction_us) + finality_us        # bid finalized
    t = boundary_after(t + reaction_us) + finality_us        # winner finalized
    t = boundary_after(
        t + reaction_us + service_us + confirm_overhead_us
    ) + finality_us                                          # confirm finalized
    return t + attach_us


def test_criterion_1_baseline_federation_time():
    cfg = scenario(n=2, variant="clique", runs=20, seed=7)
    expected_us = closed_form_baseline_us(
        period_us=cfg.block_period_us,
        finality_us=0,  # clique
        reaction_us=cfg.agents.reaction_delay_us,
        service_us=cfg.agents.deploy_model.service_time_us,
        confirm_overhead_us=cfg.agents.deploy_model.confirm_overhead_us,
        attach_us=cfg.agents.attach_time_us,
    )
    simulated_s = mean_total_s(cfg)
    assert 15.0 <= simulated_s <= 21.0
    assert abs(simulated_s - expected_us / 1e6) <= 0.5
    print(
        f"\n[PASS] criterion 1: baseline N=2 Clique mean {simulated_s:.3f}s "
        f"in 18+/-3s, oracle {expected_us / 1e6:.3f}s within 0.5s"
    )


# -- criterion 2: QBFT overhead ---------------------------------------------------


def test_criterion_2_qbft_minus_clique_under_two_seconds():
    gaps = {}
    for n in SWEEP_N:
        clique = mean_total_s(scenario(n=n, variant="clique", runs=20, seed=7))
        qbft = mean_total_s(scenario(n=n, variant="qbft", runs=20, seed=7))
        gaps[n] = qbft - clique
        assert 0.0 < gaps[n] < 2.0, f"N={n}: gap {gaps[n]:.3f}s"
    rendered = ", ".join(f"N={n}: {gap:.3f}s" for n, gap in gaps.items())
    print(f"\n[PASS] criterion 2: QBFT-Clique positive and < 2s ({rendered})")


# -- criterion 3: overhead vs SOA --------------------------------------------------


def test_criterion_3_overhead_vs_soa():
    overhead = {}
    for n in SWEEP_N:
        chain = mean_total_s(scenario(n=n, variant="clique", runs=20, seed=7))
        soa = mean_total_s(scenario(n=n, variant="soa", runs=20, seed=7))
        overhead[n] = chain - soa
    assert overhead[2] >= 10.0
    assert overhead[2] < overhead[10] < overhead[15]
    assert 15.4 - 3.0 <= overhead[2] <= 15.4 + 3.0
    assert 25.8 - 6.0 <= overhead[30] <= 25.8 + 6.0
    print(
        f"\n[PASS] criterion 3: overhead N=2 {overhead[2]:.3f}s (15.4+/-3), "
        f"increasing to N=15 ({overhead[10]:.3f}, {overhead[15]:.3f}), "
        f"N=30 {overhead[30]:.3f}s (25.8+/-6)"
    )


# -- criterion 4: scalability trend -------------------------------------------------


def test_criterion_4_growth_from_provider_queueing():
    seeds = (11, 22, 33, 44, 55)
    for seed in seeds:
        totals, info = [], []
        for n in (2, 10, 15):
            cfg = scenario(n=n, variant="clique", runs=10, seed=seed)
            stats = aggregate(run_scenario(cfg))
            totals.append(stats.segments["total"].mean_s)
            info.append(stats.segments["info_exchange"].mean_s)
        assert totals[0] <= totals[1] <= totals[2], f"seed {seed}: totals {totals}"
        assert info[0] < info[1] < info[2], f"seed {seed}: info_exchange {info}"
    print(
        f"\n[PASS] criterion 4: total non-decreasing and info_exchange strictly "
        f"increasing over N=2..15 for {len(seeds)} seeds"
    )


# -- criterion 5: replicated state machine ------------------------------------------


def test_criterion_5_replicas_agree_at_every_height():
    shapes = [(2, "clique"), (10, "qbft"), (15, "clique"), (10, "clique"), (2, "qbft")]
    for i in range(10):
        n, variant = shapes[i % len(shapes)]
        result = run_once(scenario(n=n, variant=variant, runs=1, seed=1000 + i), 0)
        histories = []
        for _ in range(3):
            replica = FederationContract(result.genesis)
            digests = []
            for block in result.blocks:
                replica.execute_block(block)
                digests.append(replica.state_digest())
            histories.append(digests)
        assert histories[0] == histories[1] == histories[2], f"scenario {i} diverged"
    print("\n[PASS] criterion 5: 3 replicas x 10 seeded scenarios agree at every height")


# -- criterion 6: auction oracle equivalence -------------------------------------------


def arrival_oracle_winner(bids):
    """Brute-force pairwise scan applying the documented total order."""
    best = None
    for bid in bids:
        if best is None:
            best = bid
        elif bid.price_micro < best.price_micro:
            best = bid
        elif bid.price_micro == best.price_micro:
            if bid.bid_block < best.bid_block:
                best = bid
            elif bid.bid_block == best.bid_block:
                if bid.order_index < best.order_index:
                    best = bid
                elif bid.order_index == best.order_index and bid.provider < best.provider:
                    best = bid
    return best


def test_criterion_6_exhaustive_auction_equivalence():
    grid = tuple(to_micro(p) for p in (0.10, 0.12, 0.135, 0.15))
    cases = 0
    for n in range(1, 7):
        for perm in permutations(range(n)):
            # Arrival position k belongs to provider perm[k].
            bids = [
                Bid(ann_id=0, provider=perm[k], price_micro=0, bid_block=0, order_index=k)
                for k in range(n)
            ]
            for prices in product(grid, repeat=n):
                for k in range(n):
                    bids[k].price_micro = prices[bids[k].provider]
                assert select_winner(bids) is arrival_oracle_winner(bids)
                cases += 1
    # The same order must hold through the full contract path.
    contract_cases = _contract_path_sample(grid)
    print(
        f"\n[PASS] criterion 6: selector == oracle on {cases} exhaustive cases, "
        f"{contract_cases} driven through the contract"
    )


def _contract_path_sample(grid) -> int:
    import random

    from edgefed.contract import (
        AnnounceService,
        ChooseProvider,
        ContractGenesis,
        OverlayEndpoint,
        PlaceBid,
        ServiceRequirements,
        SlaTerms,
    )
    from edgefed.ledger import Address

    rng = random.Random(606)
    consumer = Address.derive("acceptance", "consumer")
    providers = sorted(Address.derive("acceptance", "provider", i) for i in range(6))
    cases = 0
    for _ in range(300):
        k = rng.randint(2, 6)
        chosen = providers[:k]
        arrival = list(chosen)
        rng.shuffle(arrival)
        prices = {p: rng.choice(grid) for p in chosen}
        contract = FederationContract(
            ContractGenesis(
                operators=tuple((a, a.hex[:8]) for a in [consumer] + list(chosen)),
                balances=((consumer, to_micro(100.0)),),
                min_offers=2,
            )
        )
        contract.apply(
            consumer,
            AnnounceService(
                requirements=ServiceRequirements(app_id="a", replicas=1, bandwidth_mbps=1),
                consumer_endpoint=OverlayEndpoint(ip="10.0.0.1", udp_port=4789, vni=1),
                sla=SlaTerms.from_floats(0.99, 50.0, 2.0),
                deposit_micro=to_micro(10.0),
            ),
            1,
        )
        for provider in arrival:
            contract.apply(provider, PlaceBid(ann_id=0, price_micro=prices[provider]), 2)
        event = contract.apply(consumer, ChooseProvider(ann_id=0), 3)
        expected = arrival_oracle_winner(list(contract.federations[0].bids.values()))
        assert event.winner == expected.provider
        cases += 1
    return cases


# -- criterion 7: funds conservation ------------------------------------------------


def test_criterion_7_funds_conserved_across_sweep():
    checked = 0
    for variant in ("clique", "qbft"):
        for n in SWEEP_N:
            cfg = scenario(n=n, variant=variant, runs=2, seed=7)
            for run_index in range(cfg.runs):
                result = run_once(cfg, run_index)
                genesis_total = sum(v for _, v in result.genesis.balances)
                assert result.contract.total_funds_micro() == genesis_total
                checked += 1
    print(f"\n[PASS] criterion 7: balances + escrow constant in {checked} sweep runs")


# -- criterion 8: CLI determinism -----------------------------------------------------


def test_criterion_8_cli_outputs_byte_identical(tmp_path, capsys):
    import json

    config_path = tmp_path / "scenario.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario_id": "det",
                "topology": {"n_systems": 10},
                "consensus": {"algorithm": "clique"},
                "runs": 3,
                "seed": 5,
                "sweep": {"n_systems": [2, 10], "variants": ["clique", "soa"]},
            }
        )
    )
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--seed", "99"]) == EXIT_OK
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].glob("*.csv"))
    assert names
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    capsys.readouterr()
    print(f"\n[PASS] criterion 8: repeated CLI sweep byte-identical across {len(names)} files")


# -- criterion 9: topology rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,split", [(2, (1, 1)), (10, (8, 2)), (15, (12, 3)), (25, (20, 5)), (30, (24, 6))]
)
def test_criterion_9_topology_reference_splits(n, split):
    assert generate_topology(n) == split


def test_criterion_9_summary():
    splits = {n: generate_topology(n) for n in SWEEP_N}
    assert splits == {2: (1, 1), 10: (8, 2), 15: (12, 3), 25: (20, 5), 30: (24, 6)}
    print(f"\n[PASS] criterion 9: topology reproduces the five reference splits exactly")
