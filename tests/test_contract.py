import dataclasses
import json

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from edgefed.contract import (
    AnnounceService,
    Bid,
    BidPlaced,
    ChooseProvider,
    CloseFederation,
    ConfirmDeployment,
    ContractGenesis,
    DeploymentConfirmed,
    DepositBelowPenalty,
    FederationClosed,
    FederationContract,
    InsufficientBalance,
    NotConsumer,
    NotEnoughBids,
    NotRegistered,
    NotWinner,
    OverlayEndpoint,
    Phase,
    PlaceBid,
    ProviderChosen,
    SelfBid,
    ServiceAnnounced,
    ServiceAnnouncement,
    ServiceRequirements,
    SlaTerms,
    WrongPhase,
    select_winner,
    write_event_log,
)
from edgefed.ledger import Block, StampedEvent, Transaction
from edgefed.metrics import FederationTrace
from edgefed.units import ms_to_micro, to_micro

from conftest import addr

CONSUMER = addr("consumer")
P1 = addr("provider-1")
P2 = addr("provider-2")
P3 = addr("provider-3")

REQS = ServiceRequirements(app_id="app", replicas=1, bandwidth_mbps=100)
ENDPOINT = OverlayEndpoint(ip="10.0.0.1", udp_port=4789, vni=42)
SLA = SlaTerms(to_micro(0.99), ms_to_micro(50.0), to_micro(2.0))


def fresh_contract(min_offers=2, extra_operators=()):
    operators = [(CONSUMER, "mec-c0"), (P1, "mec-p1"), (P2, "mec-p2"), (P3, "mec-p3")]
    operators += [(a, n) for a, n in extra_operators]
    return FederationContract(
        ContractGenesis(
            operators=tuple(operators),
            balances=((CONSUMER, to_micro(100.0)),),
            min_offers=min_offers,
        )
    )


def announce(contract, sender=CONSUMER, deposit=10.0, sla=SLA, height=1):
    event = contract.apply(
        sender,
        AnnounceService(
            requirements=REQS,
            consumer_endpoint=ENDPOINT,
            sla=sla,
            deposit_micro=to_micro(deposit),
        ),
        height,
    )
    return event.ann_id


def open_federation(contract, prices=(0.20, 0.15), height=2):
    ann = announce(contract)
    for provider, price in zip((P1, P2), prices):
        contract.apply(provider, PlaceBid(ann_id=ann, price_micro=to_micro(price)), height)
    return ann


class TestAnnounce:
    def test_first_announcement_opens_with_id_zero(self):
        contract = fresh_contract()
        ann = announce(contract)
        assert ann == 0
        assert contract.federations[0].phase is Phase.OPEN
        assert contract.federations[0].escrow_micro == to_micro(10.0)
        assert contract.balances[CONSUMER] == to_micro(90.0)

    def test_deposit_must_cover_penalty(self):
        contract = fresh_contract()
        with pytest.raises(DepositBelowPenalty):
            announce(contract, deposit=1.0)

    def test_unregistered_sender_rejected(self):
        contract = fresh_contract()
        with pytest.raises(NotRegistered):
            announce(contract, sender=addr("stranger"))

    def test_insufficient_balance_rejected(self):
        contract = fresh_contract()
        with pytest.raises(InsufficientBalance):
            announce(contract, deposit=1000.0)

    def test_ids_follow_intra_block_tx_order(self):
        # Replay both orderings; ids always track the ledger's total order.
        other = addr("consumer-2")
        for first, second in [(CONSUMER, other), (other, CONSUMER)]:
            contract = fresh_contract(extra_operators=[(other, "mec-c1")])
            contract.balances[other] = to_micro(100.0)
            call = AnnounceService(
                requirements=REQS, consumer_endpoint=ENDPOINT, sla=SLA,
                deposit_micro=to_micro(10.0),
            )
            assert contract.apply(first, call, 1).ann_id == 0
            assert contract.apply(second, call, 1).ann_id == 1
            assert contract.federations[0].announcement.consumer == first

    def test_announced_event_is_demand_side_only(self):
        contract = fresh_contract()
        event = contract.apply(
            CONSUMER,
            AnnounceService(
                requirements=REQS, consumer_endpoint=ENDPOINT, sla=SLA,
                deposit_micro=to_micro(10.0),
            ),
            1,
        )
        assert isinstance(event, ServiceAnnounced)
        assert {f.name for f in dataclasses.fields(event)} == {"ann_id", "requirements"}


class TestBidding:
    def test_first_bid_counts_one(self):
        contract = fresh_contract()
        ann = announce(contract)
        event = contract.apply(P1, PlaceBid(ann_id=ann, price_micro=to_micro(0.135)), 2)
        assert event.bid_count == 1

    def test_consumer_cannot_bid_on_own_announcement(self):
        contract = fresh_contract()
        ann = announce(contract)
        with pytest.raises(SelfBid):
            contract.apply(CONSUMER, PlaceBid(ann_id=ann, price_micro=1), 2)

    def test_rebid_overwrites_price_and_moves_to_latest_position(self):
        contract = fresh_contract()
        ann = announce(contract)
        contract.apply(P1, PlaceBid(ann_id=ann, price_micro=to_micro(0.135)), 2)
        contract.apply(P2, PlaceBid(ann_id=ann, price_micro=to_micro(0.2)), 2)
        event = contract.apply(P1, PlaceBid(ann_id=ann, price_micro=to_micro(0.120)), 3)
        assert event.bid_count == 2
        assert contract.federations[ann].bids[P1] == (to_micro(0.120), 3, 2)

    def test_bid_after_selection_rejected(self):
        contract = fresh_contract()
        ann = open_federation(contract)
        contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        with pytest.raises(WrongPhase):
            contract.apply(P1, PlaceBid(ann_id=ann, price_micro=1), 3)

    def test_unregistered_bidder_rejected(self):
        contract = fresh_contract()
        ann = announce(contract)
        with pytest.raises(NotRegistered):
            contract.apply(addr("ghost"), PlaceBid(ann_id=ann, price_micro=1), 2)


class TestChooseProvider:
    def test_lowest_price_wins(self):
        contract = fresh_contract()
        ann = open_federation(contract, prices=(0.20, 0.15))
        event = contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        assert event.winner == P2
        assert contract.federations[ann].phase is Phase.PROVIDER_CHOSEN

    def test_single_bid_is_not_enough(self):
        contract = fresh_contract()
        ann = announce(contract)
        contract.apply(P1, PlaceBid(ann_id=ann, price_micro=1), 2)
        with pytest.raises(NotEnoughBids):
            contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)

    def test_single_offer_threshold_for_single_provider_scenarios(self):
        contract = fresh_contract(min_offers=1)
        ann = announce(contract)
        contract.apply(P1, PlaceBid(ann_id=ann, price_micro=1), 2)
        event = contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        assert event.winner == P1

    @pytest.mark.parametrize("min_offers", [0, -1])
    def test_a_genesis_below_one_offer_is_refused(self, min_offers):
        # With no threshold, choosing on no bids would take the lowest of none.
        with pytest.raises(ValueError, match="min_offers must be at least 1"):
            fresh_contract(min_offers=min_offers)

    def test_choosing_on_no_bids_is_rejected_in_its_block(self):
        contract = fresh_contract(min_offers=1)
        ann = announce(contract)
        choose = Transaction(id=7, sender=CONSUMER, payload=ChooseProvider(ann_id=ann),
                             submit_time_us=1, nonce=1)
        block = Block(height=2, proposer=P1, timestamp_us=5, txs=(choose,), parent_digest="",
                      finality_time_us=5)
        assert contract.execute_block(block) == []
        assert contract.rejected == [(7, "NotEnoughBids")]
        assert contract.federations[ann].phase is Phase.OPEN

    def test_price_tie_goes_to_earlier_block(self):
        contract = fresh_contract()
        ann = announce(contract)
        contract.apply(P1, PlaceBid(ann_id=ann, price_micro=to_micro(0.15)), 3)
        contract.apply(P2, PlaceBid(ann_id=ann, price_micro=to_micro(0.15)), 4)
        event = contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 5)
        assert event.winner == P1

    def test_only_consumer_selects(self):
        contract = fresh_contract()
        ann = open_federation(contract)
        with pytest.raises(NotConsumer):
            contract.apply(P1, ChooseProvider(ann_id=ann), 3)

    def test_event_releases_consumer_endpoint_to_winner(self):
        contract = fresh_contract()
        ann = open_federation(contract)
        event = contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        assert event.consumer_endpoint == ENDPOINT


class TestDeploymentAndClose:
    def chosen(self):
        contract = fresh_contract()
        ann = open_federation(contract)
        contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        return contract, ann  # winner is P2

    def test_winner_confirms_with_endpoint(self):
        contract, ann = self.chosen()
        provider_ep = OverlayEndpoint(ip="10.0.0.2", udp_port=4789, vni=42)
        event = contract.apply(
            P2, ConfirmDeployment(ann_id=ann, provider_endpoint=provider_ep), 4
        )
        assert contract.federations[ann].phase is Phase.DEPLOYMENT_CONFIRMED
        assert event.provider_endpoint == provider_ep

    def test_losing_bidder_cannot_confirm(self):
        contract, ann = self.chosen()
        with pytest.raises(NotWinner):
            contract.apply(P1, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 4)

    def test_confirm_before_selection_is_wrong_phase(self):
        contract = fresh_contract()
        ann = open_federation(contract)
        with pytest.raises(WrongPhase):
            contract.apply(P2, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 3)

    def test_consumer_closes_after_confirmation(self):
        contract, ann = self.chosen()
        contract.apply(P2, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 4)
        assert contract.closed == 0
        contract.apply(CONSUMER, CloseFederation(ann_id=ann), 5)
        assert contract.federations[ann].phase is Phase.CLOSED
        assert contract.closed == 1

    def test_provider_cannot_close(self):
        contract, ann = self.chosen()
        contract.apply(P2, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 4)
        with pytest.raises(NotConsumer):
            contract.apply(P2, CloseFederation(ann_id=ann), 5)

    def test_double_close_is_wrong_phase(self):
        contract, ann = self.chosen()
        contract.apply(P2, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 4)
        contract.apply(CONSUMER, CloseFederation(ann_id=ann), 5)
        with pytest.raises(WrongPhase):
            contract.apply(CONSUMER, CloseFederation(ann_id=ann), 6)
        assert contract.closed == 1


class TestDigest:
    def test_fresh_nodes_agree(self):
        assert fresh_contract().state_digest() == fresh_contract().state_digest()

    def test_same_transitions_same_digest(self):
        a, b = fresh_contract(), fresh_contract()
        for contract in (a, b):
            open_federation(contract)
        assert a.state_digest() == b.state_digest()

    def test_one_extra_bid_diverges(self):
        a, b = fresh_contract(), fresh_contract()
        for contract in (a, b):
            open_federation(contract)
        b.apply(P1, PlaceBid(ann_id=0, price_micro=to_micro(0.11)), 3)
        assert a.state_digest() != b.state_digest()


class TestConservation:
    def test_funds_constant_through_full_lifecycle(self):
        contract = fresh_contract()
        start = contract.total_funds_micro()
        ann = open_federation(contract)
        assert contract.total_funds_micro() == start
        contract.apply(CONSUMER, ChooseProvider(ann_id=ann), 3)
        contract.apply(P2, ConfirmDeployment(ann_id=ann, provider_endpoint=ENDPOINT), 4)
        contract.apply(CONSUMER, CloseFederation(ann_id=ann), 5)
        assert contract.total_funds_micro() == start


# -- auction order: brute-force oracle ----------------------------------------


def oracle_winner(bids):
    """Independent pairwise scan applying the documented total order to a
    provider -> (price, block, auction position) map; the winning provider."""
    best = None
    for provider, (price, block, position) in bids.items():
        if best is None:
            best = provider, price, block, position
            continue
        _, best_price, best_block, best_position = best
        if price < best_price:
            best = provider, price, block, position
        elif price == best_price:
            if block < best_block:
                best = provider, price, block, position
            elif block == best_block:
                if position < best_position:
                    best = provider, price, block, position
                elif position == best_position and provider < best[0]:
                    best = provider, price, block, position
    return best[0]


class TestAuctionOrder:
    def test_selector_matches_oracle_with_ties_across_blocks(self):
        providers = [addr(f"p{i}") for i in range(4)]
        bids = {
            providers[0]: (15, 4, 3),
            providers[1]: (15, 3, 1),
            providers[2]: (15, 3, 0),
            providers[3]: (20, 2, 2),
        }
        assert select_winner(bids) == oracle_winner(bids) == providers[2]

    def test_priority_orders_price_before_everything(self):
        cheap, pricey = addr("z"), addr("a")
        assert pricey < cheap
        assert select_winner({cheap: (1, 9, 9), pricey: (2, 0, 0)}) == cheap


# -- replicated execution ------------------------------------------------------


class TestReplication:
    def test_three_replicas_agree_at_every_height(self):
        from edgefed import run_once
        from conftest import scenario

        result = run_once(scenario(n=10, variant="clique", runs=1), 0)
        histories = []
        for _ in range(3):
            replica = FederationContract(result.genesis)
            digests = []
            for block in result.blocks:
                replica.execute_block(block)
                digests.append(replica.state_digest())
            histories.append(digests)
        assert histories[0] == histories[1] == histories[2]

    def test_rejected_calls_leave_state_unchanged(self):
        from edgefed.contract import ContractError

        contract = fresh_contract()
        announce(contract)
        before = contract.state_digest()
        for sender, call in [
            (addr("ghost"), PlaceBid(ann_id=0, price_micro=1)),
            (CONSUMER, PlaceBid(ann_id=0, price_micro=1)),
            (P1, PlaceBid(ann_id=99, price_micro=1)),
            (CONSUMER, ChooseProvider(ann_id=0)),
        ]:
            with pytest.raises(ContractError):
                contract.apply(sender, call, 2)
            assert contract.state_digest() == before

    @pytest.mark.parametrize("call", [
        ChooseProvider(ann_id=99),
        ConfirmDeployment(ann_id=99, provider_endpoint=ENDPOINT),
        CloseFederation(ann_id=99),
    ], ids=lambda call: type(call).__name__)
    def test_a_call_on_an_announcement_never_made_is_rejected(self, call):
        from edgefed.contract import ContractError

        contract = fresh_contract()
        announce(contract)
        with pytest.raises(ContractError, match="unknown announcement 99") as caught:
            contract.apply(CONSUMER, call, 2)
        assert type(caught.value) is ContractError
        tx = Transaction(id=7, sender=CONSUMER, payload=call, submit_time_us=1, nonce=1)
        block = Block(height=2, proposer=P1, timestamp_us=5, txs=(tx,), parent_digest="",
                      finality_time_us=5)
        assert contract.execute_block(block) == []
        assert contract.rejected == [(7, "ContractError")]


# -- event log -------------------------------------------------------------------


class TestEventLog:
    def test_jsonl_schema(self, tmp_path):
        contract = fresh_contract()
        event = contract.apply(
            CONSUMER,
            AnnounceService(requirements=REQS, consumer_endpoint=ENDPOINT, sla=SLA,
                            deposit_micro=to_micro(10.0)),
            1,
        )
        stamped = [StampedEvent(block_height=1, finality_time_us=to_micro(5.0), event=event)]
        path = tmp_path / "events.jsonl"
        write_event_log(stamped, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        row = lines[0]
        assert set(row) == {"block_height", "finality_time_s", "event_kind", "ann_id", "payload"}
        assert row["event_kind"] == "ServiceAnnounced"
        assert row["finality_time_s"] == "5.000000"
        assert row["ann_id"] == 0
        assert row["payload"]["requirements"]["app_id"] == "app"

    def test_log_is_opened_with_a_fixed_newline(self, tmp_path, written_newlines):
        write_event_log([], tmp_path / "events.jsonl")
        assert written_newlines == {"events.jsonl": "\n"}


# -- records ---------------------------------------------------------------------

CALLS = [
    AnnounceService(requirements=REQS, consumer_endpoint=ENDPOINT, sla=SLA,
                    deposit_micro=to_micro(10.0)),
    PlaceBid(ann_id=0, price_micro=1),
    ChooseProvider(ann_id=0),
    ConfirmDeployment(ann_id=0, provider_endpoint=ENDPOINT),
    CloseFederation(ann_id=0),
]
EVENTS = [
    ServiceAnnounced(ann_id=0, requirements=REQS),
    BidPlaced(ann_id=0, bid_count=1),
    ProviderChosen(ann_id=0, winner=P1, consumer_endpoint=ENDPOINT),
    DeploymentConfirmed(ann_id=0, provider_endpoint=ENDPOINT),
    FederationClosed(ann_id=0),
]
PER_FEDERATION = [
    ENDPOINT,
    ServiceAnnouncement(ann_id=0, consumer=CONSUMER, requirements=REQS,
                        consumer_endpoint=ENDPOINT, announce_block=1),
    FederationTrace(0, 0, P1.hex(), 0, 5, 10, 10, 15, 15, True),
]


class TestRecords:
    """Calls, events and bids are made once per transaction: each is one
    slotted allocation, and calls and events stay immutable. So do the
    records made once per federation."""

    def test_every_call_is_covered(self):
        assert {type(call) for call in CALLS} == set(FederationContract._HANDLERS)

    def test_every_handler_event_is_covered(self):
        contract = fresh_contract(min_offers=1)
        made = [
            contract.apply(CONSUMER, CALLS[0], 1),
            contract.apply(P1, CALLS[1], 2),
            contract.apply(CONSUMER, CALLS[2], 3),
            contract.apply(P1, CALLS[3], 4),
            contract.apply(CONSUMER, CALLS[4], 5),
        ]
        assert [type(event) for event in made] == [type(event) for event in EVENTS]

    @pytest.mark.parametrize("record", CALLS + EVENTS + PER_FEDERATION,
                             ids=lambda record: type(record).__name__)
    def test_fields_are_frozen_and_there_is_no_instance_dict(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        assert not hasattr(record, "__dict__")

    def test_bid_has_no_instance_dict(self):
        assert not hasattr(Bid(0, P1, 1, 2, 0), "__dict__")


# -- random op sequences ----------------------------------------------------------


class ContractOps(RuleBasedStateMachine):
    """Random walk over contract calls; a twin replica replays every accepted
    call so the state digests must stay in lockstep."""

    def __init__(self):
        super().__init__()
        self.contract = fresh_contract()
        self.twin = fresh_contract()
        self.start_funds = self.contract.total_funds_micro()
        self.height = 1
        self.phase_seen: dict[int, Phase] = {}

    senders = st.sampled_from([CONSUMER, P1, P2, P3, addr("ghost")])

    @initialize()
    def seed_announcement(self):
        self._apply(CONSUMER, AnnounceService(
            requirements=REQS, consumer_endpoint=ENDPOINT, sla=SLA,
            deposit_micro=to_micro(10.0)))

    def _apply(self, sender, call):
        self.height += 1
        try:
            self.contract.apply(sender, call, self.height)
        except Exception as err:
            outcome = type(err)
        else:
            outcome = None
        if outcome is None:
            self.twin.apply(sender, call, self.height)
        else:
            with pytest.raises(outcome):
                self.twin.apply(sender, call, self.height)

    @rule(sender=senders, price=st.integers(min_value=1, max_value=10**6))
    def bid(self, sender, price):
        self._apply(sender, PlaceBid(ann_id=0, price_micro=price))

    @rule(sender=senders)
    def choose(self, sender):
        self._apply(sender, ChooseProvider(ann_id=0))

    @rule(sender=senders)
    def confirm(self, sender):
        self._apply(sender, ConfirmDeployment(ann_id=0, provider_endpoint=ENDPOINT))

    @rule(sender=senders)
    def close(self, sender):
        self._apply(sender, CloseFederation(ann_id=0))

    @invariant()
    def funds_conserved(self):
        assert self.contract.total_funds_micro() == self.start_funds

    @invariant()
    def replicas_in_lockstep(self):
        assert self.contract.state_digest() == self.twin.state_digest()

    @invariant()
    def phases_never_reverse(self):
        for ann_id, record in self.contract.federations.items():
            seen = self.phase_seen.get(ann_id, Phase.OPEN)
            assert record.phase >= seen
            self.phase_seen[ann_id] = record.phase


TestContractOps = ContractOps.TestCase
TestContractOps.settings = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
