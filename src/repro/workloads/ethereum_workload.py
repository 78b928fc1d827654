"""Synthetic Ethereum-like smart-contract workload.

The paper replays 500,000 real Ethereum transactions spanning two months,
containing ~5,000 contract creations, with clients batching transactions into
12 KB chunks of roughly 50 transactions (Section IX).  Real traces are not
available offline, so :class:`SyntheticTrace` generates a transaction stream
with the same composition:

* a genesis that funds the workload accounts and deploys a handful of
  reference contracts at deterministic addresses (so calls in the stream
  execute real EVM code on every replica),
* ~1% contract creations within the stream,
* the remainder split between plain value transfers and contract calls
  (token mints/transfers, storage writes, counter bumps).

:class:`EthereumWorkload` adapts the stream to the cluster harness, batching
transactions into client requests of ~12 KB (≈ 50 transactions), exactly the
client behaviour the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.evm.contracts import counter_contract, encode_call, storage_contract, token_contract
from repro.evm.state import WorldState
from repro.evm.transactions import Transaction
from repro.services.interface import Operation
from repro.services.ledger import LedgerService, ledger_operation

_CONTRACT_BUILDERS = {
    "token": token_contract,
    "storage": storage_contract,
    "counter": counter_contract,
}


@dataclass
class SyntheticTrace:
    """Deterministic generator of an Ethereum-like transaction stream."""

    num_transactions: int = 5_000
    num_accounts: int = 200
    num_genesis_contracts: int = 6
    creation_fraction: float = 0.01
    transfer_fraction: float = 0.55
    seed: int = 7

    def __post_init__(self):
        self._accounts = ["0x" + format(i + 1, "040x") for i in range(self.num_accounts)]
        self._stream: List[Transaction] = []
        self._genesis_specs = self._build_genesis_specs()

    # ------------------------------------------------------------------
    # Genesis
    # ------------------------------------------------------------------
    @property
    def deployer(self) -> str:
        return self._accounts[0]

    def _build_genesis_specs(self) -> List[Tuple[str, bytes, str]]:
        """(kind, code, address) for each genesis contract.

        Addresses are derived exactly the way the ledger derives them —
        ``H(deployer, nonce)`` with nonces 1..K — so the stream can target
        them before any ledger exists.
        """
        world = WorldState()
        kinds = list(_CONTRACT_BUILDERS)
        specs = []
        for index in range(self.num_genesis_contracts):
            kind = kinds[index % len(kinds)]
            code = _CONTRACT_BUILDERS[kind]()
            address = world.derive_contract_address(self.deployer, index + 1)
            specs.append((kind, code, address))
        return specs

    def genesis_contracts(self) -> List[Tuple[str, str]]:
        """(kind, address) of every genesis contract (cached: the stream
        generator draws from this list once per contract call)."""
        contracts = self.__dict__.get("_genesis_contracts")
        if contracts is None:
            contracts = [(kind, address) for kind, _code, address in self._genesis_specs]
            self._genesis_contracts = contracts
        return contracts

    def genesis(self, ledger: LedgerService, balance: int = 10**12) -> None:
        """Fund all accounts and deploy the genesis contracts on a ledger."""
        for account in self._accounts:
            ledger.fund(account, balance)
        for kind, code, expected_address in self._genesis_specs:
            receipt = ledger.apply(Transaction.create(sender=self.deployer, code=code))
            if receipt.contract_address != expected_address:
                raise RuntimeError(
                    f"genesis contract address mismatch for {kind}: "
                    f"{receipt.contract_address} != {expected_address}"
                )

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def transactions(self) -> List[Transaction]:
        """The full transaction stream (generated once, then cached)."""
        if self._stream:
            return list(self._stream)
        rng = random.Random(self.seed)
        stream: List[Transaction] = []
        for _ in range(self.num_transactions):
            roll = rng.random()
            if roll < self.creation_fraction:
                stream.append(self._creation(rng))
            elif roll < self.creation_fraction + self.transfer_fraction:
                stream.append(self._transfer(rng))
            else:
                stream.append(self._call(rng))
        self._stream = stream
        return list(stream)

    def _random_account(self, rng: random.Random) -> str:
        return rng.choice(self._accounts)

    def _creation(self, rng: random.Random) -> Transaction:
        kind = rng.choice(list(_CONTRACT_BUILDERS))
        return Transaction.create(sender=self._random_account(rng), code=_CONTRACT_BUILDERS[kind]())

    def _transfer(self, rng: random.Random) -> Transaction:
        sender = self._random_account(rng)
        recipient = self._random_account(rng)
        return Transaction.transfer(sender=sender, to=recipient, value=rng.randrange(1, 1000))

    def _call(self, rng: random.Random) -> Transaction:
        kind, address = rng.choice(self.genesis_contracts())
        sender = self._random_account(rng)
        if kind == "token":
            data = encode_call(1, rng.randrange(1, 64), rng.randrange(1, 1000))
        elif kind == "storage":
            data = encode_call(1, rng.randrange(1, 256), rng.randrange(1, 10**6))
        else:
            data = encode_call(0)
        return Transaction.call(sender=sender, to=address, data=data, gas_limit=100_000)


class EthereumWorkload:
    """Adapts a synthetic trace to the cluster harness.

    Clients batch transactions into chunks of about ``chunk_bytes`` (12 KB in
    the paper, about 50 transactions); each chunk is one client request and
    chunks are dealt round-robin to the clients.
    """

    name = "ethereum"

    def __init__(
        self,
        num_transactions: int = 2_000,
        num_accounts: int = 100,
        chunk_bytes: int = 12 * 1024,
        creation_fraction: float = 0.01,
        transfer_fraction: float = 0.55,
        seed: int = 7,
        num_clients: int = 4,
    ):
        self.num_transactions = num_transactions
        self.chunk_bytes = chunk_bytes
        self.num_clients = max(1, num_clients)
        self._trace = SyntheticTrace(
            num_transactions=num_transactions,
            num_accounts=num_accounts,
            creation_fraction=creation_fraction,
            transfer_fraction=transfer_fraction,
            seed=seed,
        )
        self._chunks: List[List[Transaction]] = []
        self._requests_by_client: Optional[List[List[List[Operation]]]] = None

    def set_num_clients(self, num_clients: int) -> None:
        """Tell the workload how many clients share the stream."""
        num_clients = max(1, num_clients)
        if num_clients != self.num_clients:
            self.num_clients = num_clients
            self._requests_by_client = None

    def service_factory(self) -> LedgerService:
        """Each replica runs a ledger initialised from the same genesis."""
        ledger = LedgerService()
        self._trace.genesis(ledger)
        return ledger

    def _build_chunks(self) -> List[List[Transaction]]:
        if self._chunks:
            return self._chunks
        chunks: List[List[Transaction]] = []
        current: List[Transaction] = []
        current_bytes = 0
        for tx in self._trace.transactions():
            current.append(tx)
            current_bytes += tx.size_bytes
            if current_bytes >= self.chunk_bytes:
                chunks.append(current)
                current, current_bytes = [], 0
        if current:
            chunks.append(current)
        self._chunks = chunks
        return chunks

    def _build_requests(self) -> List[List[List[Operation]]]:
        """Memoized per-client request lists.

        Wrapping every transaction in a :func:`ledger_operation` allocates an
        ``Operation`` whose digest/size/cost are later stashed on the
        instance, so building each exactly once (for all clients in a single
        pass over the chunks) both avoids re-encoding identical calldata and
        maximizes instance sharing downstream.
        """
        if self._requests_by_client is not None:
            return self._requests_by_client
        per_client: List[List[List[Operation]]] = [[] for _ in range(self.num_clients)]
        timestamps = [0] * self.num_clients
        for index, chunk in enumerate(self._build_chunks()):
            client = index % self.num_clients
            timestamp = timestamps[client]
            ops = [
                ledger_operation(tx, client_id=client, timestamp=timestamp + position)
                for position, tx in enumerate(chunk)
            ]
            per_client[client].append(ops)
            timestamps[client] = timestamp + len(chunk)
        self._requests_by_client = per_client
        return per_client

    def client_operations(self, client_id: int) -> List[List[Operation]]:
        """Requests for one client: its round-robin share of the chunks."""
        return self._build_requests()[client_id % self.num_clients]
