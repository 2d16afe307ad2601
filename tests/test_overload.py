"""Overload regression: a sender outrunning the server must not starve
the scheduler.

The paper's system sheds and accounts under overload instead of failing.
One client writes a 200k-update burst (with transactions interleaved) as
fast as the socket takes it — far faster than the server installs.  The
session loop has to keep handing the controller scheduling points while
it ingests: installs advance *during* the burst, most of the burst is
serviced rather than discarded, and every shed record is accounted under
exactly one cause.
"""

import asyncio
import random
import socket
import sys
import threading

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.live import IngestServer, LiveRuntime
from repro.workload.codec import WIRE_PREAMBLE, encode_frame
from repro.workload.transactions import TransactionSpec

UPDATES = 200_000
TRANSACTIONS = 200
COMPUTE_TIME = 0.001
SAMPLE_EVERY = 0.1


def _config():
    """What ``repro-live serve --ips 1e10 --mean-age 0`` runs: the default
    queue bounds (``OSmax``/``UQmax``) and object counts."""
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    config = config.with_updates(mean_age=0.0)
    return config.with_system(ips=1e10)


def _burst(config) -> bytes:
    rng = random.Random(7)
    n_low, n_high = config.updates.n_low, config.updates.n_high
    every = UPDATES // TRANSACTIONS
    frames = [WIRE_PREAMBLE]
    for seq in range(UPDATES):
        high = rng.random() < 0.5
        frames.append(encode_frame(Update(
            seq=seq,
            klass=ObjectClass.VIEW_HIGH if high else ObjectClass.VIEW_LOW,
            object_id=rng.randrange(n_high if high else n_low),
            value=float(seq), generation_time=0.0, arrival_time=0.0,
        )))
        if seq % every == every - 1:
            high = rng.random() < 0.5
            count = n_high if high else n_low
            frames.append(encode_frame(TransactionSpec(
                seq=seq // every, arrival_time=0.0, high_value=high,
                value=1.0, compute_time=COMPUTE_TIME,
                reads=(rng.randrange(count), rng.randrange(count)),
                slack=0.1,
            )))
    return b"".join(frames)


def test_burst_is_absorbed_not_discarded():
    config = _config()
    payload = _burst(config)

    def write_burst(port):
        with socket.create_connection(("127.0.0.1", port)) as client:
            client.sendall(payload)
            client.shutdown(socket.SHUT_WR)
            while client.recv(65536):  # outcomes, then the server's EOF
                pass

    async def scenario():
        runtime = LiveRuntime(config, "TF")
        runtime.start()
        server = IngestServer(runtime)
        _, port = await server.start()
        writer = threading.Thread(target=write_burst, args=(port,))
        writer.start()
        applied_during_burst = [0]
        try:
            while True:
                await asyncio.sleep(SAMPLE_EVERY)
                if server.records_received == UPDATES + TRANSACTIONS:
                    break
                applied_during_burst.append(runtime.snapshot().updates_applied)
            await server.stop()
            result = await runtime.shutdown()
        finally:
            await asyncio.to_thread(writer.join, 10.0)
        return runtime, result, applied_during_burst

    runtime, result, applied_during_burst = asyncio.run(scenario())

    assert result.updates_arrived == UPDATES
    assert result.transactions_arrived == TRANSACTIONS
    # Scheduling points during the burst: installs never stand still.
    assert len(applied_during_burst) > 2
    assert all(
        later > earlier for earlier, later in
        zip(applied_during_burst, applied_during_burst[1:])
    ), applied_during_burst
    # Most of the burst is serviced; the starved scheduler managed ~5-10%.
    serviced = result.updates_applied + result.updates_skipped
    assert serviced / result.updates_arrived >= 0.5
    # Shed-and-account: every record has exactly one fate ...
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    # ... and every transaction an outcome.
    assert runtime.in_flight == 0
    assert result.transactions_in_flight == 0


def test_burst_of_sub_spin_transactions_is_absorbed_not_discarded(monkeypatch):
    """The same flood, the same three properties, with transactions that
    compute 0.3 ms: every completion falls inside what used to be the
    clock's spin-yield tier, where the wait was a loop turn per poll."""
    monkeypatch.setattr(sys.modules[__name__], "COMPUTE_TIME", 0.0003)
    test_burst_is_absorbed_not_discarded()
