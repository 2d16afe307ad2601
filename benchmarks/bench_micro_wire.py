"""Microbenchmark of one ingest session's receive path.

A sender thread writes 1,000 payloads of 600 bytes (twelve update
frames, about 612 bytes), 1 ms apart, into one end of a socketpair; the
other end is an :class:`~repro.live.server.IngestServer` session.  The
figure is the event-loop thread's CPU time per read: the transport's
read callback, the session's decode and dispatch, and the ingest of
what was read.  The runtime runs on a frozen engine clock, so no
controller work lands in the figure.

Run it on its own to print the figure::

    PYTHONPATH=src python benchmarks/bench_micro_wire.py
"""

import asyncio
import socket
import threading
import time

from repro.config import baseline_config
from repro.db.objects import ObjectClass, Update
from repro.live import IngestServer, LiveRuntime
from repro.sim.engine import Engine
from repro.workload.codec import WIRE_PREAMBLE, encode_frames

READS = 1000
FRAMES_PER_READ = 12
GAP_S = 0.001


def _send(sock: socket.socket, payloads: "list[bytes]") -> None:
    for payload in payloads:
        sock.sendall(payload)
        time.sleep(GAP_S)
    sock.shutdown(socket.SHUT_WR)


async def _session_cpu_per_read() -> float:
    config = baseline_config(duration=1.0, seed=7)
    runtime = LiveRuntime(config, "TF", clock=Engine())
    server = IngestServer(runtime)
    payloads = [
        encode_frames([
            Update(read * FRAMES_PER_READ + index, ObjectClass.VIEW_LOW,
                   index, 1.0, 0.0, 0.0)
            for index in range(FRAMES_PER_READ)
        ])
        for read in range(READS)
    ]
    payloads[0] = WIRE_PREAMBLE + payloads[0]
    ours, theirs = socket.socketpair()
    session = asyncio.ensure_future(
        server._handle(*await asyncio.open_connection(sock=ours))
    )
    sender = threading.Thread(target=_send, args=(theirs, payloads))
    began = time.thread_time()
    sender.start()
    await session  # the sender's shutdown ends it
    used = time.thread_time() - began
    sender.join()
    theirs.close()
    assert server.records_received == READS * FRAMES_PER_READ
    assert server.errors == 0
    return used / READS * 1e6


def measure() -> float:
    """CPU microseconds the serving thread spends per read."""
    return asyncio.run(_session_cpu_per_read())


def test_ingest_session_cpu_per_read(benchmark):
    per_read = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ningest session: {per_read:.1f} us of CPU per read")
    assert per_read > 0


if __name__ == "__main__":
    print(f"ingest session: {measure():.1f} us of CPU per read")
