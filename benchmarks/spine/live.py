"""The live workloads' machinery: one server process tree, one client.

The system under test is what a user runs — ``python -m repro.live serve``
— spawned in its own process group and driven over TCP by this process:
one thread, two connections (binary data + a JSONL control session for
``{"kind": "snapshot"}``), sized for a 2-core host.  Everything here
times the server *from outside*: client clocks, ``/proc`` and
``getrusage``; nothing under ``src/`` is touched.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque

from repro.workload.codec import WIRE_PREAMBLE, FrameDecoder

from hostspeed import probe_burst
from trace import TICK_S, Trace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")

#: Every live workload serves with these flags and the CLI's default queue
#: bounds and object counts: what a user of ``repro-live serve`` gets.
SERVE_FLAGS = ("--algorithm", "TF", "--ips", "1e10", "--mean-age", "0",
               "--metrics", "none")

#: A burst of host-speed probes (about 1 ms) this often, in ticks.
PROBE_TICKS = 125

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_PAGE_KB = 1024.0


class HarnessError(RuntimeError):
    """The run cannot produce a result (server died, reply timed out)."""


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _proc_stat(pid: int) -> "tuple[int, float] | None":
    """(process group, user+sys CPU seconds) of one live pid; None when it
    is gone or has ended and only waits for init to reap it (a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    if fields[0] == b"Z":
        return None
    return int(fields[2]), (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def _snapshot_round_trip(conn: socket.socket) -> dict:
    """Ask a fresh, blocking JSONL session for one snapshot."""
    conn.sendall(b'{"kind":"snapshot"}\n')
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = conn.recv(1 << 20)
        if not chunk:
            raise HarnessError("server closed the control session")
        buffer += chunk
    return json.loads(buffer)


def worker_snapshots(merged: dict) -> "list[dict]":
    """Each shard worker's own snapshot, asked over its public port.

    The merged cluster snapshot drops the shard-local gauges (install
    latency, dispatch lag, log and snapshot counters); every worker is an
    ordinary ingest server, so the harness asks each one directly and
    notes the round trip as ``rtt_s``.  A single-node snapshot already
    carries the gauges: returns ``[]``.
    """
    replies = []
    for row in (merged.get("extras") or {}).get("workers") or []:
        began = time.perf_counter()
        with socket.create_connection(("127.0.0.1", row["port"]), timeout=5.0) as conn:
            reply = _snapshot_round_trip(conn)
        reply["rtt_s"] = time.perf_counter() - began
        replies.append(reply)
    return replies


class Server:
    """One ``repro.live serve`` process tree in its own process group.

    The group is the unit of hygiene: whatever happens to the harness,
    :meth:`kill` takes the supervisor, its shard workers and their
    resource tracker down together, so no orphan keeps spinning on the
    shared cores.
    """

    def __init__(self, name: str, extra_args: "tuple[str, ...]" = (),
                 *, wal: bool = False) -> None:
        self.name = name
        self.extra_args = tuple(extra_args)
        self.wal = wal
        self.wal_dir: "str | None" = None
        self.port = 0
        self.process: "subprocess.Popen | None" = None
        self.control: "socket.socket | None" = None
        self._log = None

    def command(self) -> "list[str]":
        """The ``serve`` command line: flags, deployment, port — no seed."""
        args = [sys.executable, "-m", "repro.live", "serve", *SERVE_FLAGS,
                "--port", str(self.port), *self.extra_args]
        if self.wal_dir is not None:
            args += ["--log-dir", self.wal_dir]
        return args

    def start(self, timeout: float = 30.0) -> "tuple[float, dict]":
        """Spawn, connect the control session, take the first snapshot.

        Returns ``(setup_s, first_snapshot)``; ``setup_s`` runs from just
        before the spawn to the first snapshot reply — what a user waits
        for before the server is of any use.
        """
        os.makedirs(OUT, exist_ok=True)
        if self.wal:
            # A reused --log-dir would silently turn this run into a warm
            # restart with replay inside setup_s: always a fresh directory.
            self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT)
        self.port = _free_port()
        args = self.command()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(OUT, f"{self.name}.server.log"), "wb")
        began = time.perf_counter()
        self.process = subprocess.Popen(
            args, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        deadline = began + timeout
        while True:
            try:
                self.control = socket.create_connection(
                    ("127.0.0.1", self.port), timeout=1.0
                )
                break
            except OSError:
                if self.process.poll() is not None:
                    raise HarnessError(
                        f"server exited with {self.process.returncode} "
                        f"before accepting (see out/{self.name}.server.log)"
                    ) from None
                if time.perf_counter() > deadline:
                    raise HarnessError("server never accepted") from None
                time.sleep(0.005)
        self.control.settimeout(timeout)
        first = _snapshot_round_trip(self.control)
        return time.perf_counter() - began, first

    # -- /proc -----------------------------------------------------------
    def tree_cpu(self, pids=None) -> "dict[int, float]":
        """CPU seconds so far of every live process in the server's group.

        Scans ``/proc`` unless ``pids`` (an earlier result's keys) is
        given: a full scan costs milliseconds, re-reading known pids costs
        microseconds, and the load loop samples while keeping a schedule.
        """
        group = self.process.pid  # start_new_session: pgid == leader pid
        if pids is None:
            pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
        usage = {}
        for pid in pids:
            stat = _proc_stat(pid)
            if stat is not None and stat[0] == group:
                usage[pid] = stat[1]
        return usage

    def peak_rss_mb(self) -> float:
        """Sum of every tree member's resident-set high-water mark."""
        total_kb = 0
        for pid in self.tree_cpu():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / _PAGE_KB

    def log_dir_bytes(self) -> int:
        if self.wal_dir is None:
            return 0
        total = 0
        for root, _dirs, files in os.walk(self.wal_dir):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
        return total

    # -- shutdown --------------------------------------------------------
    def stop(self, timeout: float = 20.0) -> "tuple[dict, float]":
        """SIGINT, wait for the drain, return ``(final_result, cpu_s)``.

        ``cpu_s`` is user+sys of the whole reaped tree
        (``RUSAGE_CHILDREN`` delta around the wait).
        """
        process = self.process
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            os.killpg(process.pid, signal.SIGINT)
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise HarnessError("server did not drain after SIGINT") from None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._reap_group()
        self._release()
        if process.returncode != 0:
            raise HarnessError(f"server exited with {process.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise HarnessError("server printed no final result")
        cpu_s = ((after.ru_utime - before.ru_utime)
                 + (after.ru_stime - before.ru_stime))
        return json.loads(lines[-1]), cpu_s

    def kill(self) -> None:
        """Take the whole group down (harness failure path; idempotent)."""
        process = self.process
        if process is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if process.poll() is None:
            process.communicate()
        self._reap_group(grace=0.0)
        self._release()

    def _reap_group(self, grace: float = 2.0) -> None:
        """Wait until nothing of the group is left; SIGKILL what lingers.

        The leader reaps its own workers, but their helper (the
        multiprocessing resource tracker) outlives it by a moment, and a
        killed leader leaves its workers to us.
        """
        deadline = time.perf_counter() + grace
        while self.tree_cpu():
            if time.perf_counter() >= deadline:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                deadline = time.perf_counter() + 5.0
            time.sleep(0.02)

    def _release(self) -> None:
        if self.control is not None:
            self.control.close()
            self.control = None
        if self._log is not None:
            self._log.close()
            self._log = None
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            self.wal_dir = None


def cold_start(server: Server) -> float:
    """One throw-away start/stop; returns its ``setup_s``."""
    try:
        setup_s, _ = server.start()
        server.stop()
    except BaseException:
        server.kill()
        raise
    return setup_s


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
def settled_updates(snapshot: dict) -> int:
    """Updates whose fate is decided (everything not still queued)."""
    return (snapshot["updates_arrived"] - snapshot["updates_pending_os"]
            - snapshot["updates_pending_queue"])


class Session:
    """The client's two connections and everything it hears on them."""

    def __init__(self, server: Server) -> None:
        self.data = socket.create_connection(("127.0.0.1", server.port))
        self.data.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.data.sendall(WIRE_PREAMBLE)
        self.data.setblocking(False)
        self.control = server.control
        self.control.setblocking(False)
        self._decoder = FrameDecoder()
        self._control_buffer = bytearray()
        self._out: "deque[memoryview]" = deque()
        #: seq -> perf_counter time the transaction was due to be sent.
        self.due: "dict[int, float]" = {}
        #: seq -> (latency_s, outcome, read_stale) for answered transactions.
        self.answered: "dict[int, tuple[float, str, bool]]" = {}
        self.errors: "list[dict]" = []
        #: rid -> (reply_received_at, snapshot) for every snapshot reply.
        self.snapshots: "dict[object, tuple[float, dict]]" = {}
        self.snapshot_rtts: "list[float]" = []
        self._requested: "dict[object, float]" = {}
        self._next_rid = 0
        self.settled = 0

    @property
    def blocked(self) -> bool:
        """Bytes are waiting for the kernel's send buffer to drain."""
        return bool(self._out)

    @property
    def polls_outstanding(self) -> int:
        return len(self._requested)

    def send(self, blob: bytes) -> None:
        if not blob:
            return
        if self._out:
            self._out.append(memoryview(blob))
            return
        try:
            sent = self.data.send(blob)
        except BlockingIOError:
            sent = 0
        if sent < len(blob):
            self._out.append(memoryview(blob)[sent:])

    def request_snapshot(self, rid=None):
        if rid is None:
            self._next_rid += 1
            rid = self._next_rid
        self._requested[rid] = time.perf_counter()
        self.control.sendall(
            json.dumps({"kind": "snapshot", "rid": rid}).encode() + b"\n"
        )
        return rid

    def await_snapshot(self, rid, timeout: float = 10.0) -> dict:
        deadline = time.perf_counter() + timeout
        while rid not in self.snapshots:
            if time.perf_counter() > deadline:
                raise HarnessError(f"no reply to snapshot {rid!r} in {timeout}s")
            self.pump(time.perf_counter() + 0.01)
        return self.snapshots[rid][1]

    def pump(self, until: float) -> None:
        """Serve both sockets until ``until`` (polls once even when late)."""
        data, control = self.data, self.control
        readers = [data, control]
        while True:
            timeout = until - time.perf_counter()
            readable, writable, _ = select.select(
                readers, [data] if self._out else (), (),
                timeout if timeout > 0 else 0,
            )
            if data in readable:
                self._read_data()
            if control in readable:
                self._read_control()
            if writable:
                self._flush()
            if timeout <= 0:
                return

    def _flush(self) -> None:
        out = self._out
        while out:
            head = out[0]
            try:
                sent = self.data.send(head)
            except BlockingIOError:
                return
            if sent < len(head):
                out[0] = head[sent:]
                return
            out.popleft()

    def _read_data(self) -> None:
        try:
            chunk = self.data.recv(1 << 18)
        except BlockingIOError:
            return
        if not chunk:
            raise HarnessError("server closed the data session")
        now = time.perf_counter()
        for record in self._decoder.feed(chunk):
            if not isinstance(record, dict):
                self.errors.append({"kind": "undecodable", "detail": repr(record)})
            elif record.get("kind") == "outcome":
                seq = record["seq"]
                due = self.due.pop(seq, None)
                if due is not None:
                    self.answered[seq] = (
                        now - due, record["outcome"], bool(record["read_stale"])
                    )
            else:
                self.errors.append(record)

    def _read_control(self) -> None:
        try:
            chunk = self.control.recv(1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise HarnessError("server closed the control session")
        now = time.perf_counter()
        buffer = self._control_buffer
        buffer += chunk
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                return
            record = json.loads(bytes(buffer[:newline]))
            del buffer[:newline + 1]
            if record.get("kind") != "snapshot":
                self.errors.append(record)
                continue
            # The cluster's merged snapshot does not echo rid: replies on
            # one session come back in request order, so match the oldest.
            rid = next(iter(self._requested))
            self.snapshot_rtts.append(now - self._requested.pop(rid))
            self.snapshots[rid] = (now, record)
            self.settled = settled_updates(record)

    def close(self) -> None:
        self.data.close()


#: Cumulative counters that may never decrease between two snapshots.
MONOTONE = (
    "transactions_arrived", "transactions_committed",
    "transactions_committed_fresh", "transactions_missed",
    "transactions_aborted_stale", "stale_reads", "view_reads",
    "updates_arrived", "updates_received", "updates_enqueued",
    "updates_applied", "updates_skipped", "updates_os_dropped",
    "updates_expired", "updates_overflowed", "updates_superseded",
    "context_switches", "events_dispatched", "view_refreshes",
)


class Boundary:
    """The client's books at one slice boundary of the window."""

    __slots__ = ("tick", "rid", "at", "updates_sent", "txns_sent", "cpu",
                 "snapshot")

    def __init__(self, tick, rid, at, updates_sent, txns_sent, cpu) -> None:
        self.tick = tick
        self.rid = rid
        self.at = at                      # perf_counter when it was reached
        self.updates_sent = updates_sent  # whole run, so far
        self.txns_sent = txns_sent
        self.cpu = cpu                    # pid -> CPU seconds so far
        self.snapshot: "dict | None" = None


class Drive:
    """What the load loop observed, on the client's clock."""

    def __init__(self) -> None:
        self.late: "list[float]" = []          # window ticks only
        #: (tick, seq) of every transaction due in the window.
        self.window_txns: "list[tuple[int, int]]" = []
        self.updates_sent = 0                  # whole run
        self.txns_sent = 0                     # whole run
        #: Window start, every ``slice_ticks`` after it, marks, window end.
        self.boundaries: "list[Boundary]" = []
        self.polls: "list[dict]" = []          # in-window snapshots, in order
        #: (tick, burst median ns): host-speed samples through the window.
        self.probes: "list[tuple[int, float]]" = []
        self.exhausted = False


def drive(
    session: Session,
    server: Server,
    trace: Trace,
    *,
    warm_ticks: int,
    slice_ticks: int,
    marks: "dict[int, str] | None" = None,
    unsettled_cap: "int | None" = None,
    poll_ticks: int = 5,
) -> Drive:
    """Send the trace: open loop, or closed loop after the warm-up.

    The measured window opens at ``warm_ticks``.  At its start, every
    ``slice_ticks`` after that, at every tick named in ``marks`` and at
    its end the client notes a :class:`Boundary`: its own counters, the
    server tree's CPU from ``/proc``, and a wire snapshot.

    Open loop (``unsettled_cap is None``): blob ``i`` goes out when tick
    ``i`` ends, whatever the server is doing; a stall shows up as
    lateness and as latency of the transactions behind it.

    Closed loop: after the open-loop warm-up, transactions keep their
    schedule but updates are topped up every tick to at most
    ``unsettled_cap`` records whose fate the server has not yet decided,
    as fed back by a snapshot polled every ``poll_ticks`` ticks.
    """
    result = Drive()
    marks = marks or {}
    blobs, counts = trace.blobs, trace.updates
    total = len(blobs)
    cursor = warm_ticks
    pids = None

    def boundary(tick: int, rid) -> None:
        nonlocal pids
        cpu = server.tree_cpu(pids)
        pids = list(cpu)
        session.request_snapshot(rid)
        result.boundaries.append(Boundary(
            tick, rid, time.perf_counter(), result.updates_sent,
            result.txns_sent, cpu,
        ))

    started = time.perf_counter()
    for index in range(total):
        due = started + (index + 1) * TICK_S
        session.pump(due)
        in_window = index >= warm_ticks
        if in_window:
            offset = index - warm_ticks
            if index in marks:
                boundary(index, marks[index])
            elif offset % slice_ticks == 0:
                boundary(index, ("slice", offset // slice_ticks))
            elif (unsettled_cap is not None and offset % poll_ticks == 0
                  and not session.polls_outstanding):
                session.request_snapshot()
            result.late.append(time.perf_counter() - due)
            if offset % PROBE_TICKS == PROBE_TICKS // 2:
                result.probes.append((index, probe_burst(15)))
        seqs = trace.txn_seqs.get(index)
        if seqs:
            for seq in seqs:
                session.due[seq] = due
            result.txns_sent += len(seqs)
            if in_window:
                result.window_txns.extend((index, seq) for seq in seqs)
        txn_blob = trace.txn_blobs.get(index)
        if unsettled_cap is None or not in_window:
            session.send(blobs[index])
            result.updates_sent += counts[index]
            if txn_blob:
                session.send(txn_blob)
        else:
            if txn_blob:
                session.send(txn_blob)
            while (
                cursor < total
                and not session.blocked
                and (result.updates_sent - session.settled + counts[cursor]
                     <= unsettled_cap)
            ):
                session.send(blobs[cursor])
                result.updates_sent += counts[cursor]
                cursor += 1
            if cursor >= total:
                result.exhausted = True
    session.pump(started + (total + 1) * TICK_S)
    boundary(total, "end")
    session.await_snapshot("end")
    for mark in result.boundaries:
        mark.snapshot = session.snapshots[mark.rid][1]
    start_at = session.snapshots[result.boundaries[0].rid][0]
    end_at = session.snapshots["end"][0]
    ordered = sorted(session.snapshots.values(), key=lambda pair: pair[0])
    result.polls = [snap for at, snap in ordered if start_at <= at <= end_at]
    return result
