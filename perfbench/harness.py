"""Server processes and the client loops that drive them.

The server is an unmodified ``python -m repro.cli serve --tcp``
subprocess (or the same CLI entered through ``launcher.py`` for a traced
run).  The client side is one thread with at most two connections.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

clock = time.monotonic

HERE = Path(__file__).resolve().parent

#: Seconds a server may take from spawn to its "serving" line.
READY_TIMEOUT_S = 120.0

#: Seconds a request may take before the run is declared stuck.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the client saw it (times from ``time.monotonic``)."""

    rid: str
    cls: str
    payload: dict
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))


class ServerProcess:
    """One ``repro.cli serve --tcp`` subprocess, logging to a file."""

    def __init__(self, root: Path, workdir: Path, tag: str, csv: Path, *,
                 seed: int, state_dir: Path | None = None,
                 spans_out: Path | None = None):
        self.log_path = workdir / f"server-{tag}.log"
        serve = ["serve", str(csv), "--tcp", "127.0.0.1:0", "--seed", str(seed),
                 "--checkpoint-every", "0"]
        if state_dir is not None:
            serve += ["--state-dir", str(state_dir)]
        if spans_out is not None:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_out), "--", *serve]
        else:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawned = clock()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=str(workdir), env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.address: str | None = None

    def wait_ready(self) -> str:
        """Block until the server prints its address; returns it."""
        limit = self.spawned + READY_TIMEOUT_S
        while clock() < limit:
            with open(self.log_path, "rb") as log:
                for line in log:
                    if line.startswith(b'{"serving"'):
                        self.address = json.loads(line)["serving"]
                        return self.address
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            time.sleep(0.002)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S}s")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def log_tail(self, n: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-n:]
        except OSError:
            return ""

    def stop(self, timeout: float = 60.0) -> None:
        """Ask for a graceful drain; kill if it does not end in time."""
        if self.proc.poll() is None and self.address is not None:
            from repro.server.client import ServeClient

            try:
                with ServeClient(self.address, timeout=timeout, connect_retries=1) as client:
                    client.shutdown()
            except (OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def control_requests(address: str, payloads, prefix: str) -> list[Record]:
    """Send ``payloads`` one at a time on one connection (untimed phases)."""
    from repro.server.client import ServeClient

    records = []
    with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as client:
        for i, payload in enumerate(payloads):
            rec = Record(f"{prefix}{i}", "warmup", dict(payload, id=f"{prefix}{i}"))
            rec.sent = clock()
            rec.response = client.request(rec.payload)
            rec.done = clock()
            records.append(rec)
    return records


def closed_loop(address: str, plan, seconds: float, prefix: str) -> tuple[list[Record], float]:
    """Send the plan's next request when the previous answer arrives, on
    one connection, until ``seconds`` have passed.

    Returns the records and the loop's start time.
    """
    from repro.server.client import ServeClient

    records: list[Record] = []
    with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as client:
        start = clock()
        stop_at = start + seconds
        while clock() < stop_at:
            payload, cls = next(plan)
            rid = f"{prefix}{len(records)}"
            rec = Record(rid, cls, dict(payload, id=rid))
            rec.sent = rec.due = clock()
            rec.response = client.request(rec.payload)
            rec.done = clock()
            records.append(rec)
    return records, start


def open_loop(address: str, schedule, prefix: str) -> tuple[list[Record], float]:
    """Send each scheduled request when due, from this thread, over two
    connections, reading answers as they arrive.

    ``schedule`` is ``[(due_s, conn, payload, cls)]`` sorted by due time.
    Returns the records in schedule order and the loop's start time.
    """
    host, _, port = address.rpartition(":")
    socks = [socket.create_connection((host, int(port)), timeout=REQUEST_TIMEOUT_S)
             for _ in range(2)]
    sel = selectors.DefaultSelector()
    buffers = [b"", b""]
    inflight: list[deque] = [deque(), deque()]
    for c, sock in enumerate(socks):
        sel.register(sock, selectors.EVENT_READ, c)
    records: list[Record] = []
    start = clock() + 0.05
    give_up = start + (schedule[-1][0] if schedule else 0.0) + REQUEST_TIMEOUT_S
    i = 0
    try:
        while i < len(schedule) or inflight[0] or inflight[1]:
            now = clock()
            while i < len(schedule) and start + schedule[i][0] <= now:
                due, c, payload, cls = schedule[i]
                rid = f"{prefix}{i}"
                rec = Record(rid, cls, dict(payload, id=rid), due=start + due)
                rec.sent = clock()
                socks[c].sendall(json.dumps(rec.payload).encode() + b"\n")
                inflight[c].append(rec)
                records.append(rec)
                i += 1
                now = clock()
            if now > give_up:
                raise RuntimeError("open loop: answers overdue")
            wait = start + schedule[i][0] - now if i < len(schedule) else 1.0
            for key, _ in sel.select(max(wait, 0.0)):
                c = key.data
                data = socks[c].recv(1 << 16)
                if not data:
                    raise RuntimeError("open loop: server closed a connection")
                buffers[c] += data
                while b"\n" in buffers[c]:
                    line, buffers[c] = buffers[c].split(b"\n", 1)
                    rec = inflight[c].popleft()
                    rec.done = clock()
                    rec.response = json.loads(line)
    finally:
        sel.close()
        for sock in socks:
            sock.close()
    return records, start
