"""The HTTP side of ``http-steady``: server process and open-loop client.

The server runs as a fresh interpreter (``serve.py``) that blocks in the
front end's signal wait and drains on SIGTERM; its stdin is closed, so a
forked worker can never inherit a blocked terminal.  The client frames
every response by its ``Content-Length`` instead of reading to EOF: a
process that inherited the accepted socket (a forked pool worker, say)
keeps the connection open, and a read-to-EOF client would hang on it.

Load comes from one asyncio loop with at most ``sockets`` connections
open at a time; a request that finds none free waits, and that wait is
reported, because it is queueing the server caused.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SERVE = Path(__file__).resolve().parent / "serve.py"

#: seconds a server may take to bind, and to drain and exit
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
#: seconds one request may take before it counts as a transport failure
REQUEST_TIMEOUT = 30.0
#: seconds between host-speed probes during an open-loop window
PROBE_EVERY_S = 0.1


class ServerProcess:
    """One ``serve.py`` interpreter, started and stopped by the client."""

    def __init__(self, argv: list[str], env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVE), *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
        )
        self._buffer = b""
        self.setup: dict = {}
        self.port = 0
        deadline = time.monotonic() + START_TIMEOUT
        try:
            while not self.port:
                line = self._readline(deadline)
                if line.startswith("setup "):
                    self.setup = json.loads(line[len("setup "):])
                elif line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server did not report its port in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"server exited early (code {self.proc.wait()})"
                    )
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> list[str]:
        """SIGTERM, wait for the drain, return the lines printed since."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within the timeout")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return (self._buffer + rest).decode().splitlines()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


async def post(port: int, path: str, body: bytes) -> tuple[int, dict]:
    """One POST over its own connection, framed by Content-Length."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = None
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:
            raise ValueError("response without Content-Length")
        payload = json.loads(await reader.readexactly(length))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return status, payload


def post_sync(port: int, body: bytes) -> tuple[int, dict]:
    return asyncio.run(
        asyncio.wait_for(post(port, "/v1/query", body), REQUEST_TIMEOUT)
    )


@dataclass
class Request:
    """One open-loop request; times on the client's monotonic clock."""

    index: int
    due: float
    ready: float = 0.0       # when its task first ran
    sent: float = 0.0        # when it got a socket
    done: float = 0.0
    status: int | None = None
    payload: dict | None = None
    error: str | None = None


async def _open_loop(port, schedule, bodies, sockets, probe):
    loop = asyncio.get_running_loop()
    free = asyncio.Semaphore(sockets)
    start = loop.time()
    requests = [Request(i, start + float(t)) for i, t in enumerate(schedule)]

    async def probing() -> None:
        while True:
            probe.sample(loop.time())
            await asyncio.sleep(PROBE_EVERY_S)

    async def one(req: Request) -> None:
        req.ready = loop.time()
        async with free:
            req.sent = loop.time()
            try:
                req.status, req.payload = await asyncio.wait_for(
                    post(port, "/v1/query", bodies[req.index]),
                    REQUEST_TIMEOUT,
                )
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                req.error = f"{type(exc).__name__}: {exc}"
            req.done = loop.time()

    prober = asyncio.create_task(probing())
    tasks = []
    for req in requests:
        delay = req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(req)))
    await asyncio.gather(*tasks)
    prober.cancel()
    try:
        await prober
    except asyncio.CancelledError:
        pass
    probe.sample(loop.time())
    return start, requests


def open_loop(port: int, schedule, bodies: list[bytes], sockets: int,
              probe) -> tuple[float, float, list[Request]]:
    """Send ``bodies[i]`` at ``schedule[i]`` seconds after the start,
    whatever is still outstanding, sampling ``probe`` every
    ``PROBE_EVERY_S`` on the loop's clock.  Returns the start as
    wall-clock and as loop time, and the requests."""
    started_wall = time.time()
    start, requests = asyncio.run(
        _open_loop(port, schedule, bodies, sockets, probe)
    )
    return started_wall, start, requests
