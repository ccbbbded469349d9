"""Server processes, the HTTP load generator and run statistics."""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


# -- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def host_facts(seed: int) -> dict:
    """What a reader needs to compare two runs."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else None
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "commit": commit, "seed": seed}


def dir_mb(path: Path) -> float:
    total = sum(entry.stat().st_size for entry in path.rglob("*")
                if entry.is_file())
    return total / 1e6


# -- server processes ------------------------------------------------------------

class ServerProcess:
    """One server subprocess: stdout lines in a queue, commands on stdin.

    Servers print ``serving on http://host:port`` once they accept
    requests and answer each stdin command with one ``ok <command>
    <json>`` line.
    """

    def __init__(self, argv: list[str], log: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1",
                   PYTHONHASHSEED="0")
        self.log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=HERE, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log)
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server gave no {prefix!r} line in time")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"server exited before {prefix!r}; see {self.log.name}")
            if line.startswith(prefix):
                return line

    def wait_serving(self, timeout: float = 120.0) -> int:
        line = self.expect("serving on", timeout)
        return int(line.split()[2].rsplit(":", 1)[1])

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        word = text.split()[0]
        line = self.expect(f"ok {word} ", timeout)
        return json.loads(line.split(" ", 2)[2])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def _children(self) -> list[int]:
        pids = []
        for task in Path(f"/proc/{self.proc.pid}/task").glob("*"):
            try:
                pids += [int(pid) for pid in
                         (task / "children").read_text().split()]
            except OSError:
                pass
        return pids

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the CLI drains and stops its workers on it), then
        SIGKILL for the server and any worker it left behind."""
        if self.proc.poll() is None:
            children = self._children()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                for pid in children:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        self._reader.join(5.0)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.log.close()


def run_tool(argv: list[str], log: Path) -> None:
    """Run one program subprocess to completion; raise on failure."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(log, "w") as handle:
        done = subprocess.run([sys.executable] + argv, cwd=HERE, env=env,
                              stdout=handle, stderr=subprocess.STDOUT,
                              timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[:2]} failed; see {log}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- HTTP load generation ----------------------------------------------------------

class Client:
    """One keep-alive ``http.client`` connection to ``POST /v1/search``."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def post(self, body: dict) -> tuple[int, dict | None]:
        payload = json.dumps(body).encode()
        try:
            self.conn.request("POST", "/v1/search", payload,
                              {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, None
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, None

    def close(self) -> None:
        self.conn.close()


def first_answer(port: int, body: dict, check, timeout: float = 60.0) -> None:
    """Poll until ``body`` gets a reply ``check`` accepts."""
    deadline = time.monotonic() + timeout
    client = Client(port)
    try:
        while time.monotonic() < deadline:
            status, reply = client.post(body)
            if status == 200 and check(reply):
                return
            time.sleep(0.01)
    finally:
        client.close()
    raise RuntimeError("server never gave a correct first answer")


class Sample:
    """One request: its schedule, its outcome and its reply."""

    __slots__ = ("body", "due", "sent", "done", "status", "reply")

    def __init__(self, body: dict, due: float | None):
        self.body = body
        self.due = due
        self.sent = self.done = 0.0
        self.status = 0
        self.reply = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.reply is not None

    @property
    def latency_ms(self) -> float:
        start = self.due if self.due is not None else self.sent
        return (self.done - start) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0 if self.due is not None \
            else 0.0


def send(client: Client, sample: Sample) -> None:
    sample.sent = time.perf_counter()
    sample.status, sample.reply = client.post(sample.body)
    sample.done = time.perf_counter()


def open_loop(port: int, bodies: list[dict], rate: float,
              connections: int) -> list[Sample]:
    """Send ``bodies`` on a fixed schedule, ``rate`` per second,
    round-robin over ``connections``; latency counts from each
    request's due time."""
    start = time.perf_counter() + 0.05
    samples = [Sample(body, start + i / rate)
               for i, body in enumerate(bodies)]

    def lane(offset: int) -> None:
        client = Client(port)
        try:
            for sample in samples[offset::connections]:
                pause = sample.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                send(client, sample)
        finally:
            client.close()

    _run_lanes(lane, connections)
    return samples


def closed_loop(port: int, bodies: list[dict], seconds: float,
                connections: int) -> tuple[list[Sample], float]:
    """Each connection sends its next request when the last returns.

    Returns the samples and the measured phase length in seconds.
    """
    lanes: list[list[Sample]] = [[] for _ in range(connections)]
    start = time.perf_counter()
    stop_at = start + seconds

    def lane(offset: int) -> None:
        client = Client(port)
        index = offset
        try:
            while time.perf_counter() < stop_at:
                sample = Sample(bodies[index % len(bodies)], None)
                index += connections
                send(client, sample)
                lanes[offset].append(sample)
        finally:
            client.close()

    _run_lanes(lane, connections)
    elapsed = max(s.done for lane in lanes for s in lane) - start \
        if any(lanes) else seconds
    return [s for lane in lanes for s in lane], elapsed


def _run_lanes(target, connections: int) -> None:
    threads = [threading.Thread(target=target, args=(offset,))
               for offset in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def backlog_grew(samples: list[Sample]) -> bool:
    """Whether the open-loop queue grew through the phase.

    The last tenth's median latency must be well above the first
    tenth's, and the second half's above the first half's: a periodic
    stall (a write holding the lock) can land in the last tenth by
    itself, but only a growing backlog lifts the whole second half.
    """
    tenth = len(samples) // 10
    if tenth < 5:
        return False
    latency = [s.latency_ms for s in samples]
    half = len(latency) // 2
    tail_grew = median(latency[-tenth:]) > 2.0 * median(latency[:tenth]) \
        + 10.0
    half_grew = median(latency[half:]) > 1.5 * median(latency[:half]) + 5.0
    return tail_grew and half_grew


def tag(bodies: list[dict], prefix: str) -> list[dict]:
    """Give every request body a unique wire ``trace_id``."""
    return [dict(body, trace_id=f"{prefix}{i}")
            for i, body in enumerate(bodies)]
