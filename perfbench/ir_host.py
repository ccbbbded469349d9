"""Server process for the IR workloads (``search_5k``, ``ingest_200``).

Reads the generated inputs, indexes them into an ``IrEngine`` behind a
``SearchService`` (with a ``WriteAheadLog`` when the inputs name one)
and serves it with ``repro.service.serve``.  Commands on stdin:

* ``writer`` starts the writer thread: one op every ``write_period_s``,
  each acknowledged by ``SearchService.reindex``/``remove``; after each
  add it searches for the new document's marker term until it is found,
* ``writes`` stops the writer and replies with every op's timings,
* ``status`` replies with the WAL status,
* ``on``/``off``/``dump`` switch and write out tracing (traced runs).

Usage: python3 ir_host.py INPUTS.json TRACE(0|1) SPANS.json
"""

from __future__ import annotations

import json
import sys
import threading
import time

import tracer


def main(argv: list[str]) -> int:
    inputs_path, traced, spans_path = argv[0], argv[1] == "1", argv[2]
    recorder = tracer.Recorder()
    if traced:
        tracer.install(recorder)
        tracer.enable_metrics()
        recorder.set_enabled(True)

    from repro.core.config import ExecutionPolicy
    from repro.ir.engine import IrEngine
    from repro.service import SearchRequest, SearchService, serve
    from repro.wal import WriteAheadLog

    with open(inputs_path) as handle:
        inputs = json.load(handle)
    engine = IrEngine(fragment_count=inputs["fragment_count"])
    for url, text in inputs["corpus"]:
        engine.index(url, text)
    wal = WriteAheadLog(inputs["wal"]) if inputs.get("wal") else None
    service = SearchService(engine, wal=wal)
    httpd = serve(service, "127.0.0.1", 0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    print(f"serving on {httpd.address}", flush=True)

    writer = Writer(service, inputs.get("writes", []),
                    inputs.get("write_period_s", 2.0),
                    lambda marker: SearchRequest(
                        query=marker, mode="content",
                        policy=ExecutionPolicy(n=10)))

    def status(_):
        return wal.status() if wal is not None else {}

    try:
        tracer.control_loop(recorder, spans_path, {
            "writer": lambda _: writer.start(),
            "writes": lambda _: writer.finish(),
            "status": status,
        })
    finally:
        writer.finish()
        httpd.shutdown()
        httpd.server_close()
        if wal is not None:
            wal.close()
    return 0


class Writer:
    """Applies the write schedule on a fixed period from one thread."""

    VISIBLE_TIMEOUT_S = 10.0

    def __init__(self, service, ops: list[dict], period_s: float,
                 marker_request):
        self.service = service
        self.ops = ops
        self.period_s = period_s
        self.marker_request = marker_request
        self.results: list[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def start(self) -> dict:
        self._thread.start()
        return {}

    def finish(self) -> dict:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        return {"ops": self.results}

    def _run(self) -> None:
        begin = time.perf_counter()
        for index, op in enumerate(self.ops):
            if self._stop.wait(max(0.0, begin + index * self.period_s
                                   - time.perf_counter())):
                return
            self.results.append(self._apply(op))

    def _apply(self, op: dict) -> dict:
        submitted = time.perf_counter()
        if op["op"] == "delete":
            self.service.remove(op["url"])
        else:
            self.service.reindex(op["url"], op["text"])
        acked = time.perf_counter()
        result = {"op": op["op"], "url": op["url"],
                  "ack_ms": (acked - submitted) * 1000.0}
        if op["op"] == "add":
            result["visible_ms"] = self._await_visible(op, submitted)
        return result

    def _await_visible(self, op: dict, submitted: float) -> float | None:
        request = self.marker_request(op["marker"])
        while time.perf_counter() - submitted < self.VISIBLE_TIMEOUT_S:
            response = self.service.search(request)
            if any(hit.key == op["url"] for hit in response.hits):
                return (time.perf_counter() - submitted) * 1000.0
            time.sleep(0.001)
        return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
