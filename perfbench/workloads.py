"""The three workloads: set-up, load phases, answer checks and metrics.

Every workload serves the program from its own server process and loads
it from this (client) process over keep-alive ``http.client``
connections.  A run is an open-loop phase followed by a closed-loop
phase.  The traced run splits its open-loop time into an untraced half
(the tracing-overhead baseline) and a traced half.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import inputs
import tracer
from harness import median, percentile, ratio

OPEN_SHARE = 0.75           # of --seconds, the rest is closed loop
INGEST_OPEN_SHARE = 0.6     # 20 s: 6 writes open, 4 (a whole cycle) closed
READ_RATE = 20.0            # open-loop requests per second
CONNECTIONS = min(2, os.cpu_count() or 1)  # at most nproc
INGEST_RATE = 10.0
INGEST_CONNECTIONS = 1
WRITE_PERIOD_S = 2.0
CHECK_SHARE = 0.1           # of search_5k replies, compared in-process


@dataclass
class Outcome:
    """What one run measured and whether its answers were right."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    invalid: str | None = None
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} failed: {why}")


def answer(reply: dict | None):
    """The parts of a reply that must be reproducible."""
    if reply is None:
        return None
    return (reply.get("hits"), reply.get("facets"), reply.get("total"))


def body_key(body: dict) -> str:
    return json.dumps({k: v for k, v in body.items() if k != "trace_id"},
                      sort_keys=True)


def check_consistent(samples, outcome: Outcome) -> None:
    """Identical request bodies must get identical answers."""
    seen: dict = {}
    wrong = 0
    for sample in samples:
        if not sample.ok:
            continue
        key = body_key(sample.body)
        got = answer(sample.reply)
        if seen.setdefault(key, got) != got:
            wrong += 1
    outcome.fail(wrong, "replies to one request body differ")


def count_errors(samples, outcome: Outcome) -> None:
    outcome.attempted += len(samples)
    outcome.fail(sum(1 for s in samples if not s.ok),
                 "non-200 or unreadable replies")


# -- set-up ------------------------------------------------------------------------

def timed_setups(count: int, launch):
    """Run ``launch`` ``count`` times; keep the last server.

    ``launch`` returns (server, seconds to first correct answer).
    """
    times, server = [], None
    for index in range(count):
        if server is not None:
            server.stop()
        server, seconds = launch(index)
        times.append(seconds)
    return server, times


def marker_probes(documents: int):
    """Set-up ends when every read path answers the marker query right:
    the first query of each mode builds that mode's lazy structures."""
    top = inputs.marker_top_url(documents)
    probes = [{"query": "grandslam finalist", "mode": "content"},
              {"query": "grandslam finalist", "mode": "fragmented"},
              {"query": '"grandslam finalist"', "mode": "content",
               "schema_version": 2}]
    return [(probe, lambda reply: bool(reply["hits"])
             and reply["hits"][0]["key"] == top) for probe in probes]


def ir_server(work: Path, index: int, corpus_factory, traced: bool,
              probes, extra_inputs: dict):
    """Generate, write and index one IR corpus; return (server, setup s)."""
    started = time.perf_counter()
    payload = {"corpus": corpus_factory(), "fragment_count": 4}
    payload.update(extra_inputs)
    inputs_path = work / f"inputs{index}.json"
    inputs_path.write_text(json.dumps(payload))
    server = launch_server(
        ["ir_host.py", str(inputs_path), "1" if traced else "0",
         str(work / "spans.json")], work / f"server{index}.log", probes)
    return server, time.perf_counter() - started


def launch_server(argv: list[str], log: Path, probes):
    """Start a server and wait until every probe is answered correctly."""
    server = harness.ServerProcess(argv, log)
    try:
        server.port = server.wait_serving()
        for probe, check in probes:
            harness.first_answer(server.port, probe, check)
    except BaseException:
        server.stop()
        raise
    return server


# -- read phases ---------------------------------------------------------------------

@dataclass
class Phases:
    open: list
    closed: list
    closed_s: float
    baseline: list = field(default_factory=list)   # traced runs only


def open_count(rate: float, seconds: float) -> int:
    """Requests the open-loop phase sends: its whole query log."""
    return max(2, int(rate * seconds))


def run_phases(server, seconds: float, open_bodies, closed_bodies, *,
               rate: float, connections: int, traced: bool) -> Phases:
    """The open-loop log at ``rate``, then ``closed_bodies`` back to back
    for the rest of ``seconds``."""
    open_s = len(open_bodies) / rate
    port = server.port
    baseline = []
    if traced:
        server.command("off")
        half = len(open_bodies) // 2
        baseline = harness.open_loop(port, open_bodies[:half], rate,
                                     connections)
        server.command("on")
        opened = harness.open_loop(port, open_bodies[half:], rate,
                                   connections)
    else:
        opened = harness.open_loop(port, open_bodies, rate, connections)
    closed, elapsed = harness.closed_loop(
        port, closed_bodies, seconds - open_s, connections)
    return Phases(opened, closed, elapsed, baseline)


def save_samples(path: Path, phases: Phases) -> None:
    """Every request's body, status, timing and cache/coalesce flags."""
    rows = []
    for phase, samples in (("baseline", phases.baseline),
                           ("open", phases.open), ("closed", phases.closed)):
        for s in samples:
            reply = s.reply or {}
            rows.append({"phase": phase, "body": s.body, "status": s.status,
                         "latency_ms": s.latency_ms, "late_ms": s.late_ms,
                         "cache_hit": reply.get("cache_hit"),
                         "coalesced": reply.get("coalesced")})
    path.write_text(json.dumps(rows))


def read_metrics(phases: Phases, outcome: Outcome, work: Path) -> None:
    """The end-to-end read numbers; the raw samples go to the work dir."""
    save_samples(work / "samples.json", phases)
    correct_closed = sum(1 for s in phases.closed if s.ok)
    outcome.end_to_end["read_qps"] = correct_closed / phases.closed_s
    # a traced run takes its read latency from the untraced half
    untraced = phases.baseline or phases.open
    good = [s.latency_ms for s in untraced if s.ok]
    outcome.per_layer.update({
        "read_p50_ms": median(good),
        "read_p95_ms": percentile(good, 95),
        "loadgen.late_p99_ms": percentile(
            [s.late_ms for s in phases.baseline + phases.open], 99),
    })
    outcome.extra["open_loop_reads"] = len(phases.open)
    outcome.extra["closed_loop_reads"] = len(phases.closed)
    if harness.backlog_grew(phases.open):
        outcome.invalid = ("open-loop backlog grew: the last tenth's "
                           "median latency is far above the first's")


def reply_metrics(samples, outcome: Outcome) -> None:
    """Per-layer numbers the wire reply carries."""
    ok = [s for s in samples if s.ok]
    layer = outcome.per_layer
    layer["admission.queue_ms.p99"] = percentile(
        [s.reply["timings"]["queue_ms"] for s in ok], 99)
    layer["admission.shed_ratio"] = ratio(
        sum(1 for s in samples if s.status == 429), len(samples))
    layer["singleflight.coalesced_ratio"] = ratio(
        sum(1 for s in ok if s.reply["coalesced"]), len(ok))
    layer["cache.hit_ratio"] = ratio(
        sum(1 for s in ok if s.reply["cache_hit"]), len(ok))
    misses = [s for s in ok if not s.reply["cache_hit"]]
    layer["monetdb.tuples_per_hit"] = ratio(
        sum(s.reply["tuples_touched"] for s in misses),
        sum(s.reply["rows"] for s in misses))


def span_metrics(path: Path, phases: Phases, outcome: Outcome,
                 setup_done: float) -> None:
    """Per-layer numbers from the server's spans.

    ``setup_done`` is a client ``perf_counter`` reading; on Linux that is
    one system-wide monotonic clock, so it orders the server's spans.
    """
    dump = tracer.load_spans(path)
    spans = dump["spans"]
    counters = dump["counters"]
    layer = outcome.per_layer

    def p50(name, **kw):
        return median(tracer.durations(spans, name, **kw))

    search_ms = tracer.trace_durations(spans, "service.search")
    overhead = [s.latency_ms - search_ms[s.body["trace_id"]]
                for s in phases.closed
                if s.ok and s.body["trace_id"] in search_ms]
    service = tracer.durations(spans, "service.search")
    layer.update({
        "httpd.overhead_ms.p50": median(overhead),
        "httpd.overhead_ms.p99": percentile(overhead, 99),
        "api.decode_ms.p50": p50("api.decode"),
        "api.encode_ms.p50": p50("api.encode"),
        "rwlock.read_wait_ms.p99": percentile(
            tracer.durations(spans, "rwlock.read_wait"), 99),
        "rwlock.write_hold_ms.p50": p50("service.write"),
        "service.search_ms.p50": median(service),
        "service.search_ms.p99": percentile(service, 99),
        "plan_cache.hit_ratio": ratio(
            counters.get("plan_cache.hit", 0),
            counters.get("plan_cache.hit", 0)
            + counters.get("plan_cache.miss", 0)),
        "engine.execute_ms.p50": p50("engine.execute"),
        "conceptual.parse_ms.p50": p50("conceptual.parse"),
        "conceptual.execute_ms.p50": p50("conceptual.execute"),
        "text.analyze_ms.sum": sum(tracer.durations(spans, "text.analyze")),
        "text.normalize_calls": dump["normalize_calls"],
        "query.parse_ms.p50": p50("query.parse"),
        "query.compile_ms.p50": p50("query.compile"),
        "topn.rank_ms.p50": p50("topn.rank"),
        "topn.fragmented_ms.p50": p50("topn.fragmented"),
        "topn.structured_ms.p50": p50("topn.structured"),
        "relations.add_ms.p50": p50("relations.add"),
        "relations.remove_ms.p50": p50("relations.remove"),
        "relations.postings_rebuilds": len(tracer.durations(
            spans, "relations.postings_rebuild", after=setup_done)),
        "relations.postings_rebuild_ms.p50": p50(
            "relations.postings_rebuild"),
        "relations.idf_refresh_ms.p50": p50("relations.idf_refresh"),
        "fragmentation.build_ms.p50": p50("fragmentation.build"),
        "distributed.query_ms.p50.thread": p50("distributed.query",
                                               label="thread"),
        "distributed.query_ms.p50.process": p50("distributed.query",
                                                label="process"),
        "remote.rpc_ms.p50": p50("remote.rpc"),
        "wal.append_ms.p50": p50("wal.append"),
        "wal.fsyncs_per_append": ratio(
            counters.get("wal.fsyncs", 0),
            sum(value for key, value in counters.items()
                if key.startswith("wal.appends"))),
    })
    traced_p50 = median([s.latency_ms for s in phases.open if s.ok])
    untraced_p50 = median([s.latency_ms for s in phases.baseline if s.ok])
    layer["trace.overhead_ms"] = traced_p50 - untraced_p50
    layer["trace.accounted_ratio"] = accounted_ratio(spans, phases.open)
    outcome.extra["layer_budget_ms"] = layer_budget(spans, phases.open)


def _request_layers(spans, samples) -> list[tuple[float, dict]]:
    """(client latency, {layer: self ms}) per traced open-loop request;
    the ``httpd`` layer is what the client saw outside the server's
    top-level spans (transport, HTTP framing, JSON)."""
    table = tracer.by_trace(spans)
    rows = []
    for sample in samples:
        own = table.get(sample.body.get("trace_id"))
        if not sample.ok or own is None:
            continue
        layers = {name: seconds * 1000.0 for name, seconds in own.items()}
        latency = (sample.done - sample.sent) * 1000.0
        layers["httpd"] = latency - sum(layers.values())
        rows.append((latency, layers))
    return rows


def _median_band(rows):
    """The requests between the 45th and 55th latency percentiles."""
    rows = sorted(rows, key=lambda row: row[0])
    low, high = int(len(rows) * 0.45), max(int(len(rows) * 0.55), 1)
    return rows[low:high]


def accounted_ratio(spans, samples) -> float:
    """Sum of per-layer median self times over the median client latency,
    both taken over the median band of traced open-loop requests."""
    band = _median_band(_request_layers(spans, samples))
    if not band:
        return 0.0
    names = {name for _, layers in band for name in layers}
    total = sum(median([layers.get(name, 0.0) for _, layers in band])
                for name in names)
    return ratio(total, median([latency for latency, _ in band]))


def layer_budget(spans, samples) -> dict:
    """Mean self time per layer (ms) for the median-band requests."""
    band = _median_band(_request_layers(spans, samples))
    names = sorted({name for _, layers in band for name in layers})
    return {name: sum(layers.get(name, 0.0) for _, layers in band)
            / len(band) for name in names} if band else {}


# -- search_5k ----------------------------------------------------------------------

SEARCH_DOCS, SEARCH_VOCAB, SEARCH_WORDS = 5000, 1000, 100
#: one 5k-doc set-up costs ~12 s and the in-process reference build as
#: much again; a second set-up would not fit the run budget
SEARCH_SETUPS = 1


def search_5k(seed: int, seconds: float, traced: bool, work: Path
              ) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    count = open_count(READ_RATE, seconds * OPEN_SHARE)
    open_bodies = harness.tag(inputs.query_log(
        inputs.search_requests, count, "open", rng, SEARCH_VOCAB), "o")
    closed_bodies = harness.tag(inputs.query_log(
        inputs.search_requests, count * 4, "closed", rng, SEARCH_VOCAB),
        "c")

    def corpus():
        return inputs.zipf_corpus(SEARCH_DOCS, vocabulary=SEARCH_VOCAB,
                                  words_per_doc=SEARCH_WORDS)

    server, setups = timed_setups(SEARCH_SETUPS, lambda i: ir_server(
        work, i, corpus, traced, marker_probes(SEARCH_DOCS), {}))
    setup_done = time.perf_counter()
    try:
        phases = run_phases(server, seconds, open_bodies, closed_bodies,
                            rate=READ_RATE, connections=CONNECTIONS,
                            traced=traced)
        outcome.end_to_end["rss_mb"] = server.peak_rss_mb()
        if traced:
            server.command("dump")
    finally:
        server.stop()
    samples = phases.baseline + phases.open + phases.closed
    count_errors(samples, outcome)
    check_consistent(samples, outcome)
    check_against_reference(samples, corpus(), rng, outcome)
    read_metrics(phases, outcome, work)
    outcome.end_to_end["setup_s"] = median(setups)
    outcome.extra["setup_runs_s"] = setups
    reply_metrics(samples, outcome)
    if traced:
        span_metrics(work / "spans.json", phases, outcome, setup_done)
    return outcome


def reference_engine(corpus):
    from repro.ir.engine import IrEngine
    engine = IrEngine(fragment_count=4)
    for url, text in corpus:
        engine.index(url, text)
    return engine


def reference_answer(engine, body: dict):
    from repro.service.api import SearchRequest
    response = engine.execute(SearchRequest.from_dict(body))
    return answer(json.loads(json.dumps(response.to_dict(), default=str)))


def check_against_reference(samples, corpus, rng, outcome: Outcome) -> None:
    """A seeded sample of replies must equal in-process execution."""
    chosen = [s for s in samples if s.ok and rng.random() < CHECK_SHARE]
    engine = reference_engine(corpus)
    wrong = sum(1 for s in chosen
                if reference_answer(engine, s.body) != answer(s.reply))
    outcome.extra["reference_checked"] = len(chosen)
    outcome.fail(wrong, "replies differ from in-process IrEngine.execute")


# -- ingest_200 ------------------------------------------------------------------------

INGEST_DOCS = 200
INGEST_VOCAB = 150
INGEST_SETUPS = 5
FINAL_CHECKS = 40


def ingest_200(seed: int, seconds: float, traced: bool, work: Path
               ) -> Outcome:
    outcome = Outcome()
    rng = random.Random(seed)
    corpus_docs = inputs.zipf_corpus(INGEST_DOCS)
    writes = inputs.write_schedule(
        corpus_docs, int(seconds / WRITE_PERIOD_S) + 1, INGEST_VOCAB, rng)
    count = open_count(INGEST_RATE, seconds * INGEST_OPEN_SHARE)
    open_bodies = harness.tag(inputs.query_log(
        inputs.search_requests, count, "open", rng, INGEST_VOCAB), "o")
    closed_bodies = harness.tag(inputs.query_log(
        inputs.search_requests, count * 8, "closed", rng, INGEST_VOCAB),
        "c")
    checks = harness.tag(inputs.search_requests(
        FINAL_CHECKS, INGEST_VOCAB, rng), "f")
    wal_dir = work / "wal"

    def launch(index):
        harness.fresh_dir(wal_dir)
        return ir_server(work, index,
                         lambda: inputs.zipf_corpus(INGEST_DOCS), traced,
                         marker_probes(INGEST_DOCS),
                         {"wal": str(wal_dir), "writes": writes,
                          "write_period_s": WRITE_PERIOD_S})

    server, setups = timed_setups(INGEST_SETUPS, launch)
    setup_done = time.perf_counter()
    try:
        server.command("writer")
        phases = run_phases(server, seconds, open_bodies, closed_bodies,
                            rate=INGEST_RATE,
                            connections=INGEST_CONNECTIONS, traced=traced)
        applied = server.command("writes", timeout=120)["ops"]
        done = writes[:len(applied)]
        final = [harness.Sample(body, None) for body in checks + [
            {"query": op["marker"], "mode": "content",
             "trace_id": f"m{i}"}
            for i, op in enumerate(done) if op["op"] == "add"]]
        client = harness.Client(server.port)
        for sample in final:
            harness.send(client, sample)
        client.close()
        outcome.end_to_end["rss_mb"] = server.peak_rss_mb()
        outcome.extra["wal_status"] = server.command("status")
        if traced:
            server.command("dump")
    finally:
        server.stop()
    samples = phases.baseline + phases.open + phases.closed
    count_errors(samples + final, outcome)
    outcome.attempted += len(applied)
    outcome.fail(sum(1 for op in applied
                     if op["op"] == "add" and op["visible_ms"] is None),
                 "adds never became visible")
    check_final_corpus(final, inputs.final_corpus(corpus_docs, done),
                       outcome)
    read_metrics(phases, outcome, work)
    outcome.end_to_end["setup_s"] = median(setups)
    outcome.extra["setup_runs_s"] = setups
    write_metrics(applied, outcome)
    outcome.per_layer["disk_mb"] = harness.dir_mb(wal_dir)
    reply_metrics(samples, outcome)
    if traced:
        span_metrics(work / "spans.json", phases, outcome, setup_done)
    return outcome


def check_final_corpus(final, corpus, outcome: Outcome) -> None:
    """After the writes, the served rankings must be bit-identical to a
    from-scratch build of the final corpus."""
    engine = reference_engine(corpus)
    wrong = sum(1 for s in final if s.ok
                and reference_answer(engine, s.body) != answer(s.reply))
    outcome.fail(wrong, "rankings differ from a from-scratch rebuild")


def write_metrics(applied, outcome: Outcome) -> None:
    adds = [op["ack_ms"] for op in applied if op["op"] == "add"]
    updates = [op["ack_ms"] for op in applied if op["op"] != "add"]
    visible = [op["visible_ms"] for op in applied
               if op["op"] == "add" and op["visible_ms"] is not None]
    outcome.per_layer.update({
        "add_p50_ms": median(adds),
        "update_p50_ms": median(updates),
        "visible_p50_ms": median(visible),
    })


# -- library_ausopen -----------------------------------------------------------------

SITE = {"players": 64, "articles": 128, "videos": 6}
LIBRARY_SETUPS = 3


def library_ausopen(seed: int, seconds: float, traced: bool, work: Path
                    ) -> Outcome:
    from repro.web.ausopen import build_ausopen_site

    outcome = Outcome()
    rng = random.Random(seed)
    _, truth = build_ausopen_site(**SITE)
    expected = [list(pair) for pair in truth.mixed_query_answer()]
    count = open_count(READ_RATE, seconds * OPEN_SHARE)
    open_bodies = harness.tag(inputs.query_log(
        inputs.library_requests, count, "open", rng, truth), "o")
    closed_bodies = harness.tag(inputs.query_log(
        inputs.library_requests, count * 8, "closed", rng, truth), "c")
    snapshot = work / "snapshot"
    # set-up ends when the conceptual, content and process-backend paths
    # have each answered once
    probes = [({"query": inputs.HEADLINE, "mode": "conceptual"},
               lambda reply: headline_pairs(reply) == expected),
              ({"query": "trophy", "mode": "content"},
               lambda reply: bool(reply["hits"])),
              ({"query": "trophy", "mode": "content",
                "policy": {"backend": "process"}},
               lambda reply: bool(reply["hits"]))]

    def launch(index):
        started = time.perf_counter()
        harness.fresh_dir(snapshot)
        populate = ["populate", "--site", "ausopen", "--snapshot",
                    str(snapshot), "--players", str(SITE["players"]),
                    "--articles", str(SITE["articles"]), "--videos",
                    str(SITE["videos"]), "--cluster", "2"]
        serve = ["serve", "--snapshot", str(snapshot), "--port", "0",
                 "--backend", "process", "--replicas", "1"]
        if traced:
            harness.run_tool(["cli_host.py", str(work / "populate.json")]
                             + populate, work / f"populate{index}.log")
            argv = ["cli_host.py", str(work / "spans.json")] + serve
        else:
            harness.run_tool(["-m", "repro.cli"] + populate,
                             work / f"populate{index}.log")
            argv = ["-m", "repro.cli"] + serve
        server = launch_server(argv, work / f"server{index}.log", probes)
        return server, time.perf_counter() - started

    server, setups = timed_setups(LIBRARY_SETUPS, launch)
    setup_done = time.perf_counter()
    try:
        phases = run_phases(server, seconds, open_bodies, closed_bodies,
                            rate=READ_RATE, connections=CONNECTIONS,
                            traced=traced)
        samples = phases.baseline + phases.open + phases.closed
        parity = parity_requests(server.port, samples)
        outcome.end_to_end["rss_mb"] = server.peak_rss_mb()
        if traced:
            server.command("dump")
    finally:
        server.stop()
    count_errors(samples + [twin for _, twin in parity], outcome)
    check_consistent(samples, outcome)
    outcome.fail(sum(1 for s in samples if s.ok
                     and s.body["query"] == inputs.HEADLINE
                     and headline_pairs(s.reply) != expected),
                 "headline query missed the site's ground truth")
    outcome.fail(sum(1 for process, twin in parity
                     if twin.ok and answer(twin.reply) != answer(
                         process.reply)),
                 "process-backend replies differ from thread-backend")
    read_metrics(phases, outcome, work)
    outcome.end_to_end["setup_s"] = median(setups)
    outcome.extra["setup_runs_s"] = setups
    outcome.per_layer["disk_mb"] = harness.dir_mb(snapshot)
    reply_metrics(samples, outcome)
    if traced:
        span_metrics(work / "spans.json", phases, outcome, setup_done)
        populate_spans = tracer.load_spans(work / "populate.json")["spans"]
        serve_spans = tracer.load_spans(work / "spans.json")["spans"]
        outcome.per_layer.update({
            "engine.populate_s": sum(tracer.durations(
                populate_spans, "engine.populate")) / 1000.0,
            "persistence.save_s": sum(tracer.durations(
                populate_spans, "persistence.save")) / 1000.0,
            "persistence.load_s": sum(tracer.durations(
                serve_spans, "persistence.load")) / 1000.0,
        })
    return outcome


def headline_pairs(reply: dict | None) -> list[list[str]] | None:
    """(player key, video key) pairs of a headline-query reply."""
    if not reply or "hits" not in reply:
        return None
    pairs = []
    for hit in reply["hits"]:
        keys = dict(part.split(":", 1) for part in hit["key"].split(","))
        pairs.append([keys.get("p"), keys.get("v")])
    return sorted(pairs)


def parity_requests(port: int, samples):
    """Send each distinct process-backend request again on the thread
    backend; returns (process sample, thread twin) pairs."""
    firsts: dict = {}
    for sample in samples:
        if sample.ok and sample.body.get("policy") == {"backend": "process"}:
            firsts.setdefault(body_key(sample.body), sample)
    client = harness.Client(port)
    pairs = []
    try:
        for index, sample in enumerate(firsts.values()):
            body = {k: v for k, v in sample.body.items() if k != "policy"}
            twin = harness.Sample(dict(body, trace_id=f"t{index}"), None)
            harness.send(client, twin)
            pairs.append((sample, twin))
    finally:
        client.close()
    return pairs


WORKLOADS = {"search_5k": search_5k, "library_ausopen": library_ausopen,
             "ingest_200": ingest_200}
