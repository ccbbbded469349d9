"""End-to-end serving benchmark for the digital-library search engine.

Runs one workload against a real ``repro.service`` HTTP daemon in its
own server process, loads it from this process over keep-alive
``http.client`` connections, checks the answers, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload search_5k --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``search_5k``       - IrEngine over a 5000-doc Zipf corpus, read-only,
* ``library_ausopen`` - the conceptual engine over the Australian Open
  site, served by ``repro-search serve --backend process``,
* ``ingest_200``      - a 200-doc IrEngine with a write-ahead log and a
  writer adding, updating and deleting documents every 2 s.

Each run is an open-loop phase (a fixed query log replayed in seeded
order on a schedule, latency timed from each request's due time) and a
closed-loop phase (each connection sends when its last reply is in).

``--trace 0`` reports the end-to-end metrics of an untraced run:
``setup_s`` (launch to first correct answer, median of the run's
set-ups), ``read_qps`` (correct closed-loop replies per second) and
``rss_mb`` (the server's peak RSS).  ``--trace 1`` wraps the program's
public functions in spans from this directory's files (``src/`` is
untouched) and reports the per-layer metrics, including the open-loop
``read_p50_ms``/``read_p95_ms`` of its untraced half, the ingest write
latencies and the tracing overhead.  Every run prints all the metrics
it has, host facts and the seed; the raw samples land in
``.perfbench_work/<workload>-<seed>/``.

A wrong answer makes the run exit 1; so does an open-loop phase whose
backlog grew, which is reported as invalid rather than as a number.

Files: ``workloads.py`` (the three workloads and their checks),
``inputs.py`` (seeded generators), ``harness.py`` (server processes,
load generator, statistics), ``ir_host.py`` (the IR workloads' server),
``cli_host.py`` (traced ``repro-search``), ``tracer.py`` (spans),
``repeat.py`` (median and quartiles over seeds) and ``baseline/`` (the
first recorded runs: 10 seeds untraced, 5 traced, 2-core host).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_contract() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in contract["end_to_end"]},
            {m["name"]: m["unit"] for m in contract["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # servers stop on SIGINT; a caller that started this run in the
    # background may have left SIGINT ignored, which exec would pass on
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing "
              f"under {ROOT})", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_contract()
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = harness.fresh_dir(
        ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}")
    print("host " + json.dumps(harness.host_facts(args.seed)))
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), work)

    outcome.per_layer["error_ratio"] = (outcome.failed
                                        / max(outcome.attempted, 1))
    unknown = set(outcome.per_layer) - set(per_layer)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # a layer a workload never enters did no work: it reports zero
    layers = {name: outcome.per_layer.get(name, 0.0) for name in per_layer}
    units = {**end_to_end, **per_layer}
    for name, value in sorted({**outcome.end_to_end, **layers}.items()):
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in sorted(outcome.extra.items()):
        print(f"info {name} = {json.dumps(value)}")
    for note in outcome.notes:
        print(f"FAILED {note}", file=sys.stderr)
    if outcome.invalid:
        print(f"INVALID {outcome.invalid}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.invalid is None
    measured = layers if args.trace else {
        name: outcome.end_to_end[name] for name in end_to_end}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in measured.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
