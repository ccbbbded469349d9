"""Traced entry to ``repro-search``: install the span wrappers, then run
``repro.cli.main`` unchanged, so traced and untraced runs go through the
same CLI path.

``serve`` additionally reads ``on``/``off``/``dump`` from stdin (see
:func:`tracer.control_loop`); other commands dump their spans on exit.

Usage: python3 cli_host.py SPANS.json <repro-search arguments...>
"""

from __future__ import annotations

import sys
import threading

import tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracer.Recorder()
    tracer.install(recorder)
    tracer.enable_metrics()
    recorder.set_enabled(True)
    from repro.cli import main as cli_main

    if cli_args[0] == "serve":
        threading.Thread(target=tracer.control_loop,
                         args=(recorder, spans_path), daemon=True).start()
        return cli_main(cli_args)
    code = cli_main(cli_args)
    recorder.dump(spans_path, {"counters": tracer.counters()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
