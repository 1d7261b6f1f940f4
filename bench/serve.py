"""The ``http-steady`` server: one fresh interpreter per server.

Builds the check-in fleet from the seed, a serial ``QueryEngine`` over
it and its three object tables, then serves ``HTTPFrontEnd`` until
SIGTERM.  Prints ``setup {json}`` before binding, the front end prints
``serving on http://host:port``, and after the drain a traced server
prints ``ledger {json}`` (its ledger rows and trace-span sums) and
writes its span trees to ``--out``.  Started by ``run.py``; the parent
sets ``PYTHONPATH`` to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import worlds
from ledger import Ledger, compact_traces
from repro import QueryEngine
from repro.engine.server import run_server
from repro.prob import PowerLawPF


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--objects", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--cpu", type=int,
                        help="run every thread of the server on this CPU")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        # set before any thread starts, so the front end's engine threads
        # inherit it
        os.sched_setaffinity(0, {args.cpu})
    started = time.perf_counter()
    pf = PowerLawPF()
    engine = QueryEngine(
        worlds.checkin_fleet(args.seed, args.objects),
        default_pf=pf, tracing=bool(args.trace),
    )
    tables_started = time.perf_counter()
    for tau in worlds.QUERY_TAUS:
        engine.table_for(pf, tau)
    now = time.perf_counter()
    ledger = Ledger()
    if args.trace:
        ledger.install()
    print("setup " + json.dumps({
        "build_s": now - started, "table_build_s": now - tables_started,
    }), flush=True)
    code = run_server(engine, port=0)
    if args.trace:
        ledger.uninstall()
        traces = engine.tracer.traces
        print("ledger " + json.dumps({
            "rows": ledger.rows, "spans": compact_traces(traces),
        }), flush=True)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"http-steady-seed{args.seed}.server.jsonl"
            with open(path, "w") as f:
                for tree in traces:
                    f.write(json.dumps(tree) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
