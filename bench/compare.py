"""Compare two saved benchmark runs, metric by metric.

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are written by ``run.py --json`` (usually with
``--repeat 10``).  For every workload and metric the table gives each
side's median and quartiles over its runs, the spread (quartile distance
over the median), the change of B's median against A's, and a verdict
from the metric's bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median moved by more than the bound,
* ``same`` — it moved by less,
* ``unresolved`` — a side's spread exceeds the bound, so the runs
  cannot tell (unless every run of B beats every run of A: ``better``).

Per-layer metrics carry no bound and get no verdict.  The exit code is
1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, better: str
            ) -> tuple[str, float, float, float]:
    """``(verdict, change, spread of A, spread of B)``; a positive change
    is a change for the worse."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    if max(spread_a, spread_b) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change, spread_a, spread_b
        return "unresolved", change, spread_a, spread_b
    if change > bound:
        return "worse", change, spread_a, spread_b
    if change < -bound:
        return "better", change, spread_a, spread_b
    return "same", change, spread_a, spread_b


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    for side, data in (("A", a), ("B", b)):
        host = data.get("host", {})
        print(f"{side}: {argv[0] if side == 'A' else argv[1]}  "
              f"commit {host.get('commit', '?')[:12]}  "
              f"nproc {host.get('nproc', '?')}  seconds {data.get('seconds')}"
              f"  runs {len(data['runs'])}")
    flagged = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        print(f"\n{workload}")
        print(f"  {'metric':<36} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8} {'spread A/B':>13} "
              f"{'bound':>6}  verdict")
        for metric in metrics:
            va = _values(a["runs"], workload, metric)
            vb = _values(b["runs"], workload, metric)
            if not va or not vb:
                continue
            line = (f"  {metric:<36} {_fmt(quartiles(va)):>34} "
                    f"{_fmt(quartiles(vb)):>34}")
            if metric not in bounded:
                print(line)
                continue
            m = bounded[metric]
            word, change, sa, sb = verdict(va, vb, m["bound"], m["better"])
            flagged += word in ("worse", "unresolved")
            print(f"{line} {change:>+8.1%} {sa:>6.1%}/{sb:<6.1%} "
                  f"{m['bound']:>6.0%}  {word}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
