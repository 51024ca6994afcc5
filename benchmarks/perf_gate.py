"""Cold-throughput gate: a change against its base commit, same runner.

Reads artifacts of ``bench_service_throughput.py`` from runs of the
base commit and of the change, made alternately on one machine, and
fails (exit 1) when the change's median cold-phase jobs/s is more than
``--tolerance`` below the base's median.  Both sides are measured on
the same runner, so a slower runner cannot fail unchanged code and a
faster one cannot hide a loss, as a fixed figure from another host
could.

The CI ``perf-smoke`` job runs::

    python benchmarks/perf_gate.py --base base-*.json --head head-*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def cold_rates(paths) -> list:
    """The cold-phase jobs/s of each artifact."""
    return [json.loads(Path(p).read_text())["phases"]["cold"]["jobs_per_s"]
            for p in paths]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True,
                    help="artifacts of the base commit's runs")
    ap.add_argument("--head", nargs="+", required=True,
                    help="artifacts of the change's runs")
    ap.add_argument("--tolerance", type=float, default=0.3,
                    help="allowed drop of the median cold jobs/s")
    args = ap.parse_args(argv)

    base, head = cold_rates(args.base), cold_rates(args.head)
    base_median, head_median = statistics.median(base), statistics.median(head)
    floor = base_median * (1.0 - args.tolerance)
    verdict = "OK" if head_median >= floor else "REGRESSION"
    print("cold jobs/s, base: " + ", ".join(f"{r:.2f}" for r in base))
    print("cold jobs/s, head: " + ", ".join(f"{r:.2f}" for r in head))
    print(f"median head {head_median:.2f} vs base {base_median:.2f} "
          f"(floor {floor:.2f} at tolerance {args.tolerance:.0%}) -> {verdict}")
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
