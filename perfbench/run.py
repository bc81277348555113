"""Vote-loop benchmark: ask -> vote -> publish on the production stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload vote_stream --seed 1 --seconds 30 --trace 0

``--workload`` is ``vote_stream``, ``vote_split_merge`` or ``all``
(both in turn, in one process).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs an untraced reference pass and a
traced pass and prints the per-layer metrics, the self-time ledger, and
writes the spans to ``.perfbench_out/``.  Each metric is printed with
its unit and sample count; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A run that
fails its correctness gate prints ``"correct": false`` with no metrics
and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One client thread plus the optimizer worker: keep BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _json_metric_names(trace: bool) -> "set[str]":
    """The metrics BENCHMARK.json lists for this mode; the report prints more.

    Metrics of layers a workload bypasses by design (clustering and
    merge outside ``vote_split_merge``) are printed but kept out of the
    JSON line.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.harness import Workdir, run_workload
    from perfbench.workloads import GENERATORS

    names = tuple(GENERATORS) if args.workload == "all" else (args.workload,)
    if any(name not in GENERATORS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(GENERATORS)} or all", file=sys.stderr)
        return 2
    keep = _json_metric_names(bool(args.trace))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        inputs = GENERATORS[name](args.seed, args.seconds)
        workdir = Workdir(ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}")
        try:
            result = run_workload(
                inputs, args.seconds, bool(args.trace), workdir,
                out_dir / f"trace-{name}-{args.seed}.jsonl",
            )
        finally:
            workdir.cleanup()
        print(f"== {name} (seed {args.seed}, {args.seconds:g}s, "
              f"trace {args.trace})")
        for metric in result.metrics:
            print(f"  {metric.name:30s} {metric.value:14.6g} {metric.unit:6s} "
                  f"n={metric.n}")
        for line in result.ledger_lines:
            print(line)
        print(f"  attempted {result.attempted}, failed {result.failed}; "
              f"correct: {str(result.correct).lower()}")
        for problem in result.problems:
            print(f"  INCORRECT: {problem}")
        summary["correct"] &= result.correct
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update(
            (prefix + m.name, {"value": m.value, "unit": m.unit})
            for m in result.metrics
            if m.name in keep
        )
    if not summary["correct"]:
        summary["metrics"] = {}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
