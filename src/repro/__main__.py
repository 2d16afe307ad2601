"""Single-run command line: ``python -m repro``.

Runs one simulation at the paper's baseline (Tables 1-3) with selected
overrides and prints the full metric report::

    python -m repro --algorithm OD --seconds 100 --lambda-t 15
    python -m repro --algorithm TF --staleness uu --discipline lifo
    python -m repro --algorithm SU --abort-stale --replications 5
"""

from __future__ import annotations

import argparse
import sys

from repro.config import (
    QueueDiscipline,
    StaleReadAction,
    StalenessPolicy,
    baseline_config,
)
from repro.core.algorithms.registry import ALGORITHMS
from repro.core.simulator import run_simulation
from repro.metrics.report import format_result, format_table
from repro.metrics.validate import check_invariants


def _algorithm_lines() -> str:
    """One line per registered algorithm, from each class's docstring."""
    lines = []
    for name in sorted(ALGORITHMS):
        doc = ALGORITHMS[name].__doc__ or ""
        summary = doc.strip().splitlines()[0] if doc.strip() else ""
        lines.append(f"  {name:<10} {summary}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one update-stream scheduling simulation "
        "(Adelberg et al., SIGMOD 1995 model).",
        epilog="scheduling algorithms:\n" + _algorithm_lines(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--algorithm", default="OD", type=str.upper,
                        choices=sorted(ALGORITHMS), metavar="ALGO",
                        help="scheduling algorithm: "
                        + ", ".join(sorted(ALGORITHMS)) + " (default OD)")
    parser.add_argument("--seconds", type=float, default=100.0,
                        help="simulated duration (default 100)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="warmup seconds excluded from metrics "
                        "(default: a quarter of the duration, capped at 20)")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--lambda-t", type=float, default=None,
                        help="transaction arrival rate (default 10/s)")
    parser.add_argument("--lambda-u", type=float, default=None,
                        help="update arrival rate (default 400/s)")
    parser.add_argument("--max-age", type=float, default=None,
                        help="MA staleness threshold alpha (default 7s)")
    parser.add_argument("--staleness", choices=[p.value for p in StalenessPolicy],
                        default=StalenessPolicy.MAX_AGE.value)
    parser.add_argument("--discipline", choices=[d.value for d in QueueDiscipline],
                        default=QueueDiscipline.FIFO.value)
    parser.add_argument("--abort-stale", action="store_true",
                        help="abort transactions that read stale data")
    parser.add_argument("--indexed-queue", action="store_true",
                        help="hash-index the update queue (newest per object)")
    parser.add_argument("--fraction", type=float, default=0.2,
                        help="reserved update share for FX (default 0.2)")
    parser.add_argument("--view", action="append", default=[], metavar="SPEC",
                        help="register a derived view before the run "
                        "(repeatable); SPEC is NAME=KIND:PARTITION with "
                        "options, e.g. 'by8=sum:low,groups=8', "
                        "'hot=top_k:high,k=4', 'w=window_avg:low,window=2.5'")
    parser.add_argument("--replications", type=int, default=1,
                        help="independent replications; > 1 prints mean ± CI")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for replicated runs (default: "
                        "$REPRO_WORKERS or the CPU count); results are "
                        "identical to --workers 1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    warmup = args.warmup
    if warmup is None:
        warmup = min(20.0, args.seconds / 4)
    config = baseline_config(
        duration=args.seconds,
        seed=args.seed,
        staleness=StalenessPolicy(args.staleness),
    )
    config.warmup = warmup
    if args.lambda_t is not None:
        config = config.with_transactions(arrival_rate=args.lambda_t)
    if args.lambda_u is not None:
        config = config.with_updates(arrival_rate=args.lambda_u)
    if args.max_age is not None:
        config = config.with_transactions(max_age=args.max_age)
    if args.abort_stale:
        config = config.with_transactions(stale_read_action=StaleReadAction.ABORT)
    config = config.with_system(
        queue_discipline=QueueDiscipline(args.discipline),
        indexed_update_queue=args.indexed_queue,
    )
    config.validate()

    kwargs = {"fraction": args.fraction} if args.algorithm.upper() == "FX" else {}

    if args.replications > 1:
        if args.view:
            print("--view is a single-run option; drop --replications",
                  file=sys.stderr)
            return 2
        from repro.experiments.replication import run_replicated
        from repro.experiments.sweeps import default_workers

        workers = args.workers if args.workers is not None else default_workers()
        replicated = run_replicated(
            config, args.algorithm, args.replications, workers=workers, **kwargs
        )
        rows = [
            (name, s.mean, s.ci_halfwidth, s.stdev, s.minimum, s.maximum)
            for name, s in replicated.summaries.items()
        ]
        print(format_table(
            ("metric", "mean", "±95% CI", "stdev", "min", "max"),
            rows,
            title=f"{replicated.algorithm}: {args.replications} replications "
            f"of {args.seconds:g}s (warmup {warmup:g}s)",
        ))
        return 0

    result = run_simulation(config, args.algorithm, views=args.view, **kwargs)
    print(format_result(result))
    violations = check_invariants(result)
    if violations:
        print("\nINVARIANT VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"- {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
