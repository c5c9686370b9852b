"""Command-line surface: `kscreen screen` ranks the features of a CSV file,
`kscreen simulate` runs a benchmark suite and reports the S/P metrics.

The argparse types only turn text into values; every value check is the
library's, run before `screen` opens its input and before `simulate`
starts a replication, and reported as `error[argument]: ...` (exit 2, as
for argparse's usage errors).

Exit codes map error families: 2 argument, 3 data, 4 numeric, 5 tuning.
Outputs are deterministic for a fixed seed, and `simulate --threads` does
not change them.  `simulate` pins BLAS to one thread per worker, so its
bytes never depend on the host.  `screen` runs in this process with
whatever BLAS thread count the environment sets, and its kcca and hsic
scores can differ in the last bits across BLAS thread counts; the README's
BLAS paragraph has the measured differences.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import __version__
from .dataio import json_dumps, load_csv, write_csv_rows
from .errors import ArgumentError, KScreenError
from .measures import Method
from .screening import ThresholdRule, _check_screen_args, screen
from .simulation import MetricsReport, SimulationSpec, run_suite

_ERROR_FAMILIES = {2: "argument", 3: "data", 4: "numeric", 5: "tuning"}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _auto_or(convert, auto=lambda: "auto"):
    """An argparse type: 'auto' to auto(), any other text through convert."""
    def parse(text: str):
        return auto() if text == "auto" else convert(text)

    parse.__name__ = f"'auto' or {convert.__name__}"  # argparse's name for it
    return parse


def _names(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _ints(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kscreen",
        description="Model-free feature screening and benchmark simulations.",
    )
    parser.add_argument("--version", action="version", version=f"kscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="non-negative RNG seed (default 0)")

    sc = sub.add_parser("screen", parents=[common], help="rank CSV features against a response")
    sc.add_argument("--input", required=True, help="CSV file with a header row")
    sc.add_argument("--response", required=True, nargs="+",
                    help="response column names or 1-based positions")
    sc.add_argument("--method", choices=tuple(m.value for m in Method), default="kcca")
    sc.add_argument("--epsilon", type=_auto_or(float), default="auto",
                    help="'auto' (GCV grid search) or a positive real")
    sc.add_argument("--top", type=_auto_or(int), default=None,
                    help="'auto' or a model size m (default: top 1%% of features)")

    sm = sub.add_parser("simulate", parents=[common], help="run a benchmark suite")
    sm.add_argument("--suite", choices=("sim1", "sim2"), required=True)
    sm.add_argument("--model", type=int, required=True)
    sm.add_argument("--n", type=int, default=200)
    sm.add_argument("--p", type=int, default=2000)
    sm.add_argument("--reps", type=int, default=500)
    sm.add_argument("--methods", type=_names, default=("kcca",),
                    help="comma-separated subset of kcca,hsic,dc,sis")
    sm.add_argument("--ar-rho", type=float, default=0.8)
    sm.add_argument("--d-values", type=_ints, default=None,
                    help="override d1,d2,d3 (default: suite-specific)")
    sm.add_argument("--epsilon", type=_auto_or(float), default="auto")
    sm.add_argument("--threads", type=_auto_or(int, _usable_cpus), default=1,
                    help="worker processes, or 'auto' for one per CPU this process "
                         "may run on (default 1)")
    return parser


def _write_output(args: argparse.Namespace, text: str):
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _screen_document(args, result, x, y) -> dict:
    names = x.columns or tuple(f"x{r}" for r in range(1, x.p + 1))
    positions = result.rank_positions()
    scores = [
        {
            "index": r + 1,
            "name": names[r],
            "score": float(result.scores[r]),
            "rank": int(positions[r]),
        }
        for r in range(x.p)
    ]
    selected = [
        {
            "rank": k + 1,
            "index": int(idx),
            "name": names[idx - 1],
            "score": float(result.scores[idx - 1]),
        }
        for k, idx in enumerate(result.selected)
    ]
    return {
        "command": "screen",
        "input": args.input,
        "method": result.method.value,
        "n": x.n,
        "p": x.p,
        "response_columns": list(y.columns or ()),
        "epsilon": result.epsilon,
        "m": result.m,
        "seed": args.seed,
        "scores": scores,
        "selected": selected,
    }


def _run_screen(args: argparse.Namespace):
    if args.top is None:
        rule = None
    else:
        rule = ThresholdRule.auto() if args.top == "auto" else ThresholdRule.fixed(args.top)
    # screen's own checks, run before the input file is opened.
    _check_screen_args((args.method,), rule, args.epsilon, args.seed)
    x, y = load_csv(args.input, args.response)
    result = screen(x, y, method=args.method, rule=rule, epsilon=args.epsilon, seed=args.seed)
    doc = _screen_document(args, result, x, y)
    if args.format == "json":
        _write_output(args, json_dumps(doc))
    else:
        chosen = {entry["index"] for entry in doc["selected"]}
        rows = [
            (e["index"], e["name"], e["score"], e["rank"], 1 if e["index"] in chosen else 0)
            for e in doc["scores"]
        ]
        buf = io.StringIO()
        write_csv_rows(buf, ("index", "name", "score", "rank", "selected"), rows)
        _write_output(args, buf.getvalue())


def _report_document(report: MetricsReport) -> dict:
    spec = report.spec
    results = []
    for method in report.methods:
        q25, q50, q75 = report.s_quantiles[method.value]
        p1, p2, p3 = report.p_proportions[method.value]
        results.append(
            {
                "method": method.value,
                "s_quantiles": {"q25": q25, "q50": q50, "q75": q75},
                "p_proportions": {"d1": p1, "d2": p2, "d3": p3},
            }
        )
    return {
        "command": "simulate",
        "suite": spec.suite,
        "model": spec.model_id,
        "n": spec.n,
        "p": spec.p,
        "reps": spec.reps,
        "seed": spec.seed,
        "ar_rho": spec.ar_rho,
        "methods": [m.value for m in report.methods],
        "d_values": list(report.d_values),
        "results": results,
    }


def _run_simulate(args: argparse.Namespace):
    spec = SimulationSpec(
        suite=args.suite,
        model_id=args.model,
        n=args.n,
        p=args.p,
        reps=args.reps,
        seed=args.seed,
        ar_rho=args.ar_rho,
    )
    report = run_suite(
        spec,
        args.methods,
        args.d_values,
        threads=args.threads,
        epsilon=args.epsilon,
    )
    if args.format == "json":
        _write_output(args, json_dumps(_report_document(report)))
    else:
        buf = io.StringIO()
        write_csv_rows(buf, ("suite", "model", "method", "label", "value"), report.to_rows())
        _write_output(args, buf.getvalue())


def run_command(args: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the process exit status."""
    try:
        if args.command == "screen":
            _run_screen(args)
        elif args.command == "simulate":
            _run_simulate(args)
        else:
            raise ArgumentError(f"unknown command {args.command!r}")
        return 0
    except KScreenError as e:
        family = _ERROR_FAMILIES.get(e.exit_code, "internal")
        print(f"error[{family}]: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:  # pragma: no cover - defensive
        print(f"error[internal]: {e!r}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
