"""Command-line entry points.

Subcommands: ``run`` a scenario file, ``sweep`` a sweep file, ``report``
to summarize a sweep log.  Exit codes: 0 when outcomes match their
expected verdicts, 2 on a mismatch, 1 on error.
The output root comes from --out or the HEATLAB_OUT environment variable.
"""

import argparse
import os
import sys
from pathlib import Path

from . import harness
from .errors import HeatlabError


def _out_dir(args):
    # an absolute --out replaces the root
    root = Path(os.environ.get("HEATLAB_OUT", "."))
    out = root / args.out if args.out else root
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args):
    scenario = harness.load_scenario(args.scenario)
    verdict = harness.run_scenario(scenario)
    out = _out_dir(args)
    harness.emit_report([verdict], out)
    print(f"{verdict.scenario}: outcome={verdict.outcome} "
          f"expected={verdict.expected} match={verdict.matches} "
          f"({verdict.wall_time:.1f}s)")
    return 0 if verdict.matches else 2


def _cmd_sweep(args):
    spec = harness.load_sweep(args.sweep)
    out = _out_dir(args)
    log_path = out / f"{spec['name']}.jsonl"
    records = harness.sweep(spec, log_path, workers=args.workers)
    summary = out / f"{spec['name']}_summary.csv"
    harness.write_sweep_summary(records, summary)
    print(f"{spec['name']}: {len(records)} verdicts -> {summary}")
    return 0


def _cmd_report(args):
    records = harness.read_sweep_log(args.log)
    out = _out_dir(args)
    summary = out / (Path(args.log).stem + "_summary.csv")
    harness.write_sweep_summary(records, summary)
    print(f"{len(records)} records -> {summary}")
    return 0


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="heatlab",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes (1 runs in this process)")
    p_rep = sub.add_parser("report", help="summarize a sweep log")
    p_rep.add_argument("log")
    args = ap.parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_sweep,
               "report": _cmd_report}[args.command]
    try:
        return command(args)
    except HeatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
