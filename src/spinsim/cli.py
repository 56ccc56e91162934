"""Command-line front end.

Subcommands: grover, run, selftest, dump-profile. Exit codes: 0 success,
1 usage/parse error, 2 numerical self-check failure or an unmet ``--tol``,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .config import ConfigError, dump_profile, parse_config, parse_count
from .experiments import run_grover, run_report, self_test, write_trajectory_csv
from .propagator import MAX_DOUBLINGS
from .pulses import make_profile
from .state import StateVector, fidelity, new_basis_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SELFCHECK = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinsim", description="Driven spin-1/2 register simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grover", help="run a database-search preset")
    p.add_argument("--hardware", choices=("ideal", "nmr"), required=True)
    p.add_argument("--item", type=int, choices=(0, 1, 2, 3), required=True)
    p.add_argument("--init", choices=("12", "21"), default="12",
                   help="preparation order: 12 executes W1 before W2")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--steps", default="auto",
                   help="'auto' or an absolute per-operation substep count")
    p.add_argument("--sample-every", type=int, default=None,
                   help="sample every k-th substep (default about 200 per operation)")
    p.add_argument("--rotating-frame", action="store_true",
                   help="report transverse components in the co-rotating frame")
    p.add_argument("--tol", type=float, default=None,
                   help="double each operation's substeps until its estimated state error, "
                   f"|psi_2m - psi_m| / 3, is under TOL (at most {MAX_DOUBLINGS} times; exit 2 if not)")

    p = sub.add_parser("run", help="execute a sequence from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--sequence", help="sequence name (default from the [run] section)")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--compare-uniform", action="store_true",
                   help="report fidelity with the uniform superposition")

    sub.add_parser("selftest", help="run the oracle cross-checks")

    p = sub.add_parser("dump-profile", help="write a hardware profile as config text")
    p.add_argument("kind", choices=("ideal", "nmr"))
    p.add_argument("--out", help="output path (default stdout)")
    return parser


def _usage_error(message: str) -> int:
    print(f"spinsim: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_grover(args) -> int:
    try:
        steps = parse_count(args.steps, "--steps", auto=True)
    except ConfigError as err:
        return _usage_error(str(err))
    if args.sample_every is not None and args.sample_every < 1:
        return _usage_error(f"--sample-every must be a positive integer, got {args.sample_every}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        return _usage_error(f"--tol must be a finite number >= 0, got {args.tol!r}")
    report = run_grover(
        args.hardware,
        args.item,
        init_order=args.init,
        steps=steps,
        sample_every=args.sample_every,
        rotating_frame=args.rotating_frame,
        tol=args.tol,
    )
    code = _print_and_write(report, args.out)
    if code == EXIT_OK and not report.converged:
        worst = max(report.estimates)
        print(f"spinsim: convergence failure: an error estimate is {worst:.3e} (>= {args.tol:g}) "
              f"after {MAX_DOUBLINGS} doublings", file=sys.stderr)
        return EXIT_SELFCHECK
    return code


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as err:
        print(f"spinsim: error: cannot read {args.config}: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
        seq_name = args.sequence or cfg.run.sequence
        if not seq_name:
            raise ConfigError(None, "no sequence given (use --sequence or a [run] section)")
        seq = cfg.resolve_sequence(seq_name)
    except ConfigError as err:
        print(f"spinsim: config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    bits = cfg.run.state_bits or [0] * cfg.L
    try:
        report = run_report(f"sequence {seq_name}", new_basis_state(cfg.L, bits), seq,
                            steps=cfg.run.steps, sample_every=cfg.run.sample_every)
    except ValueError as err:  # a model the step planner cannot plan
        return _usage_error(str(err))
    extra = []
    if args.compare_uniform:
        dim = 1 << cfg.L
        uniform = StateVector(cfg.L, np.full(dim, 1.0 / dim**0.5, dtype=complex))
        extra.append(f"  fidelity with uniform superposition = {fidelity(report.final_state, uniform):.9f}")
    return _print_and_write(report, args.out, extra)


def _print_and_write(report, path, extra_lines=()) -> int:
    """Print a run report's lines and write its trajectory CSV to ``path``, if given."""
    print("\n".join([*report.lines(), *extra_lines]))
    if path:
        try:
            write_trajectory_csv(path, report.samples)
        except OSError as err:
            print(f"spinsim: error: cannot write {path}: {err}", file=sys.stderr)
            return EXIT_IO
        print(f"  trajectory written to {path}")
    return EXIT_OK


def _cmd_selftest() -> int:
    checks = self_test(report_fn=print)
    return EXIT_OK if all(c.ok for c in checks) else EXIT_SELFCHECK


def _cmd_dump_profile(args) -> int:
    text = dump_profile(make_profile(args.kind))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"spinsim: error: cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "grover":
        return _cmd_grover(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "selftest":
        return _cmd_selftest()
    return _cmd_dump_profile(args)


if __name__ == "__main__":
    sys.exit(main())
