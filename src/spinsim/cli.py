"""Command-line front end.

Subcommands: grover, run, selftest, dump-profile. Exit codes: 0 success,
1 usage/parse error, 2 numerical self-check failure or an unmet ``--tol``,
3 I/O error (a closed stdout among them). Every failure is one line on stderr
and its exit code, never a traceback: the commands raise, and ``main`` alone
turns an error into its line and its code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import ConfigError, dump_profile, parse_config, parse_count
from .experiments import run_grover, run_report, self_test, write_trajectory_csv
from .propagator import MAX_DOUBLINGS
from .pulses import INIT_ORDERS, ITEMS, make_profile
from .state import StateVector, fidelity, new_basis_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SELFCHECK = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process; parse_args leaves it as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="spinsim", description="Driven spin-1/2 register simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grover", help="run a database-search preset")
    p.set_defaults(func=_cmd_grover)
    p.add_argument("--hardware", choices=("ideal", "nmr"), required=True)
    p.add_argument("--item", type=int, choices=ITEMS, required=True)
    p.add_argument("--init", choices=INIT_ORDERS, default="12",
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
    p.set_defaults(func=_cmd_run)
    p.add_argument("--config", required=True)
    p.add_argument("--sequence", help="sequence name (default from the [run] section)")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--compare-uniform", action="store_true",
                   help="report fidelity with the uniform superposition")

    sub.add_parser("selftest", help="run the oracle cross-checks").set_defaults(func=_cmd_selftest)

    p = sub.add_parser("dump-profile", help="write a hardware profile as config text")
    p.set_defaults(func=_cmd_dump_profile)
    p.add_argument("kind", choices=("ideal", "nmr"))
    p.add_argument("--out", help="output path (default stdout)")
    return parser


def _cmd_grover(args) -> int:
    steps = parse_count(args.steps, "--steps", auto=True)
    if args.sample_every is not None and args.sample_every < 1:
        raise ValueError(f"--sample-every must be a positive integer, got {args.sample_every}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    report = run_grover(
        args.hardware,
        args.item,
        init_order=args.init,
        steps=steps,
        sample_every=args.sample_every,
        rotating_frame=args.rotating_frame,
        tol=args.tol,
    )
    _print_and_write(report, args.out)
    if report.converged:
        return EXIT_OK
    worst = max(report.estimates)
    print(f"spinsim: convergence failure: an error estimate is {worst:.3e} (>= {args.tol:g}) "
          f"after {MAX_DOUBLINGS} doublings", file=sys.stderr)
    return EXIT_SELFCHECK


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    seq_name = args.sequence or cfg.run.sequence
    if not seq_name:
        raise ConfigError(None, "no sequence given (use --sequence or a [run] section)")
    seq = cfg.resolve_sequence(seq_name)
    bits = cfg.run.state_bits or [0] * cfg.L
    report = run_report(f"sequence {seq_name}", new_basis_state(cfg.L, bits), seq,
                        steps=cfg.run.steps, sample_every=cfg.run.sample_every)
    extra = []
    if args.compare_uniform:
        dim = 1 << cfg.L
        uniform = StateVector(cfg.L, np.full(dim, 1.0 / dim**0.5, dtype=complex))
        extra.append(f"  fidelity with uniform superposition = {fidelity(report.final_state, uniform):.9f}")
    _print_and_write(report, args.out, extra)
    return EXIT_OK


def _print_and_write(report, path, extra_lines=()) -> None:
    """Print a run report's lines and write its trajectory CSV to ``path``, if given."""
    print("\n".join([*report.lines(), *extra_lines]))
    if path:
        write_trajectory_csv(path, report.samples)
        print(f"  trajectory written to {path}")


def _cmd_selftest(args) -> int:
    checks = self_test()
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_SELFCHECK


def _cmd_dump_profile(args) -> int:
    text = dump_profile(make_profile(args.kind))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
        return code
    except (OSError, ValueError) as err:
        if isinstance(err, BrokenPipeError):  # the Python docs' note on SIGPIPE: leave nothing to flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        message = f"{args.config}: {err}" if isinstance(err, UnicodeDecodeError) else err  # only run decodes a file
        print(f"spinsim: {'config error' if isinstance(err, ConfigError) else 'error'}: {message}", file=sys.stderr)
        return EXIT_IO if isinstance(err, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
