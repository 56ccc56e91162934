"""Command-line front end.

Subcommands: grover, run, converge, selftest, dump-profile. Exit codes:
0 success, 1 usage/parse error, 2 numerical self-check failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .config import ConfigError, dump_profile, parse_config
from .experiments import (
    ConvergenceFailure,
    converge_grover,
    run_grover,
    self_test,
    write_trajectory_csv,
)
from .propagator import run_sequence
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

    p = sub.add_parser("run", help="execute a sequence from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--sequence", help="sequence name (default from the [run] section)")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--compare-uniform", action="store_true",
                   help="report fidelity with the uniform superposition")

    p = sub.add_parser("converge", help="double substep counts until Q values stabilize")
    p.add_argument("--hardware", choices=("ideal", "nmr"), required=True)
    p.add_argument("--item", type=int, choices=(0, 1, 2, 3), required=True)
    p.add_argument("--init", choices=("12", "21"), default="12")
    p.add_argument("--tol", type=float, required=True)

    sub.add_parser("selftest", help="run the oracle cross-checks")

    p = sub.add_parser("dump-profile", help="write a hardware profile as config text")
    p.add_argument("kind", choices=("ideal", "nmr"))
    p.add_argument("--out", help="output path (default stdout)")
    return parser


def _usage_error(message: str) -> int:
    print(f"spinsim: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_grover(args) -> int:
    steps = args.steps
    if steps != "auto":
        try:
            steps = int(steps)
            if steps < 1:
                raise ValueError
        except ValueError:
            return _usage_error(f"--steps must be 'auto' or a positive integer, got {args.steps!r}")
    if args.sample_every is not None and args.sample_every < 1:
        return _usage_error(f"--sample-every must be a positive integer, got {args.sample_every}")
    report = run_grover(
        args.hardware,
        args.item,
        init_order=args.init,
        steps=steps,
        sample_every=args.sample_every,
        rotating_frame=args.rotating_frame,
    )
    for line in report.lines():
        print(line)
    if args.out:
        try:
            write_trajectory_csv(args.out, report.samples)
        except OSError as err:
            print(f"spinsim: error: cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
        print(f"  trajectory written to {args.out}")
    return EXIT_OK


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
    state = new_basis_state(cfg.L, bits)
    plans = None
    if cfg.run.steps != "auto":
        from .propagator import StepPlan

        plans = [StepPlan(int(cfg.run.steps), eo.tau) for eo in seq.eos]
    start = time.perf_counter()
    final, samples = run_sequence(state, seq, sample_every=cfg.run.sample_every, plans=plans)
    wall = time.perf_counter() - start
    obs = final.observables(t=seq.total_duration)
    print(f"sequence {seq_name}: {len(seq)} operations, {len(samples)} samples")
    qtxt = ", ".join(f"Q{j + 1} = {obs.q[j]:.6f}" for j in range(cfg.L))
    print(f"  final {qtxt}")
    print(f"  norm deviation = {abs(obs.norm - 1.0):.3e}")
    print(f"  wall time = {wall:.3f} s")
    if args.compare_uniform:
        import numpy as np

        dim = 1 << cfg.L
        uniform = StateVector(cfg.L, np.full(dim, 1.0 / dim**0.5, dtype=complex))
        print(f"  fidelity with uniform superposition = {fidelity(final, uniform):.9f}")
    if args.out:
        try:
            write_trajectory_csv(args.out, samples)
        except OSError as err:
            print(f"spinsim: error: cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
        print(f"  trajectory written to {args.out}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return _usage_error(f"--tol must be a finite number >= 0, got {args.tol!r}")
    try:
        report = converge_grover(args.hardware, args.item, init_order=args.init, tol=args.tol)
    except ConvergenceFailure as err:
        print(f"spinsim: convergence failure: {err}", file=sys.stderr)
        return EXIT_SELFCHECK
    for line in report.lines():
        print(line)
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
    if args.command == "converge":
        return _cmd_converge(args)
    if args.command == "selftest":
        return _cmd_selftest()
    return _cmd_dump_profile(args)


if __name__ == "__main__":
    sys.exit(main())
