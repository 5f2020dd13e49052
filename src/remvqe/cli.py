"""Command-line entry point.

Subcommands map onto the experiment drivers: `dissociation` and `noise-sweep`
emit CSV curves (optionally SVG), `single-point` prints a full
reference-corrected report, and `calibrate` estimates a confusion matrix.
Exit codes: 0 success, 2 invalid configuration, 3 finished with a
convergence warning.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .experiments import (
    ANSATZE,
    BACKENDS,
    MITIGATIONS,
    OPTIMIZERS,
    ConfigError,
    RunConfig,
    cmd_calibrate,
    cmd_dissociation,
    cmd_noise_sweep,
    cmd_single_point,
)
from .mitigation import format_confusion_csv


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="master random seed")
    p.add_argument("--out", metavar="PATH", help="also write the output to PATH")


def _add_problem(p: argparse.ArgumentParser, molecule_only: bool = False) -> None:
    p.add_argument("--molecule", help="builtin dataset: h2, heh+, or lih")
    if not molecule_only:
        p.add_argument(
            "--hamiltonian", metavar="PATH", dest="hamiltonian_path",
            help="Hamiltonian text file instead of a builtin molecule",
        )
        p.add_argument(
            "--reference", metavar="BITS",
            help="reference basis state for file Hamiltonians (default all zeros)",
        )


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument(
        "--p2", type=float, help="two-qubit depolarizing probability (noisy backend)"
    )
    p.add_argument(
        "--p1", type=float, help="one-qubit depolarizing probability (default 0.1*p2)"
    )
    p.add_argument(
        "--shots", type=int,
        help="shots per energy evaluation (default: exact distributions)",
    )
    p.add_argument(
        "--confusion",
        help="readout model: ideal, figure-s2 (alias device), calibrate, or a CSV path",
    )


def _add_protocol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mitigation", choices=MITIGATIONS)
    p.add_argument("--ansatz", choices=ANSATZE)
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--grid-points", type=int, help="points per parameter sweep")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remvqe",
        description="Noisy VQE simulation with reference-state error mitigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left out stays out of the namespace, so RunConfig's default applies
    add = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    d = add(
        "dissociation",
        help="four-pipeline energies across a molecule's geometry series (CSV)",
    )
    _add_problem(d, molecule_only=True)
    _add_backend(d)
    _add_protocol(d)
    d.add_argument("--svg", metavar="PATH", help="write a two-panel plot to PATH")
    _add_common(d)

    s = add(
        "noise-sweep",
        help="pipeline errors vs two-qubit depolarizing rate (CSV)",
    )
    _add_problem(s, molecule_only=True)
    s.add_argument("--r", type=float, help="geometry (default equilibrium)")
    s.add_argument(
        "--p2", metavar="GRID",
        help="comma-separated p2 values (default: log grid 1e-4..5e-2)",
    )
    s.add_argument("--p1", type=float, help="pin p1 (default 0.1*p2)")
    s.add_argument("--shots", type=int)
    s.add_argument("--confusion")
    s.add_argument("--ansatz", choices=ANSATZE)
    s.add_argument("--grid-points", type=int)
    s.add_argument("--svg", metavar="PATH")
    _add_common(s)

    o = add(
        "single-point",
        help="reference evaluation, minimization, and correction at one geometry",
    )
    _add_problem(o)
    o.add_argument("--r", type=float, help="geometry (default equilibrium)")
    _add_backend(o)
    _add_protocol(o)
    _add_common(o)

    c = add("calibrate", help="estimate a readout confusion matrix (CSV)")
    c.add_argument("--molecule", help="sets the qubit count (default: a CSV's own, else 2)")
    c.add_argument(
        "--confusion", default="figure-s2",
        help="readout model to calibrate against: ideal (identity), figure-s2 "
        "(alias device or calibrate), or a CSV path",
    )
    c.add_argument(
        "--shots-per-state", type=int, help="shots per prepared basis state per repeat"
    )
    c.add_argument("--repeats", type=int, help="calibration repeats")
    _add_common(c)

    return parser


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _config(args: argparse.Namespace, **overrides) -> RunConfig:
    kwargs = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"could not parse p2 grid {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dissociation":
            result = cmd_dissociation(_config(args))
            sys.stdout.write(result.csv)
            for warning in result.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            return 3 if result.warnings else 0
        if args.command == "noise-sweep":
            grid = _parse_grid(args.p2) if "p2" in args else None
            result = cmd_noise_sweep(_config(args, p2=None), p2_grid=grid)
            sys.stdout.write(result.csv)
            return 0
        if args.command == "single-point":
            result = cmd_single_point(_config(args))
            sys.stdout.write(result.text)
            if not result.converged:
                print("warning: optimizer did not converge", file=sys.stderr)
                return 3
            return 0
        result = cmd_calibrate(_config(args))
        sys.stdout.write(format_confusion_csv(result))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
