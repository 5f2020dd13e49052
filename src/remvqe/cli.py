"""Command-line entry point.

Subcommands map onto the experiment drivers: `dissociation` and `noise-sweep`
emit CSV curves (optionally SVG), `single-point` prints a full
reference-corrected report, and `calibrate` estimates a confusion matrix.
Exit codes: 0 success, 2 invalid configuration, 3 finished with a
convergence warning.
"""
from __future__ import annotations

import argparse
import sys

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


# Every flag once, with its add_argument keywords.
_OPTIONS = {
    "--molecule": dict(help="builtin dataset: h2, heh+, or lih"),
    "--hamiltonian": dict(metavar="PATH", dest="hamiltonian_path",
                          help="Hamiltonian text file instead of a builtin molecule"),
    "--reference": dict(metavar="BITS",
                        help="reference basis state for file Hamiltonians (default all zeros)"),
    "--r": dict(type=float, help="geometry (default equilibrium)"),
    "--backend": dict(choices=BACKENDS, help="ideal: noiseless gates; noisy: depolarizing gates "
                      "(default ideal)"),
    "--p2": dict(type=float, help="two-qubit depolarizing probability (noisy backend)"),
    "--p1": dict(type=float, help="one-qubit depolarizing probability (default 0.1*p2)"),
    "--shots": dict(type=int, help="shots per energy evaluation (default: exact distributions)"),
    "--confusion": dict(help="readout model: ideal, figure-s2 (alias device), calibrate, or a CSV path"),
    "--mitigation": dict(choices=MITIGATIONS, help="readout: unfold the confusion matrix; rem: "
                         "reference-state correction; readout+rem: both (default none)"),
    "--ansatz": dict(choices=ANSATZE, help="state family (default: compact for h2, uccsd on "
                     "2 or 4 qubits, else hwe)"),
    "--optimizer": dict(choices=OPTIMIZERS, help="minimizer (default: sweep for a 1-parameter "
                        "ansatz, spsa with shots, else nelder-mead)"),
    "--grid-points": dict(type=int, help="points per parameter sweep"),
    "--svg": dict(metavar="PATH", help="also plot the curves as SVG to PATH"),
    "--shots-per-state": dict(type=int, help="shots per prepared basis state per repeat"),
    "--repeats": dict(type=int, help="calibration repeats"),
    "--seed": dict(type=int, help="master random seed"),
    "--out": dict(metavar="PATH", help="also write the output to PATH"),
}

# Each subcommand: its help, its flags in help order, and its own keywords for some of them.
_COMMANDS = {
    "dissociation": (
        "four-pipeline energies across a molecule's geometry series (CSV)",
        "--molecule --backend --p2 --p1 --shots --confusion --mitigation --ansatz --optimizer "
        "--grid-points --svg --seed --out", {},
    ),
    "noise-sweep": (
        "pipeline errors vs two-qubit depolarizing rate (CSV)",
        "--molecule --r --p2 --p1 --shots --confusion --ansatz --grid-points --svg --seed --out",
        {"--p2": dict(metavar="GRID", help="comma-separated p2 values (default: log grid 1e-4..5e-2)")},
    ),
    "single-point": (
        "reference evaluation, minimization, and correction at one geometry",
        "--molecule --hamiltonian --reference --r --backend --p2 --p1 --shots --confusion "
        "--mitigation --ansatz --optimizer --grid-points --seed --out", {},
    ),
    "calibrate": (
        "estimate a readout confusion matrix (CSV)",
        "--molecule --confusion --shots-per-state --repeats --seed --out",
        {"--molecule": dict(help="sets the qubit count (default: a CSV's own, else 2)"),
         "--confusion": dict(default="figure-s2", help="readout model to calibrate against: "
                             "ideal (identity), figure-s2 (alias device or calibrate), or a CSV path")},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remvqe",
        description="Noisy VQE simulation with reference-state error mitigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, flags, own) in _COMMANDS.items():
        # an option left out stays out of the namespace, so RunConfig's default applies
        p = sub.add_parser(name, help=help_, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **own.get(flag, _OPTIONS[flag]))
    return parser


def _config(args: argparse.Namespace, **overrides) -> RunConfig:
    """The flags given, each a RunConfig field, over RunConfig's defaults."""
    kwargs = dict(vars(args), **overrides)
    del kwargs["command"]
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
