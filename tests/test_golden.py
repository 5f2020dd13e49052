"""Golden transcripts of the four CLI subcommands at fixed seeds.

Each case runs `remvqe.cli.main` in-process and compares its exact stdout,
stderr and exit code with `tests/golden/<name>.txt`. The configs are small
but cover shot sampling, the figure-s2 readout model, `--confusion
calibrate`, a confusion CSV file, unfolding, both optimizer paths, every
ansatz family (the hardware-efficient one on its 4-qubit T map and on a
3-qubit chain from a Hamiltonian file) and exit codes 0, 2 and 3. `{golden}`
in an argument, and in the output, stands for the golden directory.

A change that alters output on purpose regenerates the cases it changes with
`PYTHONPATH=src python tests/test_golden.py NAME ...` (every case when no
name is given), which prints each file it rewrote, and says why.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from remvqe.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "dissociation-h2-shots-figure-s2": (
        "dissociation --molecule h2 --backend noisy --shots 1000 --confusion figure-s2 "
        "--mitigation readout+rem --grid-points 5 --seed 3"
    ),
    "dissociation-h2-calibrate-nelder-mead": (
        "dissociation --molecule h2 --backend noisy --confusion calibrate "
        "--mitigation readout+rem --optimizer nelder-mead --seed 4"
    ),
    "noise-sweep-h2-shots-calibrate": (
        "noise-sweep --molecule h2 --p2 0.001,0.01 --shots 1000 --confusion calibrate "
        "--grid-points 5 --seed 1"
    ),
    "single-point-h2-sweep-calibrate": (
        "single-point --molecule h2 --backend noisy --shots 2000 --confusion calibrate "
        "--mitigation readout+rem --grid-points 6 --seed 5"
    ),
    "single-point-h2-csv-readout": (
        "single-point --molecule h2 --shots 1000 --confusion {golden}/skewed.csv "
        "--mitigation readout --grid-points 5 --seed 8"
    ),
    "single-point-heh+-spsa-unfold": (
        "single-point --molecule heh+ --backend noisy --shots 1000 --confusion figure-s2 "
        "--mitigation readout+rem --seed 6"
    ),
    "single-point-h2-spsa-not-converged": (
        "single-point --molecule h2 --backend noisy --shots 500 --optimizer spsa --seed 1"
    ),
    "single-point-lih-qubit-mismatch": "single-point --molecule lih --confusion figure-s2",
    "single-point-lih-hwe-density-rem": (
        "single-point --molecule lih --ansatz hwe --backend noisy --p2 4e-3 --mitigation rem"
    ),
    "single-point-heisenberg3-hwe-chain": (
        "single-point --hamiltonian {golden}/heisenberg3.ham --reference 010 --backend noisy "
        "--p2 0.01 --mitigation rem --seed 7"
    ),
    "calibrate-figure-s2": "calibrate --shots-per-state 50 --repeats 4 --seed 2",
    "calibrate-ideal-lih": (
        "calibrate --confusion ideal --molecule lih --shots-per-state 20 --repeats 2 --seed 2"
    ),
    "calibrate-csv": (
        "calibrate --confusion {golden}/skewed.csv --shots-per-state 100 --repeats 3 --seed 9"
    ),
}


def transcript(command: str) -> str:
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = f"$ remvqe {command}\n{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {rc}\n"
    # a file-loaded problem prints its path; keep transcripts independent of the checkout
    return text.replace(str(GOLDEN), "{golden}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name]) == expected


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)} (known: {', '.join(sorted(CASES))})")
    for name in names:
        path = GOLDEN / f"{name}.txt"
        text = transcript(CASES[name])
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
            print(f"changed {path.name}")
