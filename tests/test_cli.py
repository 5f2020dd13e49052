"""Command-line behavior: exit codes, stdout payloads, file side effects."""
import xml.etree.ElementTree as ET

import pytest

from remvqe import ConfusionMatrix, write_confusion_csv
from remvqe.cli import main


def test_dissociation_stdout_matches_out_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["dissociation", "--molecule", "h2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith(
        "r,e_exact,e_vqe,e_vqe_readout,e_rem,e_readout_rem,err_vqe,err_rem"
    )
    assert len(captured.out.strip().split("\n")) == 13
    assert out.read_text() == captured.out
    assert captured.err == ""


def test_dissociation_svg_output(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    rc = main(
        ["dissociation", "--molecule", "h2", "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    # plotting must not perturb the numbers
    assert out.read_text() == capsys.readouterr().out


def test_single_point_report(capsys):
    rc = main(["single-point", "--molecule", "h2"])
    captured = capsys.readouterr()
    assert rc == 0
    for field in ("e_exact_ref:", "delta_rem:", "e_rem:", "err_rem:"):
        assert field in captured.out
    assert captured.err == ""


def test_single_point_convergence_warning(capsys):
    rc = main(
        [
            "single-point", "--molecule", "lih", "--ansatz", "hwe",
            "--backend", "noisy", "--mitigation", "rem",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 3
    assert "warning: optimizer did not converge" in captured.err
    assert "[not converged]" in captured.out


def test_unknown_molecule_is_config_error(capsys):
    rc = main(["single-point", "--molecule", "xyz"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "unknown molecule" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["single-point", "--molecule", "h2", "--r", "0.5"],
     ["noise-sweep", "--molecule", "h2", "--r", "0.5", "--p2", "0.01"]],
)
def test_unknown_geometry_is_config_error(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: h2 has no geometry r=0.5")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["single-point", "--molecule", "h2", "--shots", "1"],
         "1 shots cannot cover the 2 measurement groups"),
        (["single-point", "--molecule", "heh+", "--shots", "3"],
         "3 shots cannot cover the 4 measurement groups"),
        (["dissociation", "--molecule", "heh+", "--shots", "3"],
         "3 shots cannot cover the 4 measurement groups"),
        (
            ["single-point", "--molecule", "lih", "--ansatz", "hwe", "--backend", "noisy",
             "--shots", "24", "--optimizer", "spsa"],
            "24 shots cannot cover the 25 measurement groups",
        ),
        (["single-point", "--molecule", "h2", "--reference", "10"],
         "--reference applies to Hamiltonian files"),
        (["single-point", "--molecule", "h2", "--p2", "0.5", "--p1", "0.2"],
         "p2 and p1 set gate noise, which only the noisy backend has"),
        (["single-point", "--molecule", "h2", "--backend", "ideal", "--p1", "0.2"],
         "p2 and p1 set gate noise, which only the noisy backend has"),
        (["dissociation", "--molecule", "h2", "--p2", "0.01"],
         "p2 and p1 set gate noise, which only the noisy backend has"),
    ],
    ids=["h2-1-shot", "heh+-3-shots", "dissociation-heh+-3-shots", "lih-24-shots",
         "molecule-reference", "ideal-p2-p1", "ideal-p1", "dissociation-ideal-p2"],
)
def test_unusable_options_are_config_errors(argv, message, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "text,extra,message",
    [
        ("qubits=2\nZI 1.0\nIZ 0.5\n", ["--r", "0.7"], "--r picks a molecule's geometry"),
        ("qubits=13\n" + "Z" * 13 + " 1.0\n", [], "has 13 qubits; exact "
         "diagonalization is limited to 12"),
        ("qubits=2\nZI 1.0\nIZ 0.5\n", ["--reference", "10", "--ansatz", "compact",
                                         "--mitigation", "rem"],
         "the compact ansatz starts from the reference state 01"),
        ("qubits=11\n" + "Z" * 11 + " 1.0\n", ["--backend", "noisy"],
         "the noisy backend is limited to 10 qubits (its Pauli-transfer ops hold 4^n"),
    ],
    ids=["file-with-r", "13-qubit-file", "compact-other-reference", "11-qubit-noisy-file"],
)
def test_hamiltonian_file_config_errors(text, extra, message, tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text(text)
    rc = main(["single-point", "--hamiltonian", str(path), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert captured.out == ""


def test_bad_choice_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["single-point", "--molecule", "h2", "--backend", "magic"])
    assert exc.value.code == 2


def test_missing_subcommand_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_noise_sweep_grid_argument(capsys):
    rc = main(["noise-sweep", "--molecule", "h2", "--p2", "0.001,0.01"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "p2,err_vqe,err_readout,err_rem,err_readout_rem"
    assert lines[1] == "# device p2=0.018000"
    assert len(lines) == 4


def test_noise_sweep_rejects_malformed_grid(capsys):
    rc = main(["noise-sweep", "--molecule", "h2", "--p2", "abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "could not parse p2 grid" in captured.err


@pytest.mark.parametrize(
    "p2_args,message",
    [
        (["--p2", "0.5,2"], "error: p2 must lie in [0, 1]"),
        (["--p2", "nan"], "error: p2 must lie in [0, 1]"),
        (["--p2=-0.1,0.1"], "error: p2 must lie in [0, 1]"),
        # argparse takes a value that starts with '-' and holds a comma for an
        # option, so this spelling stops in the parser, also with exit 2
        (["--p2", "-0.1,0.1"], "remvqe noise-sweep: error: argument --p2: expected one argument"),
    ],
    ids=["0.5,2", "nan", "=-0.1,0.1", "-0.1,0.1"],
)
def test_noise_sweep_rejects_out_of_range_grid(p2_args, message, capsys):
    try:
        rc = main(["noise-sweep", "--molecule", "h2", *p2_args])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines()[-1].startswith(message)
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["single-point", "--molecule", "h2"], ["dissociation", "--molecule", "h2"],
     ["noise-sweep", "--molecule", "h2", "--p2", "0.01"], ["calibrate"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_config_error(argv, capsys):
    rc = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: seed must be non-negative, got -1\n"
    assert captured.out == ""


def test_default_ansatz_ignores_molecule_case(capsys):
    assert main(["single-point", "--molecule", "h2"]) == 0
    lower = capsys.readouterr().out
    assert main(["single-point", "--molecule", "H2"]) == 0
    assert capsys.readouterr().out == lower
    assert main(["noise-sweep", "--molecule", "H2", "--p2", "0.01"]) == 0
    assert capsys.readouterr().out.startswith("p2,err_vqe")


def test_calibrate_csv(tmp_path, capsys):
    out = tmp_path / "confusion.csv"
    rc = main(
        [
            "calibrate", "--shots-per-state", "50", "--repeats", "4",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("# confusion n=2")
    assert out.read_text() == captured.out


def test_calibrate_rejects_malformed_confusion_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# confusion n=2\n1,0,0,0\n0,1,0,0\n")
    for command in ("calibrate", "single-point"):
        extra = ["--molecule", "h2"] if command == "single-point" else []
        rc = main([command, *extra, "--confusion", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "expected 4 matrix rows, got 2" in captured.err


@pytest.mark.parametrize(
    "flag,message",
    [("--repeats", "repeats must be positive"),
     ("--shots-per-state", "shots_per_state must be positive")],
)
def test_calibrate_rejects_empty_budget(flag, message, capsys):
    rc = main(["calibrate", flag, "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_calibrate_takes_width_from_confusion_csv(tmp_path, capsys):
    # without --molecule the CSV's own width applies; with one it must match
    path = tmp_path / "one.csv"
    write_confusion_csv(ConfusionMatrix(1, [[0.9, 0.2], [0.1, 0.8]]), path)
    rc = main(["calibrate", "--confusion", str(path), "--shots-per-state", "50", "--repeats", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("# confusion n=1\n")
    assert len(captured.out.splitlines()) == 1 + 2 + 1 + 2
    rc = main(["calibrate", "--molecule", "h2", "--confusion", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: confusion matrix covers 1 qubits but the problem has 2\n"


def test_calibrate_ideal_identity(capsys):
    rc = main(
        ["calibrate", "--confusion", "ideal", "--shots-per-state", "20",
         "--repeats", "2"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[1] == ",".join(
        f"{v:.8f}" for v in (1.0, 0.0, 0.0, 0.0)
    )
