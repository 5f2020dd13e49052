"""Command-line behavior: exit codes, stdout payloads, file side effects."""
import argparse
import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import pytest

from remvqe import ConfusionMatrix, experiments, format_confusion_csv
from remvqe import cli
from remvqe.cli import _build_parser, main
from remvqe.experiments import ANSATZE, BACKENDS, MITIGATIONS, OPTIMIZERS


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


def test_noise_sweep_svg_output(tmp_path, capsys):
    out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    rc = main(["noise-sweep", "--molecule", "h2", "--p2", "0.001,0.03",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    assert out.read_text() == capsys.readouterr().out
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(svg.read_text())
    texts = [t for t in root.iter(f"{ns}text") if t.get("font-size") == "11"]
    # x ticks sit one per decade on the log axis, centred under the axis
    ticks = {t.text: float(t.get("x")) for t in texts if t.get("text-anchor") == "middle"}
    assert list(ticks) == ["0.001", "0.01"]
    assert [t.text for t in texts if t.get("text-anchor") is None] == [
        "vqe", "readout", "rem", "readout+rem"
    ]
    dashed = [line for line in root.iter(f"{ns}line") if line.get("stroke-dasharray")]
    assert len(dashed) == 1
    decade = ticks["0.01"] - ticks["0.001"]
    device_x = ticks["0.001"] + (math.log10(0.018) + 3) * decade
    assert float(dashed[0].get("x1")) == pytest.approx(device_x, abs=0.02)


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a point or a calibration starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the configuration was checked")
    monkeypatch.setattr(experiments, "_run_point", refuse)
    monkeypatch.setattr(experiments, "calibrate_confusion", refuse)


UNWRITABLE = "not a file in an existing directory"
SAME = "--out names the same file"


@pytest.mark.parametrize(
    "argv,bad,why",
    [
        (["dissociation", "--molecule", "h2", "--confusion", "calibrate",
          "--out", "{tmp}/ok.csv", "--svg", "{tmp}/missing/x.svg"], "{tmp}/missing/x.svg",
         UNWRITABLE),
        (["dissociation", "--molecule", "h2", "--out", "{tmp}/missing/x.csv"],
         "{tmp}/missing/x.csv", UNWRITABLE),
        (["single-point", "--molecule", "h2", "--out", "{tmp}/missing/x.json"],
         "{tmp}/missing/x.json", UNWRITABLE),
        (["single-point", "--molecule", "h2", "--out", "{tmp}"], "{tmp}", UNWRITABLE),
        (["noise-sweep", "--molecule", "h2", "--p2", "0.01", "--confusion", "calibrate",
          "--out", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv", UNWRITABLE),
        (["noise-sweep", "--molecule", "h2", "--p2", "0.01",
          "--out", "{tmp}/ok.csv", "--svg", "{tmp}/missing/x.svg"], "{tmp}/missing/x.svg",
         UNWRITABLE),
        (["calibrate", "--out", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv", UNWRITABLE),
        # the CSV would be overwritten by the SVG
        (["dissociation", "--molecule", "h2", "--confusion", "calibrate",
          "--out", "{tmp}/same.txt", "--svg", "{tmp}/same.txt"], "{tmp}/same.txt", SAME),
        (["noise-sweep", "--molecule", "h2", "--p2", "0.001,0.01",
          "--out", "{tmp}/same.txt", "--svg", "{tmp}/./same.txt"], "{tmp}/./same.txt", SAME),
    ],
    ids=["dissociation-svg", "dissociation-out", "single-point", "single-point-dir",
         "noise-sweep-out", "noise-sweep-svg", "calibrate", "dissociation-same",
         "noise-sweep-same"],
)
def test_unwritable_output_is_config_error_before_any_run(argv, bad, why, tmp_path, capsys, no_run):
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: cannot write {bad.replace('{tmp}', str(tmp_path))}: {why}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["single-point", "--molecule", "h2"], ["dissociation", "--molecule", "h2"],
     ["noise-sweep", "--molecule", "h2", "--p2", "0.01"]],
    ids=["single-point", "dissociation", "noise-sweep"],
)
def test_no_run_guards_every_run_subcommand(argv, no_run):
    # a valid run reaches the guard, so the refusals that use it test their order
    with pytest.raises(AssertionError, match="ran before the configuration was checked"):
        main(argv)


def test_noise_sweep_svg_rejects_zero_p2_before_any_run(tmp_path, capsys, no_run):
    out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    rc = main(["noise-sweep", "--molecule", "h2", "--p2", "0,0.01",
               "--out", str(out), "--svg", str(svg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: the SVG's p2 axis is logarithmic; p2=0 cannot be plotted\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_single_point_report(capsys):
    rc = main(["single-point", "--molecule", "h2"])
    captured = capsys.readouterr()
    assert rc == 0
    for field in ("e_exact_ref:", "delta_rem:", "e_rem:", "err_rem:"):
        assert field in captured.out
    assert captured.err == ""


def test_single_point_convergence_warning(monkeypatch, capsys):
    # SPSA on exact distributions spends its 2000 evaluations without meeting its stop rule
    results = []

    def keep(cfg):
        results.append(experiments.cmd_single_point(cfg))
        return results[-1]

    monkeypatch.setattr(cli, "cmd_single_point", keep)
    rc = main(["single-point", "--molecule", "heh+", "--backend", "noisy", "--optimizer", "spsa"])
    captured = capsys.readouterr()
    (res,) = results
    assert rc == 3
    assert res.warnings == ("optimizer did not converge",)
    assert captured.err == "warning: optimizer did not converge\n"
    assert captured.out == res.text
    assert "[not converged]" in captured.out


def test_shot_spsa_reaches_its_noise_floor(capsys):
    # under shots SPSA stops once its window averages differ by no more than
    # their noise, instead of spending its budget
    rc = main(
        [
            "single-point", "--molecule", "h2", "--backend", "noisy", "--shots", "500",
            "--optimizer", "spsa", "--seed", "1",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "[not converged]" not in captured.out


def test_shot_dissociation_converges_at_every_point(capsys):
    # every point of a 5000-shot SPSA curve stops at its noise floor
    rc = main(
        [
            "dissociation", "--molecule", "heh+", "--backend", "noisy", "--shots", "5000",
            "--mitigation", "rem", "--seed", "42",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert len(captured.out.strip().split("\n")) == 11


def test_unknown_molecule_is_config_error(capsys):
    for argv in (["single-point", "--molecule", "xyz"], ["calibrate", "--molecule", "beh2"]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "unknown molecule" in captured.err
        assert captured.out == ""


def test_unconverged_dissociation_points_warn_and_exit_3(monkeypatch, capsys):
    # Nelder-Mead on 200 shots meets its stop rule at some geometries and
    # spends its 2000 evaluations at the others; each of those warns once
    results = []

    def keep(cfg):
        results.append(experiments.cmd_dissociation(cfg))
        return results[-1]

    monkeypatch.setattr(cli, "cmd_dissociation", keep)
    rc = main(["dissociation", "--molecule", "h2", "--backend", "noisy", "--shots", "200",
               "--optimizer", "nelder-mead", "--seed", "1"])
    captured = capsys.readouterr()
    (res,) = results
    assert rc == 3
    assert captured.out == res.text
    unconverged = [(r, p) for r, p in zip(res.rs, res.points) if not p.converged]
    assert captured.err == "".join(
        f"warning: r={r:g}: optimizer did not converge\n" for r, _ in unconverged
    )
    assert 0 < len(unconverged) < len(res.points)
    assert all(p.outcome.n_evaluations == 2000 for _, p in unconverged)
    assert all(p.outcome.n_evaluations < 2000 for p in res.points if p.converged)


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
        ("qubits=2\nZI nan\nIZ 0.5\n", [], "coefficient of term 'ZI' must be finite, got nan"),
        ("qubits=2\noffset=inf\nZI 1.0\n", [], "offset must be finite, got inf"),
        ("qubits=2\nXX 1\nqubits=3\nXXX 1\n", [], "h.txt: line 3: duplicate header 'qubits'"),
        ("qubits=2\noffset=1\nXX 1\noffset=2\n", [], "h.txt: line 4: duplicate header 'offset'"),
    ],
    ids=["file-with-r", "13-qubit-file", "compact-other-reference", "11-qubit-noisy-file",
         "nan-coefficient", "inf-offset", "second-qubits-header", "second-offset-header"],
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


def _subcommands() -> dict:
    """Each subcommand's parser, by name."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(parser) -> list:
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _flag(option, type=None, choices=None, metavar=None, default=argparse.SUPPRESS, dest=None):
    """(flag, dest, type, choices, metavar, default) as argparse records them."""
    return option, dest or option[2:].replace("-", "_"), type, choices, metavar, default


_OUTPUT = [_flag("--seed", int), _flag("--out", metavar="PATH")]
_DEVICE = [_flag("--p1", float), _flag("--shots", int), _flag("--confusion")]
_PROTOCOL = [_flag("--mitigation", choices=MITIGATIONS), _flag("--ansatz", choices=tuple(ANSATZE)),
             _flag("--optimizer", choices=OPTIMIZERS), _flag("--grid-points", int)]
_BACKEND = [_flag("--backend", choices=BACKENDS), _flag("--p2", float)]
FLAGS = {  # in help order
    "dissociation": [
        _flag("--molecule"), *_BACKEND, *_DEVICE, *_PROTOCOL, _flag("--svg", metavar="PATH"), *_OUTPUT,
    ],
    "noise-sweep": [
        _flag("--molecule"), _flag("--r", float), _flag("--p2", metavar="GRID"), *_DEVICE,
        _flag("--ansatz", choices=tuple(ANSATZE)), _flag("--grid-points", int),
        _flag("--svg", metavar="PATH"), *_OUTPUT,
    ],
    "single-point": [
        _flag("--molecule"), _flag("--hamiltonian", metavar="PATH", dest="hamiltonian_path"),
        _flag("--reference", metavar="BITS"), _flag("--r", float), *_BACKEND, *_DEVICE, *_PROTOCOL,
        *_OUTPUT,
    ],
    "calibrate": [
        _flag("--molecule"), _flag("--confusion", default="figure-s2"),
        _flag("--shots-per-state", int), _flag("--repeats", int), *_OUTPUT,
    ],
}
# the flags whose help differs from the other subcommands' on purpose
OWN_HELP = {("noise-sweep", "--p2"), ("calibrate", "--molecule"), ("calibrate", "--confusion")}


def test_each_subcommand_takes_exactly_its_flags():
    subcommands = _subcommands()
    assert list(subcommands) == list(FLAGS)
    for name, parser in subcommands.items():
        assert parser.argument_default == argparse.SUPPRESS, name
        found = [
            (*a.option_strings, a.dest, a.type, None if a.choices is None else tuple(a.choices),
             a.metavar, a.default)
            for a in _options(parser)
        ]
        assert found == FLAGS[name], name
        # main passes every flag given to RunConfig
        assert {a.dest for a in _options(parser)} <= {f.name for f in fields(experiments.RunConfig)}


def test_every_option_has_help_and_a_shared_flag_one_text():
    texts: dict = {}
    for name, parser in _subcommands().items():
        for action in _options(parser):
            (flag,) = action.option_strings
            assert action.help, (name, flag)
            if (name, flag) not in OWN_HELP:
                texts.setdefault(flag, set()).add(action.help)
    assert {flag: len(shared) for flag, shared in texts.items() if len(shared) > 1} == {}


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
    "text,message",
    [("# confusion n=0\n1\n", "line 1: qubit count '0' is not a positive integer"),
     ("# confusion n=-1\n1\n", "line 1: qubit count '-1' is not a positive integer"),
     ("# confusion n=1\n1,0\n0,1,0\n", "line 3: expected 2 entries, got 3")],
    ids=["zero", "negative", "width"],
)
def test_calibrate_names_the_bad_confusion_csv_line(text, message, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    rc = main(["calibrate", "--confusion", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {bad}: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "rows,message",
    [("0.9,0,0.1,0\n0.1,0,0,0.1\n0,0,0.9,0\n0,0,0,0.9", "column sums [1.0, 0.0, 1.0, 1.0]"),
     ("nan,0,0,0\nnan,1,0,0\n0,0,1,0\n0,0,0,1", "column sums [nan, 1.0, 1.0, 1.0]")],
    ids=["zero", "nan"],
)
def test_confusion_csv_without_distributions_is_config_error(rows, message, tmp_path, capsys):
    # a zero or NaN column has no outcome distribution to resample from
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# confusion n=2\n{rows}\n")
    argv = ["single-point", "--molecule", "h2", "--shots", "1000", "--confusion", str(bad),
            "--mitigation", "readout", "--seed", "8"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, mitigation, rc",
    [("single-point", "readout", 2), ("single-point", "readout+rem", 2),
     ("dissociation", "none", 2), ("single-point", "rem", 0)],
)
def test_singular_unfolding_matrix_is_config_error(command, mitigation, rc, tmp_path, capsys):
    # equal columns 00 and 01: a readout model, but no unique unfolding; the
    # curve commands unfold at every point, single-point only for readout
    path = tmp_path / "singular.csv"
    path.write_text("# confusion n=2\n0.5,0.5,0,0\n0.5,0.5,0,0\n0,0,1,0\n0,0,0,1\n")
    assert main([command, "--molecule", "h2", "--shots", "1000", "--confusion", str(path),
                 "--mitigation", mitigation, "--grid-points", "5", "--seed", "8"]) == rc
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.err == (
            f"error: confusion source {str(path)!r}: the unfolding matrix is singular\n"
        )
        assert captured.out == ""


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


INT64_MAX = 2**63 - 1  # numpy draws int64 counts


@pytest.mark.parametrize(
    "argv,message",
    [
        (["single-point", "--molecule", "h2", "--backend", "noisy", "--shots", str(10**20)],
         f"shots must be at most {INT64_MAX}, got {10**20}"),
        (["calibrate", "--shots-per-state", str(10**20), "--repeats", "2"],
         f"shots_per_state must be at most {INT64_MAX}, got {10**20}"),
        (["single-point", "--molecule", "h2", "--grid-points", str(10**12)],
         f"grid_points must be at most 100000, got {10**12}"),
        (["calibrate", "--repeats", str(10**10)], f"repeats must be at most 10000, got {10**10}"),
    ],
    ids=["shots", "shots-per-state", "grid-points", "repeats"],
)
def test_oversized_sizes_are_config_errors_before_any_draw(argv, message, capsys, no_run):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_largest_shot_counts_are_drawn(capsys):
    assert main(["single-point", "--molecule", "h2", "--backend", "noisy",
                 "--shots", str(INT64_MAX)]) == 0
    assert main(["calibrate", "--shots-per-state", str(INT64_MAX), "--repeats", "2"]) == 0
    assert "error" not in capsys.readouterr().err


def test_calibration_repeats_are_capped_by_width(tmp_path, capsys, no_run):
    # calibration's (repeats, 2^n, 2^n) arrays may hold 10^4 x 4^4 entries:
    # the repeats cap on 4 qubits, 625 repeats on 6
    path = tmp_path / "six.csv"
    path.write_text(format_confusion_csv(ConfusionMatrix.identity(6)))
    rc = main(["calibrate", "--confusion", str(path), "--repeats", "1000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: repeats must be at most 625 on 6 qubits, got 1000\n"
    assert captured.out == ""


def test_calibration_at_the_width_cap_runs(tmp_path, capsys):
    path = tmp_path / "six.csv"
    path.write_text(format_confusion_csv(ConfusionMatrix.identity(6)))
    rc = main(["calibrate", "--confusion", str(path), "--repeats", "625", "--shots-per-state", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("# confusion n=6\n") and captured.err == ""


def test_calibrate_takes_width_from_confusion_csv(tmp_path, capsys):
    # without --molecule the CSV's own width applies; with one it must match
    path = tmp_path / "one.csv"
    path.write_text(format_confusion_csv(ConfusionMatrix(1, [[0.9, 0.2], [0.1, 0.8]])))
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
