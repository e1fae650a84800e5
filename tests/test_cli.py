import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infobell import (
    MODE_LABELS,
    REFERENCE_THETAS,
    ReactivityResult,
    SimulationConfig,
    expected_counts,
    modified_werner,
    simulate_sweep,
    sweep,
)
from infobell import cli, tomography
from infobell.cli import (
    NonFiniteOutputError,
    _atomic_write,
    _json_text,
    curve_from_csv,
    curve_to_csv,
    main,
    parse_state_spec,
    run_rows_to_csv,
)

CONFIG = {
    "state": {"lambda": 0.998, "phase": 0.225},
    "thetas": list(REFERENCE_THETAS),
    "counts_per_mode": 350,
    "accidental_mean": 6.0,
    "angle_sigma": 0.003,
    "seed": 42,
}

REPRODUCE_SEED7 = json.loads((Path(__file__).parent / "data" / "reproduce_seed7.json").read_text())


def write_config(tmp_path, payload=CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_state_spec_forms():
    assert parse_state_spec("bell").n_qubits == 2
    psi = parse_state_spec("bell:psi-")
    assert psi.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)
    werner = parse_state_spec("werner:0.5,0.3")
    assert werner.matrix[0, 0] == pytest.approx(0.5 / 2 + 0.5 / 4, abs=1e-12)
    with pytest.raises(ValueError):
        parse_state_spec("thermal")
    with pytest.raises(ValueError):
        parse_state_spec("werner:0.5")


def test_violation_text_output(capsys):
    assert main(["violation", "--state", "bell", "--theta", "0.3927"]) == 0
    out = capsys.readouterr().out
    assert "d_a1b2 = 1.78324" in out
    assert "v = 0.383275" in out


def test_violation_json_output(capsys):
    assert main(["violation", "--state", "bell", "--theta", "0.3927", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["v"] == pytest.approx(0.383275, abs=1e-6)
    assert payload["edges"]["d_a1b1"] == pytest.approx(0.466655, abs=1e-6)


def test_sweep_reference_grid_matches_library(capsys):
    assert main(["sweep", "--state", "werner:0.998,0.225", "--reference-grid"]) == 0
    out = capsys.readouterr().out
    expected = curve_to_csv(sweep(modified_werner(0.998, 0.225), REFERENCE_THETAS))
    assert out == expected
    assert out.startswith("# infobell curve v1\ntheta,v,dv\n")


def test_sweep_range_grid(capsys):
    assert main(["sweep", "--state", "bell", "--range", "0.2:0.4:0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 + 3  # header comment, column row, three points
    assert lines[2].startswith("0.2,")


@pytest.mark.parametrize("text, thetas", [("0.1:0.6:0.3", [0.1, 0.4, 0.6]), ("0.1:0.3:0.1", [0.1, 0.2, 0.3])])
def test_sweep_range_ends_at_hi(capsys, text, thetas):
    """The range's own arange used to evaluate 0.7, past hi = 0.6, and to write 0.30000000000000004 for 0.3."""
    assert main(["sweep", "--state", "bell", "--range", text, "--json"]) == 0
    assert [p["theta"] for p in json.loads(capsys.readouterr().out)["points"]] == thetas


def test_sweep_explicit_thetas_json(capsys):
    assert main(["sweep", "--state", "bell", "--thetas", "0.2,0.3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["theta"] for p in payload["points"]] == [0.2, 0.3]
    assert payload["points"][0]["dv"] is None


def test_sweep_grid_flags_are_exclusive():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--state", "bell", "--reference-grid", "--range", "0.1:0.2:0.1"])
    assert err.value.code == 2


def test_simulate_matches_library_and_is_deterministic(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["simulate", "--config", config_path]) == 0
    out = capsys.readouterr().out

    config = SimulationConfig.load(config_path)
    rows = simulate_sweep(config.state(), config.thetas, config.counts_per_mode, config.noise())
    assert out == run_rows_to_csv(rows)

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", config_path, "-o", str(out1)]) == 0
    assert main(["simulate", "--config", config_path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_curve_from_csv_reads_both_layouts(tmp_path, capsys):
    config_path = write_config(tmp_path)
    run_path = tmp_path / "run.csv"
    assert main(["simulate", "--config", config_path, "-o", str(run_path)]) == 0
    curve = curve_from_csv(str(run_path))
    assert curve.dv is not None and len(curve) == 8

    curve_path = tmp_path / "curve.csv"
    assert main(["sweep", "--state", "bell", "--reference-grid", "-o", str(curve_path)]) == 0
    theory = curve_from_csv(str(curve_path))
    assert theory.dv is None
    assert theory.thetas[0] == pytest.approx(0.175)


def test_fit_round_trip_through_files(tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    assert main(["sweep", "--state", "werner:0.998,0.225", "--reference-grid",
                 "-o", str(curve_path)]) == 0
    assert main(["fit", "--curve", str(curve_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == pytest.approx(0.998, abs=1e-3)
    assert payload["phase"] == pytest.approx(0.225, abs=1e-3)
    assert len(payload["residuals"]) == 8


def test_tomo_round_trip(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(expected_counts(modified_werner(0.998, 0.225), 10000).to_csv())
    assert main(["tomo", "--counts", str(counts_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["report"]) == ["fidelity", "tangle", "concurrence", "linear_entropy", "purity"]
    re = np.array(payload["rho_mle"]["re"])
    assert re[0, 0] == pytest.approx(0.4995, abs=1e-3)
    assert payload["converged"] is True


def test_chsh_optimal_golden(capsys):
    assert main(["chsh", "--state", "bell", "--optimal"]) == 0
    assert capsys.readouterr().out == "s = 2.82843\n"


def test_chsh_from_counts_file(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(expected_counts(modified_werner(0.998, 0.225), 10000).to_csv())
    angles = "0,0.7853981633974483,0.39269908169872414,1.1780972450961724"
    assert main(["chsh", "--counts", str(counts_path), "--angles", angles]) == 0
    value = float(capsys.readouterr().out.split("=")[1])
    assert value == pytest.approx(2.3609, abs=0.01)


def test_unconverged_mle_exits_3_and_only_tomo_writes(tmp_path, monkeypatch, capsys):
    """chsh --counts used to print the S of a state whose likelihood maximization hit the step cap."""
    monkeypatch.setattr(tomography, "_MAX_NEWTON_STEPS", 3)
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(expected_counts(modified_werner(0.998, 0.225), 10000).to_csv())
    tomo_path, chsh_path = tmp_path / "tomo.json", tmp_path / "s.txt"
    assert main(["tomo", "--counts", str(counts_path), "-o", str(tomo_path)]) == 3
    assert json.loads(tomo_path.read_text())["converged"] is False
    assert "did not converge" in capsys.readouterr().err
    assert main(["chsh", "--counts", str(counts_path), "--optimal", "-o", str(chsh_path)]) == 3
    assert main(["chsh", "--counts", str(counts_path), "--optimal"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "numerical failure: likelihood maximization did not converge" in captured.err
    assert not chsh_path.exists()


def test_reactivity_csv_deterministic(tmp_path):
    args = ["reactivity", "--lambdas", "0,0.4", "--samples", "80", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# infobell reactivity v1"
    assert lines[1] == "lambda,area,volume,reactivity"
    first = lines[2].split(",")
    assert float(first[3]) == pytest.approx(0.75, abs=1e-9)


def test_reactivity_json(capsys):
    assert main(["reactivity", "--lambdas", "0.3", "--samples", "50",
                 "--seed", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["rows"][0]) == ["lambda", "mean_area", "mean_volume", "reactivity", "n_samples", "seed",
                                        "volume_degenerate"]
    assert payload["rows"][0]["lambda"] == 0.3
    assert payload["rows"][0]["volume_degenerate"] is False


def test_reproduce_writes_expected_files(tmp_path, capsys):
    outdir = tmp_path / "demo"
    assert main(["reproduce", "--output", str(outdir), "--seed", "3",
                 "--samples", "50"]) == 0
    names = sorted(os.listdir(outdir))
    assert names == [
        "bell_curve.csv", "fit.json", "reactivity.csv",
        "simulated_run.csv", "summary.txt", "werner_curve.csv",
    ]
    summary = (outdir / "summary.txt").read_text()
    assert "v = 0.383277" in summary
    assert "theta* = 0.304684" in summary
    assert "s = 2.82843" in summary


def test_reproduce_seed7_writes_the_recorded_bytes(tmp_path, capsys):
    outdir = tmp_path / "demo"
    assert main(["reproduce", "--output", str(outdir), "--seed", "7"]) == 0
    written = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in os.listdir(outdir)}
    assert written == REPRODUCE_SEED7["sha256"]


def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    assert main(["violation", "--state", "nope", "--theta", "0.3"]) == 2
    assert main(["sweep", "--state", "bell", "--range", "0.5:0.1:0.1"]) == 2
    assert main(["fit", "--curve", str(tmp_path / "missing.csv")]) == 2
    bad_config = write_config(
        tmp_path, {**CONFIG, "state": {"lambda": 1.5, "phase": 0.0}}
    )
    assert main(["simulate", "--config", bad_config]) == 2
    capsys.readouterr()


def test_exit_code_2_on_non_finite_inputs(tmp_path, capsys):
    assert main(["violation", "--state", "bell", "--theta", "nan"]) == 2
    assert main(["chsh", "--state", "bell", "--angles", "nan,0,0,0"]) == 2
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text("theta,v,dv\n0.2,0.4,0.01\n0.3,nan,0.01\n0.4,0.3,0.01\n")
    assert main(["fit", "--curve", str(curve_path)]) == 2
    capsys.readouterr()
    assert main(["violation", "--state", "bell", "--theta", "inf"]) == 2
    assert "--theta = inf is not finite" in capsys.readouterr().err
    assert main(["sweep", "--state", "bell", "--thetas", "0.1,inf"]) == 2
    assert "'0.1,inf'" in capsys.readouterr().err
    assert main(["sweep", "--state", "bell", "--range", "0:inf:0.1"]) == 2
    assert "range '0:inf:0.1'" in capsys.readouterr().err


@pytest.mark.parametrize("tiny, rest", [("1e-170", "0.01"), ("1e200", "1e200")])
def test_weighted_fit_with_a_weight_beyond_float_range_exits_2(tmp_path, capsys, tiny, rest):
    """1/dv^2 overflows at dv = 1e-170 and underflows at dv = 1e200."""
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text(f"theta,v,dv\n0.2,0.4,{tiny}\n0.3,0.5,{rest}\n0.4,0.3,{rest}\n")
    assert main(["fit", "--curve", str(curve_path), "--weighted"]) == 2
    assert "dv = " in capsys.readouterr().err
    assert main(["fit", "--curve", str(curve_path)]) == 0


def test_exit_code_2_on_non_finite_config_and_state(tmp_path, capsys):
    config_path = tmp_path / "nan.json"
    config_path.write_text(json.dumps({**CONFIG, "accidental_mean": float("nan")}))
    assert "NaN" in config_path.read_text()
    assert main(["simulate", "--config", str(config_path)]) == 2
    assert "accidental_mean" in capsys.readouterr().err
    assert main(["violation", "--state", "werner:0.9,nan", "--theta", "0.3"]) == 2
    assert "phase" in capsys.readouterr().err


# Each template puts one value into one float-valued flag (or the numbers
# of a werner state spec); "--flag=value" keeps "-inf" from reading as an option.
_FLOAT_FLAGS = (
    lambda x: ["violation", "--state", "bell", f"--theta={x}"],
    lambda x: ["violation", "--state", f"werner:{x},0.1", "--theta", "0.3"],
    lambda x: ["violation", "--state", f"werner:0.9,{x}", "--theta", "0.3"],
    lambda x: ["sweep", "--state", "bell", f"--thetas=0.1,{x},0.4"],
    lambda x: ["sweep", "--state", "bell", f"--range={x}:1:0.1"],
    lambda x: ["sweep", "--state", "bell", f"--range=0:{x}:0.1"],
    lambda x: ["sweep", "--state", "bell", f"--range=0:1:{x}"],
    lambda x: ["chsh", "--state", "bell", f"--angles=0,{x},0.3,0.5"],
    lambda x: ["reactivity", f"--lambdas=0.2,{x}", "--samples", "10", "--seed", "1"],
    lambda x: ["reactivity", "--lambdas", "0.2", f"--phase={x}", "--samples", "10", "--seed", "1"],
)


@given(
    template=st.sampled_from(_FLOAT_FLAGS),
    value=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "+inf"]),
    as_json=st.booleans(),
)
def test_any_non_finite_float_flag_exits_2_quietly(template, value, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out"
        argv = template(value) + ["-o", str(out_path)] + (["--json"] if as_json else [])
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        assert not out_path.exists()
    assert stderr.getvalue().startswith("error: ")
    assert "RuntimeWarning" not in stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_tomo_and_fit_run_with_scipy_blocked(tmp_path):
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(expected_counts(modified_werner(0.998, 0.225), 10000).to_csv())
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text(curve_to_csv(sweep(modified_werner(0.998, 0.225), REFERENCE_THETAS)))
    code = ("import sys\nsys.modules['scipy'] = None\n"
            "from infobell.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in (["tomo", "--counts", str(counts_path)], ["fit", "--curve", str(curve_path)]):
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["format_version"] == 1


def test_import_does_not_load_scipy():
    code = "import sys, infobell; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_exit_code_2_on_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("count, message", [(2**62, "exceeds 2**53"), (2**70, "mode HH: count")])
def test_exit_code_2_on_counts_beyond_exact_integers(tmp_path, capsys, count, message):
    path = tmp_path / "counts.csv"
    path.write_text("label,counts\n" + "".join(f"{lab},{count}\n" for lab in MODE_LABELS))
    out_path = tmp_path / "result.json"
    assert main(["tomo", "--counts", str(path), "-o", str(out_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out_path.exists()


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    zero_path = tmp_path / "zero.csv"
    rows = ["label,counts"] + [f"{lab},0" for lab in MODE_LABELS]
    zero_path.write_text("\n".join(rows) + "\n")
    out_path = tmp_path / "result.json"
    assert main(["tomo", "--counts", str(zero_path), "-o", str(out_path)]) == 3
    assert not out_path.exists()
    capsys.readouterr()


def test_exit_code_3_when_every_bin_clamps(tmp_path, capsys):
    # One count per mode under six accidentals per bin: at seed 8 an edge of
    # the first angle is empty after subtraction (see test_expsim).
    config = dict(CONFIG, thetas=[REFERENCE_THETAS[0]], counts_per_mode=1, seed=8)
    out_path = tmp_path / "run.csv"
    assert main(["simulate", "--config", write_config(tmp_path, config), "-o", str(out_path)]) == 3
    assert "empty after accidental subtraction" in capsys.readouterr().err
    assert not out_path.exists()


def test_non_finite_json_output_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteOutputError):
            _json_text({"values": [1.0, {"x": bad}]})
    assert capsys.readouterr().out == ""

    monkeypatch.setattr(cli, "chsh", lambda *args: float("nan"))
    out_path = tmp_path / "s.json"
    assert main(["chsh", "--state", "bell", "--optimal", "--json", "-o", str(out_path)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out_path.exists()
    assert os.listdir(tmp_path) == []
    assert main(["chsh", "--state", "bell", "--optimal", "--json"]) == 3
    assert capsys.readouterr().out == ""


def test_fit_curve_row_shorter_than_header_exits_2(tmp_path, capsys):
    curve_path = tmp_path / "short.csv"
    curve_path.write_text("# a comment\ntheta,v,dv\n0.2\n")
    assert main(["fit", "--curve", str(curve_path)]) == 2
    assert "line 3 has 1 cells but its header has 3" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [("0.3,abc,0.01", "v = 'abc' is not a number"),
                                          ("0.3,1e999,0.01", "v = inf is not finite")])
def test_fit_curve_bad_number_names_file_and_line(tmp_path, capsys, row, message):
    curve_path = tmp_path / "bad.csv"
    curve_path.write_text(f"theta,v,dv\n0.2,0.4,0.01\n{row}\n")
    assert main(["fit", "--curve", str(curve_path)]) == 2
    assert capsys.readouterr().err == f"error: curve file {str(curve_path)!r} line 3: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--state", "bell", "--thetas", "0.1,abc"], "number in '0.1,abc' = 'abc' is not a number"),
    (["sweep", "--state", "bell", "--range", "0:abc:0.1"], "range '0:abc:0.1' = 'abc' is not a number"),
])
def test_flag_text_that_is_no_number_is_named(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_config_with_an_unknown_field_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", write_config(tmp_path, {**CONFIG, "acidental_mean": 0.0})]) == 2
    assert capsys.readouterr().err == "error: unknown config field 'acidental_mean'\n"


@pytest.mark.parametrize("field, value", [
    ("counts_per_mode", 350.9), ("seed", 2.7), ("counts_per_mode", True), ("seed", False),
])
def test_simulate_config_rejects_fractional_and_boolean_whole_numbers(tmp_path, capsys,
                                                                      field, value):
    out_path = tmp_path / "run.csv"
    bad = write_config(tmp_path, {**CONFIG, field: value})
    assert main(["simulate", "--config", bad, "-o", str(out_path)]) == 2
    assert f"{field} must be a whole number, got {value!r}" in capsys.readouterr().err
    assert not out_path.exists()
    whole = CONFIG[field]
    assert main(["simulate", "--config", write_config(tmp_path, {**CONFIG, field: float(whole)})]) == 0
    as_float = capsys.readouterr().out
    assert main(["simulate", "--config", write_config(tmp_path, {**CONFIG, field: whole})]) == 0
    assert capsys.readouterr().out == as_float


@pytest.mark.parametrize("field, value", [
    ("lambda", True), ("lambda", "0.9"), ("phase", False), ("phase", "0.2"),
    ("thetas", [0.2, True]), ("thetas", ["0.2", 0.3]),
    ("counts_per_mode", "350"), ("seed", "3"),
    ("accidental_mean", False), ("accidental_mean", "6"),
    ("angle_sigma", True), ("angle_sigma", "0.003"),
])
def test_simulate_config_numbers_must_be_json_numbers(tmp_path, capsys, field, value):
    """Booleans and numeric strings are refused, though float() and int() would take them."""
    if field in ("lambda", "phase"):
        config = {**CONFIG, "state": {**CONFIG["state"], field: value}}
    else:
        config = {**CONFIG, field: value}
    out_path = tmp_path / "run.csv"
    assert main(["simulate", "--config", write_config(tmp_path, config), "-o", str(out_path)]) == 2
    if field in ("counts_per_mode", "seed"):
        expected = f"{field} must be a whole number, got {value!r}"
    else:
        entry = next(t for t in value if not isinstance(t, float)) if field == "thetas" else value
        expected = f"{field} = {entry!r} is not a real number"
    assert expected in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("field", ["counts_per_mode", "seed", "accidental_mean"])
def test_simulate_config_integer_beyond_float_range_exits_2(tmp_path, capsys, field):
    bad = write_config(tmp_path, {**CONFIG, field: 10**400})
    assert main(["simulate", "--config", bad]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("text", [",", " , ", ""])
@pytest.mark.parametrize("template", [
    lambda text: ["sweep", "--state", "bell:phi+", "--thetas", text],
    lambda text: ["reactivity", "--lambdas", text, "--samples", "3", "--seed", "1"],
    lambda text: ["chsh", "--state", "bell", "--angles", text],
])
def test_empty_number_list_exits_2(tmp_path, capsys, template, text):
    assert main(template(text) + ["-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no numbers in {text!r}\n"
    assert os.listdir(tmp_path) == []


def test_reactivity_with_a_negative_seed_exits_2(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    assert main(["reactivity", "--lambdas", "0.2", "--samples", "3", "--seed", "-1", "-o", str(out_path)]) == 2
    assert "seed = -1 must be at least 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", [
    ["--seed", "-1"], ["--counts", "0"], ["--samples", "0"], ["--counts", str(10**20)],
])
def test_failed_reproduce_writes_nothing(tmp_path, capsys, flag):
    outdir = tmp_path / "demo"
    argv = ["reproduce", "--output", str(outdir), "--seed", "3", "--samples", "20"]
    assert main(argv + flag) == 2
    capsys.readouterr()
    assert not outdir.exists()


def test_non_finite_text_output_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteOutputError):
            cli._fmt(bad)
    assert cli._fmt(0.1234567) == "0.123457"

    def degenerate(rho, n_samples, seed):
        return ReactivityResult(1.0, 0.0, float("inf"), n_samples, seed)

    monkeypatch.setattr(cli, "reactivity", degenerate)
    out_path = tmp_path / "f.csv"
    assert main(["reactivity", "--lambdas", "0.2", "--seed", "1", "-o", str(out_path)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert main(["reactivity", "--lambdas", "0.2", "--seed", "1"]) == 3
    assert capsys.readouterr().out == ""


def test_atomic_write_leaves_no_debris(tmp_path):
    target = tmp_path / "sub" / "file.txt"  # parent directory does not exist
    with pytest.raises(OSError):
        _atomic_write(str(target), "data")
    assert os.listdir(tmp_path) == []

    ok = tmp_path / "ok.txt"
    _atomic_write(str(ok), "data")
    assert ok.read_text() == "data"
    assert sorted(os.listdir(tmp_path)) == ["ok.txt"]


def test_output_files_match_stdout(tmp_path, capsys):
    """Every single-output command writes the same bytes to -o as to stdout, in each format."""
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text(expected_counts(modified_werner(0.998, 0.225), 10000).to_csv())
    run_path = tmp_path / "run.csv"
    assert main(["simulate", "--config", write_config(tmp_path), "-o", str(run_path)]) == 0
    with_formats = [
        ["violation", "--state", "bell", "--theta", "0.3"],
        ["sweep", "--state", "bell", "--reference-grid"],
        ["sweep", "--state", "bell", "--range", "0.1:0.5:0.1"],
        ["simulate", "--config", write_config(tmp_path)],
        ["chsh", "--state", "bell", "--optimal"],
        ["chsh", "--counts", str(counts_path), "--optimal"],
        ["reactivity", "--lambdas", "0.2,0.6", "--samples", "40", "--seed", "3"],
    ]
    argvs = [argv + fmt for argv in with_formats for fmt in ([], ["--json"])]
    argvs += [["tomo", "--counts", str(counts_path)], ["fit", "--curve", str(run_path)],
              ["fit", "--curve", str(run_path), "--weighted"]]
    for argv in argvs:
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        path = tmp_path / "out.txt"
        assert main(argv + ["-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == stdout_text, argv
        if argv[-1] == "--json" or argv[0] in ("tomo", "fit"):
            assert json.loads(stdout_text)["format_version"] == 1
        path.unlink()


def test_each_format_formats_only_itself(monkeypatch, capsys):
    """A text run never builds the JSON text and a --json run never the text form,
    so a non-finite result fails with the message of the format asked for."""
    monkeypatch.setattr(cli, "chsh", lambda *args: float("nan"))
    assert main(["chsh", "--state", "bell", "--optimal"]) == 3
    assert "non-finite value in text output" in capsys.readouterr().err
    assert main(["chsh", "--state", "bell", "--optimal", "--json"]) == 3
    assert "non-finite value in JSON output" in capsys.readouterr().err
