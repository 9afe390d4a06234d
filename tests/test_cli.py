import json

import numpy as np
import pytest

from starsis.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_defaults_and_b(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--a", "0.5", "--branching", "6,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["b_crit"] == pytest.approx(0.125, abs=1e-15)

    code, out, _ = run_cli(capsys, "threshold", "--a", "0.5", "--branching", "6,10", "--b", "0.15")
    payload = json.loads(out)
    assert payload["regime"] == "supercritical"


def test_threshold_exact_tie_is_critical(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--a", "0.5", "--branching", "6,10", "--b", "0.125")
    assert json.loads(out)["regime"] == "critical"


def test_threshold_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "threshold", "--a", "1.5", "--branching", "6,10", "--b", "0.1")
    assert code == 2
    assert "error" in err


def test_iterate_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "iterate", "--a", "0.5", "--b", "0.08",
                         "--branching", "6,10", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,d1,d2,d3,residual"
    last = [float(v) for v in lines[-1].split(",")]
    assert max(last[1:4]) < 1e-10  # subcritical decay
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["status"] == "converged"


def test_iterate_from_zero_single_row(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "iterate", "--a", "0.5", "--b", "0.15",
                         "--branching", "6,10", "--d0", "0,0,0", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + the fixed start
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["iterations"] == 0


def test_fixedpoint_json(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "--a", "0.5", "--b", "0.15",
                           "--branching", "6,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "supercritical"
    assert payload["agreement"] <= 1e-11
    point = payload["nontrivial_point"]
    assert all(0 < v < 1 for v in point)


def test_fixedpoint_matches_iterate_limit(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    run_cli(capsys, "iterate", "--a", "0.5", "--b", "0.15", "--branching", "6,10",
            "--out", str(out))
    limit = json.loads((tmp_path / "traj.csv.json").read_text())["limit"]
    code, fp_out, _ = run_cli(capsys, "fixedpoint", "--a", "0.5", "--b", "0.15",
                              "--branching", "6,10")
    point = json.loads(fp_out)["nontrivial_point"]
    assert np.max(np.abs(np.array(limit) - np.array(point))) < 1e-8


def test_curves_default_reproduces_three_panels(capsys):
    code, out, _ = run_cli(capsys, "curves", "--grid-n", "2000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,t,d1_hub_curve,d1_tail_curve,d2"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for b, want in [(0.08, 0), (0.125, 0), (0.15, 1)]:
        sel = rows[np.isclose(rows[:, 0], b)]
        diff = sel[:, 3] - sel[:, 2]
        signs = np.sign(diff)
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert flips == want, f"b={b}"


def test_regions_csv(capsys):
    code, out, _ = run_cli(capsys, "regions", "--a", "0.5", "--b", "0.08",
                           "--branching", "6,10", "--z", "0.25", "--grid-n", "21")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,x,y,inside"
    inside = [line for line in lines[1:] if line.endswith(",1")]
    assert len(lines) - 1 == 21 * 21
    assert len(inside) > 0


def test_regions_grid_two_still_well_formed(capsys):
    code, out, _ = run_cli(capsys, "regions", "--a", "0.5", "--b", "0.08",
                           "--branching", "6,10", "--z", "0.25", "--grid-n", "2")
    assert code == 0
    assert len(out.splitlines()) == 1 + 4


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--a", "0.5", "--b", "0.3", "--branching", "6,10",
            "--horizon", "30", "--trials", "3", "--seed", "11"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_text() == out2.read_text()
    assert (tmp_path / "s1.csv.json").read_text() == (tmp_path / "s2.csv.json").read_text()


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.15",
                           "--branching", "6,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"], payload["checks"]


def test_verify_negative_control_slope_tol(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.15",
                           "--branching", "6,10", "--slope-tol", "1e-15")
    assert code == 0
    payload = json.loads(out)
    assert not payload["checks"]["slope_formulas_match_finite_differences"]


def test_verify_exact_threshold_tie(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.125",
                           "--branching", "6,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"], payload["checks"]


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5, "b": 0.15, "branching": "6,10"}))
    code, out, _ = run_cli(capsys, "fixedpoint", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["regime"] == "supercritical"


def test_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5, "b": 0.08, "branching": "6,10"}))
    code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg), "--b", "0.15")
    assert json.loads(out)["regime"] == "supercritical"


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code, _, _ = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 2


COMMANDS = ("threshold", "iterate", "fixedpoint", "curves", "regions", "simulate", "verify")


def test_threshold_rejects_flags_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--a", "0.5", "--branching", "6,10", "--horizon", "5"])
    assert exc.value.code == 2
    assert "--horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_format_flag_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--b", "0.15", "--format", "csv"])
    assert exc.value.code == 2


def test_config_key_the_command_does_not_take_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5, "horizon": 5}))
    code, out, err = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "horizon" in err


def test_config_supplies_slope_tol(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"slope-tol": 1e-15}))
    code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.15",
                           "--branching", "6,10", "--config", str(cfg))
    assert code == 0
    assert not json.loads(out)["checks"]["slope_formulas_match_finite_differences"]


def test_iterate_nan_start_is_validation_error(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(capsys, "iterate", "--a", "0.5", "--b", "0.15", "--branching", "6,10",
                           "--d0", "nan,0.5,0.5", "--out", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


def test_output_round_trips_at_17_digits(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--a", "0.7", "--branching", "7,9")
    payload = json.loads(out)
    assert payload["b_crit"] == (1.0 - 0.7) / np.sqrt(16)
