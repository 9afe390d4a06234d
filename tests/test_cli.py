import hashlib
import json

import numpy as np
import pytest

from starsis import critical_b, spectral_threshold
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


@pytest.mark.parametrize("command", ["threshold", "iterate", "curves"])
def test_config_null_for_flag_with_a_default_is_validation_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": None, "b": 0.15}))
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "'a'" in err and "null" in err
    assert not out_path.exists()


def test_config_null_leaves_a_flag_without_default_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": None}))
    code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 0
    assert "regime" not in json.loads(out)


def test_threshold_reports_the_spectral_threshold_for_deep_trees(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--a", "0.5", "--branching", "6,10,4",
                           "--b", "0.113")
    payload = json.loads(out)
    assert code == 0
    assert payload["b_crit"] == spectral_threshold(0.5, (6, 10, 4)) > critical_b(0.5, (6, 10, 4))
    assert payload["regime"] == "subcritical"


def test_fixedpoint_just_above_threshold_exits_zero(capsys):
    code, out, err = run_cli(capsys, "fixedpoint", "--a", "0.5", "--b", "0.126",
                             "--branching", "6,10")
    assert code == 0, err
    assert json.loads(out)["agreement"] <= 1e-11


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


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"b": 0.3, "seed": 1.5}),
    ("simulate", {"b": 0.3, "horizon": 5.0}),
    ("regions", {"b": 0.08, "grid-n": 11.7}),
])
def test_config_value_goes_through_flag_type(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


MODEL = ["--a", "0.5", "--branching", "6,10"]

# sha256 of the CSV and, for iterate, the sidecar that `<argv> --out <file>`
# writes, as formatted cell by cell with format(x, ".17g") before the tables
# were streamed as arrays.
CSV_SHA256 = [
    (["iterate", *MODEL, "--b", "0.08"],
     ("3ad21e17289916d3494d6814bbc0e58ec35e704abf2bc31cf61ffe20f5556116",
      "09a2e8bc7fa145455b2a3df46b3d6a3a2af55aceb678af6e19ae418ce89be3c9")),
    (["iterate", *MODEL, "--b", "0.15"],
     ("4d8d21c49a5da8c112093d560ddb0863f735cbcda656ff74204fdfbd4b0e691b",
      "70a87d46725c39dbc16b32085fff01374755ba3125fc383214417b4c49cb9fb5")),
    (["iterate", *MODEL, "--b", "0.15", "--max-iter", "3"],
     ("8084eb4705a9f49dd80dcdc4c5fcb77f674171504ad1b8f9cb5cb3d6f54d8cd5",
      "904eb2a0e14b5edd9bc8ac41ac3900b0ee6fffe36c2c79a5d1557d7f2ae8835e")),
    (["iterate", *MODEL, "--b", "0.15", "--d0", "0,0,0"],
     ("3c84f1a2fce759e7f0617d71e8a1d9006121eb58a572999b354835e427c4f204",
      "5187ec5358ceb5e46439433753327aa0c8757a905ed5eccd6ba4646252edf29b")),
    (["curves"],
     ("4425059ca91ae4d66acc0a80e8d2a7a50514857c545f6ff9e9f1a47d68db804c",)),
    (["regions", *MODEL, "--b", "0.08"],
     ("08aba16630072f50a92b4d2cd81e57f81cdedd3c644a48823b77d80c073ab24b",)),
    (["regions", *MODEL, "--b", "0.08", "--z", "0.25", "--grid-n", "21"],
     ("fa3243bdb84e159989d2b2836f6e45982ededdb7f61b44317aed14dc099d9d8e",)),
]


@pytest.mark.parametrize("argv, want", CSV_SHA256, ids=[" ".join(a) for a, _ in CSV_SHA256])
def test_csv_bytes_pinned(tmp_path, argv, want):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    paths = (out, tmp_path / "out.csv.json")[:len(want)]
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == want
