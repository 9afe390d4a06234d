import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import starsis.verify
from starsis import ModelParams, critical_b, make_topology, spectral_threshold
from starsis.cli import _emit_table, main
from starsis.verify import _slopes_match


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
    assert payload["trivial_point"] == [0.0, 0.0, 0.0]
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
    # At b = 0.158 the tail slope is near 0, where a relative test alone failed.
    # At (6,10) b = 0.9 and (20,20) b = 0.6 the tail composition is flat to
    # within 1e-12 in its second differences, which the concave check accepts.
    for a, b, branching in (("0.5", "0.15", "6,10"), ("0.5", "0.158", "6,10"),
                            ("0.5", "0.9", "6,10"), ("0.3", "0.6", "20,20")):
        code, out, _ = run_cli(capsys, "verify", "--a", a, "--b", b, "--branching", branching)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"], payload["checks"]


def test_verify_accepts_by_the_error_bound_where_the_curve_check_misses(capsys):
    # the curve route reads agreement 1.0e-2 here; the error bound is about 1e-14
    code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.9",
                           "--branching", "6,10,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"], payload["checks"]
    # Region I is T(d) < d at any k, so its check runs on 4 levels too.
    assert payload["checks"]["region_one_closed_under_map"] is True


def closed_form_off_by(monkeypatch, field, rel):
    """Make verify see one closed-form slope off by rel, relative."""
    real = starsis.verify.slopes_at_zero

    def off(params, topo):
        report = real(params, topo)
        return dataclasses.replace(report, **{field: getattr(report, field) * (1.0 + rel)})

    monkeypatch.setattr(starsis.verify, "slopes_at_zero", off)


def test_verify_negative_control_slope_tol(monkeypatch, capsys):
    # Either closed form off by 1e-4 relative fails the check at the default tolerance.
    for field in ("hub_slope", "tail_slope"):
        with monkeypatch.context() as patch:
            closed_form_off_by(patch, field, 1e-4)
            code, out, _ = run_cli(capsys, "verify", "--a", "0.5", "--b", "0.15",
                                   "--branching", "6,10")
        assert code == 0
        assert not json.loads(out)["checks"]["slope_formulas_match_finite_differences"]


def test_slope_check_holds_where_the_tail_slope_crosses_zero(monkeypatch):
    # a = 0.5 on (6,10): the tail slope is 0 at b = 0.1581, and a relative
    # test alone failed at 22 of these b.  A closed form off by 1e-4 fails at each.
    topo = make_topology((6, 10))
    bs = np.arange(1260, 2501) / 1e4
    assert all(_slopes_match(ModelParams(0.5, b), topo) for b in bs)
    closed_form_off_by(monkeypatch, "tail_slope", 1e-4)
    assert not any(_slopes_match(ModelParams(0.5, b), topo) for b in bs)


def test_slope_check_judges_by_the_reported_error_bounds(monkeypatch):
    # At b = 0.1581 the tail slope is about 6e-4, so the relative tolerance
    # allows almost nothing and the estimate's own error bound carries the
    # check; with both bounds zeroed the check fails there.
    real = starsis.verify.slopes_at_zero

    def no_bounds(params, topo):
        return dataclasses.replace(real(params, topo), hub_slope_fd_error=0.0,
                                   tail_slope_fd_error=0.0)

    params, topo = ModelParams(0.5, 0.1581), make_topology((6, 10))
    assert _slopes_match(params, topo)
    monkeypatch.setattr(starsis.verify, "slopes_at_zero", no_bounds)
    assert not _slopes_match(params, topo)


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


@pytest.mark.parametrize("config", [{"nonsense": 1}, [1, 2], "x"],
                         ids=["unknown_key", "list", "string"])
def test_unknown_config_key_is_validation_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
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


@pytest.mark.parametrize("argv, named", [
    (["threshold", "--branching", "6,x"], "6,x"),
    (["fixedpoint", "--a", "0.5", "--branching", "6,10"], "--b"),
])
def test_bad_branching_or_missing_b_is_validation_error(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err and named in err


def test_config_key_the_command_does_not_take_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5, "horizon": 5}))
    code, out, err = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "horizon" in err


def test_fixedpoint_takes_no_tol(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.15, "tol": 1e-9}))
    code, out, err = run_cli(capsys, "fixedpoint", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "tol" in err
    with pytest.raises(SystemExit) as exc:
        main(["fixedpoint", "--b", "0.15", "--tol", "1e-9"])
    assert exc.value.code == 2


def test_verify_takes_no_slope_tol(tmp_path, capsys):
    # The slope tolerance is a fixed 1e-6; neither a flag nor a config key sets it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.15, "slope-tol": 1e-3}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "slope-tol" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--b", "0.15", "--slope-tol", "1e-3"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("a, b, branching", [("0.5", "0.999", "6,10"), ("0.1", "0.9", "2,50")])
def test_fixedpoint_exits_zero_where_the_curve_check_misses(capsys, a, b, branching):
    # A level rounds to 1 here and the tail-curve root lands far off; the
    # error bound accepts Newton's point, which equals the mpmath oracle.
    code, out, err = run_cli(capsys, "fixedpoint", "--a", a, "--b", b, "--branching", branching)
    assert code == 0, err
    payload = json.loads(out)
    point, bound = np.array(payload["nontrivial_point"]), np.array(payload["error_bound"])
    assert np.max(bound / point) <= 1e-13


def test_fixedpoint_prints_null_where_the_curve_route_finds_no_root(capsys):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    code, out, err = run_cli(capsys, "fixedpoint", "--a", "0.5", "--b", "0.6",
                             "--branching", "24,44,40,28")
    assert code == 0, err
    payload = json.loads(out, parse_constant=reject)
    assert payload["agreement"] is None and payload["curve_root_residual"] is None
    assert len(payload["error_bound"]) == 5


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

# sha256 of the CSV and, for iterate and simulate, the sidecar that
# `<argv> --out <file>` writes, as formatted cell by cell with format(x, ".17g")
# before the tables were streamed as arrays (simulate: before each distinct
# value was formatted once per block).
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
    (["simulate", *MODEL, "--b", "0.3", "--horizon", "50", "--trials", "5", "--seed", "11"],
     ("86613ecf902f0a7994d61834c00c85a0febc9d08d0a48f5854c23a054523101f",
      "e8c467fe01449d0f0e62abb0995d37f9565ea49fdb732b38d66494b17e6ac48d")),
]


# The curves table takes numpy array powers, whose last bits follow numpy's
# power dispatch: its AVX-512 loop differs from libm's pow on a few percent of
# inputs, and without AVX-512 numpy calls libm.  The digest above is the
# AVX-512 one; this is the libm one.  Both were taken with numpy 2.4.6.
CURVES_SHA256_LIBM_POWER = "984e6caea1b3a112510a0659af17b6774cc6eb1f60f66a1ad7c307401bda6f2c"


def array_power_is_libm_pow():
    x = np.linspace(0.01, 0.99, 1001)
    return np.array_equal(x ** 10, [float(v) ** 10 for v in x])


@pytest.mark.parametrize("argv, want", CSV_SHA256, ids=[" ".join(a) for a, _ in CSV_SHA256])
def test_csv_bytes_pinned(tmp_path, argv, want):
    if argv == ["curves"] and array_power_is_libm_pow():
        want = (CURVES_SHA256_LIBM_POWER,)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    paths = (out, tmp_path / "out.csv.json")[:len(want)]
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == want


def cell_by_cell(header, table):
    return header + "\n" + "".join(",".join(format(x, ".17g") for x in row) + "\n"
                                   for row in table.tolist())


def emit_tables():
    rng = np.random.default_rng(3)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    subnormal = np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310])
    big = np.array([2.0**53, 2.0**53 + 2, -2.0**53, 2.0**63, 1e22, np.finfo(float).max])
    # one value in the last row of the first block and the first of the second
    straddle = rng.random((2049, 3))
    straddle[1023:1025] = 0.1
    mixed = rng.choice(np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1.0, 7.0], nans,
                                       subnormal, big]), size=(2049, 4))
    return {
        "signed_zeros": np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]),
        "nan_payloads": nans.reshape(2, 2),
        "infinities": np.array([[np.inf, -np.inf, 1.0]]),
        "subnormals": subnormal.reshape(1, -1),
        "integral_beyond_2_53": big.reshape(3, 2),
        "straddle_block_boundary": straddle,
        "mixed_2049_rows": mixed,
        "no_rows": np.empty((0, 3)),
        "one_column": rng.integers(0, 5, size=(1500, 1)).astype(float) / 4,
    }


@pytest.mark.parametrize("name", sorted(emit_tables()))
def test_emit_table_bytes_equal_cell_by_cell_format(tmp_path, capsys, name):
    table = emit_tables()[name]
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    _emit_table(header, table, None)
    assert capsys.readouterr().out == cell_by_cell(header, table)
    out = tmp_path / "t.csv"
    _emit_table(header, table, str(out))
    assert out.read_bytes() == cell_by_cell(header, table).encode()


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.3}))
    code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 0 and json.loads(out)["a"] == 0.3
    code, out, _ = run_cli(capsys, "threshold")
    assert code == 0 and json.loads(out)["a"] == 0.5


def test_usage_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--horizon", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "threshold", "--b", "0.15")
    assert code == 0 and json.loads(out)["regime"] == "supercritical"


def test_main_builds_no_parser_after_the_first_call(tmp_path, capsys, monkeypatch):
    run_cli(capsys, "threshold")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["threshold"], ["threshold", "--b", "0.1"], ["regions", "--b", "0.08",
                                                               "--z", "0.5", "--grid-n", "3"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.1}))
    assert run_cli(capsys, "threshold", "--config", str(cfg))[0] == 0
    assert built == []  # a --config call parses again on the same parser
