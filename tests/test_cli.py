import json
from pathlib import Path

import pytest

from eigenlasso import cli


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("EIGENLASSO_OUT", raising=False)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(tmp_path, prefix):
    return json.loads((tmp_path / f"{prefix}_report.json").read_text())


HALFTURN_LOOP = {"kind": "halfturn", "base": {"kind": "diag", "values": [1.0, 2.0]}}
UNIT_WINDOW = {"lower": 0.5, "upper": 1.5, "count": 1}


def test_holonomy_run_reports_flipped_sign(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "loop": HALFTURN_LOOP,
        "window": UNIT_WINDOW,
        "expectations": {"sign_eq": -1, "abs_det_ge": 0.9},
    })
    code = cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "holonomy")
    assert report["results"]["sign"] == -1
    assert report["observed"]["matches_prediction"] is True
    assert report["passed"] is True
    frames = (tmp_path / "holonomy_frames.csv").read_text().splitlines()
    assert frames[0] == "t,f00,f10"
    assert len(frames) >= 18
    out = capsys.readouterr().out
    assert "[ok] sign_eq" in out


def test_holonomy_expectation_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "loop": HALFTURN_LOOP,
        "window": UNIT_WINDOW,
        "expectations": {"sign_eq": 1},
    })
    code = cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert read_report(tmp_path, "holonomy")["passed"] is False
    assert "[FAILED] sign_eq" in capsys.readouterr().out


def test_malformed_window_exits_1_and_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "loop": HALFTURN_LOOP,
        "window": {"lower": 2.0, "upper": 1.0, "count": 1},
    })
    code = cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "window" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = cli.main(["holonomy", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_spectrum_circle_csv_and_expectations(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"kind": "circle", "n_max": 8, "delta": 0.5},
        "expectations": {"max_deviation_le": 1e-10, "n_values_eq": 16},
    })
    code = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "spectrum_spectrum.csv").read_text().splitlines()
    assert lines[0] == "j,t,lambda"
    assert len(lines) == 17
    report = read_report(tmp_path, "spectrum")
    assert report["observed"]["max_deviation"] <= 1e-10


def test_track_writes_per_branch_rows(tmp_path):
    cfg = write_config(tmp_path, {
        "loop": HALFTURN_LOOP,
        "grid": {"samples": 8},
        "expectations": {"weyl_defect_le": 1e-10, "max_drift_le": 1e-10},
    })
    code = cli.main(["track", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "track_track.csv").read_text().splitlines()
    assert lines[0] == "j,t,lambda"
    assert len(lines) == 1 + 9 * 2


def test_properties_circle(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"kind": "circle", "n_max": 16, "delta": 0.0},
        "expectations": {"symmetry_ok_eq": True},
    })
    code = cli.main(["properties", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "properties")
    assert 0.8 <= report["observed"]["counting_exponent"] <= 1.2


def test_lasso_scan_certifies_the_cone(tmp_path):
    cfg = write_config(tmp_path, {
        "disc": {"boundary": {"kind": "conical"}, "center": {
            "kind": "matrix", "entries": [[0.0, 0.0], [0.0, 0.0]]}},
        "window": {"lower": 0.0, "upper": 2.0, "count": 1},
        "grid": {"n_r": 8, "n_theta": 12},
        "tolerances": {"refine": 1e-10},
        "expectations": {"certificate_eq": True, "gap_le": 1e-10,
                         "boundary_sign_eq": -1},
    })
    code = cli.main(["lasso-scan", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "lasso_scan_gapmap.csv").read_text().splitlines()
    assert lines[0] == "r,theta,min_gap"
    assert len(lines) == 1 + 8 * 12
    report = read_report(tmp_path, "lasso_scan")
    assert report["results"]["certificate"]["gap"] <= 1e-10


def test_lasso_scan_negative_control_records_floor_and_warning(tmp_path):
    cfg = write_config(tmp_path, {
        "disc": {"boundary": {"kind": "commuting", "amplitude": 0.3},
                 "center": "mean"},
        "window": {"lower": 0.5, "upper": 1.5, "count": 1},
        "grid": {"n_r": 8, "n_theta": 12},
        "expectations": {"certificate_eq": False, "best_gap_ge": 1e-3},
    })
    code = cli.main(["lasso-scan", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "lasso_scan")
    assert report["observed"]["boundary_sign"] == 1
    assert report["warnings"]


def test_unknown_expectation_metric_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "loop": HALFTURN_LOOP,
        "window": UNIT_WINDOW,
        "expectations": {"flux_eq": 1},
    })
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "flux_eq" in capsys.readouterr().err


def test_seed_required_for_random_base(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "loop": {"kind": "spin", "m": 7,
                 "base": {"kind": "odd_base", "cluster_values": [3.5] * 8,
                          "epsilon": 0.1}},
        "window": {"lower": 3.41, "upper": 3.47, "count": 3},
    })
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_seed_flag_satisfies_random_base(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"kind": "odd_base", "cluster_values": [1.0, 2.0, 3.0],
                  "epsilon": 0.0},
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "9"]) == 0
    report = read_report(tmp_path, "spectrum")
    assert report["environment"]["seed_override"] == 9


def test_experiment_name_mismatch_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "track",
        "loop": HALFTURN_LOOP,
        "window": UNIT_WINDOW,
    })
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "experiment" in capsys.readouterr().err


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def test_reports_are_deterministic(tmp_path):
    assert SHIPPED_CONFIGS
    for config in SHIPPED_CONFIGS:
        command = json.loads(config.read_text())["experiment"]
        # several configs share a report prefix, so each gets its own directory
        out = tmp_path / config.stem
        reports = []
        for _ in range(2):
            code = cli.main([command, "--config", str(config), "--out", str(out)])
            assert code == 0, config.name
            (report_path,) = out.glob("*_report.json")
            report = json.loads(report_path.read_text())
            report.pop("environment")
            reports.append(report)
        assert reports[0] == reports[1], config.name


def test_reproduce_all_single_criterion(tmp_path, capsys):
    code = cli.main(["reproduce-all", "--criteria", "10", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1/1 criteria passed" in out
    summary = json.loads((tmp_path / "reproduce_all.json").read_text())
    assert summary["passed"] is True


def test_reproduce_all_detects_tampered_budget(tmp_path, capsys):
    # an impossible time budget must surface as a failed row, not a pass
    code = cli.main(["reproduce-all", "--criteria", "2",
                     "--overrides", '{"circle_budget_s": 1e-9}',
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out
    summary = json.loads((tmp_path / "reproduce_all.json").read_text())
    assert summary["passed"] is False


def test_reproduce_all_rejects_unknown_override(tmp_path, capsys):
    code = cli.main(["reproduce-all", "--criteria", "10",
                     "--overrides", '{"no_such_pin": 1.0}',
                     "--out", str(tmp_path)])
    assert code == 1
    assert "no_such_pin" in capsys.readouterr().err
