import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eigenlasso import cli
from eigenlasso.acceptance import make_conical_boundary
from eigenlasso.lasso import answer, make_orbit_disc
from eigenlasso.spectral import SpectralWindow


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
    assert report["results"]["certified"] is True
    assert report["observed"]["matches_prediction"] is True
    assert report["passed"] is True
    frames = (tmp_path / "holonomy_frames.csv").read_text().splitlines()
    assert frames[0] == "t,f00,f10"
    assert len(frames) >= 18
    out = capsys.readouterr().out
    assert "[ok] sign_eq" in out


def test_holonomy_run_without_a_speed_bound_is_not_certified(tmp_path):
    # the commuting loop is the one loop kind with no rotation generator
    cfg = write_config(tmp_path, {"loop": {"kind": "commuting"},
                                  "window": {"lower": 0.5, "upper": 1.5}})
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "holonomy")["results"]["certified"] is False


def test_the_cone_is_the_halfturn_loop_of_a_reflection(tmp_path):
    # as the half-turn loop of diag(1, -1), the cone is certified, odd, and has a center route
    cone = make_conical_boundary()
    assert cone.equivariant is not None and cone.parity == "odd"
    cfg = write_config(tmp_path, {"loop": {"kind": "conical"},
                                  "window": {"lower": -2.0, "upper": 0.0}})
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "holonomy")
    assert report["results"]["certified"] is True
    assert report["results"]["predicted_sign"] == -1
    assert report["observed"]["matches_prediction"] is True
    for c in (0.0, 0.3, -0.41):
        disc = make_orbit_disc(cone, center=c * np.eye(2))
        cert = answer(disc, SpectralWindow(0.0, 2.0, 1), (16, 24), tol=1e-10).certificate
        assert (cert.method, cert.levels, cert.evaluations) == ("center", 0, 1)
        assert cert.r == 0.0 and cert.gap == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_holonomy_over_entries_near_1e200_is_certified(tmp_path):
    # the residual entries are near 1e184, whose squares overflow: the
    # checks take their norms after dividing by the spectrum's scale
    cfg = write_config(tmp_path, {
        "loop": {"kind": "halfturn", "base": {"kind": "matrix",
                                              "entries": [[1e200, 3e199], [3e199, 2e200]]}},
        "window": {"lower": 5e199, "upper": 1.5e200, "count": 1},
    })
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 0
    results = read_report(tmp_path, "holonomy")["results"]
    assert (results["sign"], results["certified"], results["predicted_sign"]) == (-1, True, -1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_of_entries_near_1e200(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"kind": "matrix", "entries": [[1e200, 1e200], [1e200, -1e200]]}})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    values = read_report(tmp_path, "spectrum")["results"]["values"]
    np.testing.assert_allclose(values, [-np.sqrt(2.0) * 1e200, np.sqrt(2.0) * 1e200], rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_eigenvalue_past_the_float_limit_names_the_field(tmp_path, capsys):
    # the entries are finite, but the eigenvalue 2e308 is not
    overflowing = {"kind": "matrix", "entries": [[1e308, 1e308], [1e308, 1e308]]}
    cfg = write_config(tmp_path, {"model": overflowing})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: model: non-finite eigenvalue 1 (inf)\n"
    # the loop's samples stay finite, but the eigenvalue 3.2e308 is not
    overflowing = {"kind": "matrix", "entries": [[8e307] * 4] * 4}
    cfg = write_config(tmp_path, {"loop": {"kind": "halfturn", "base": overflowing},
                                  "window": UNIT_WINDOW})
    assert cli.main(["holonomy", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: TransportError: at t=0: non-finite eigenvalue 3 (inf)\n")


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


CONFIGS = Path(__file__).parent.parent / "configs"


def shipped(name, **changes):
    cfg = json.loads((CONFIGS / name).read_text())
    cfg.update(changes)
    return cfg


def negative_control_with_removed_fields():
    cfg = shipped("lasso_negative_control.json", refine=False, check_boundary_sign=False)
    cfg["disc"]["n_average"] = 8
    return cfg


OVERFLOWING_LOOP = {"kind": "halfturn",
                    "base": {"kind": "matrix", "entries": [[1e308, 1e308], [1e308, 1e308]]}}
SPIN_THREE_TURNS = {"kind": "spin", "m": 7, "turns": 3,
                    "base": {"kind": "odd_base", "cluster_values": [3.5] * 8,
                             "epsilon": 0.1, "seed": 1}}


# each names the field at fault; at the parent each one exited 0, named
# another field or none, or failed with a bare Python error
BAD_CONFIGS = {
    "window-bounds": (
        "holonomy", {"loop": HALFTURN_LOOP, "window": {"lower": 2.0, "upper": 1.0}},
        "window: window needs lower < upper"),
    "removed-fields": (
        "lasso-scan", negative_control_with_removed_fields(), "refine: unknown field"),
    "grid-string": (
        "lasso-scan", shipped("lasso_conical.json", grid={"n_r": "16", "n_theta": 24}),
        "grid.n_r: expected int, got string"),
    "count-bool": (
        "holonomy", {"loop": HALFTURN_LOOP, "window": {**UNIT_WINDOW, "count": True}},
        "window.count: expected int, got bool"),
    "spin-turns": (
        "holonomy", {"loop": SPIN_THREE_TURNS, "window": UNIT_WINDOW},
        "loop: turns must be 1 (odd loop) or 2 (even loop)"),
    "empty-clusters": (
        "spectrum",
        {"model": {"kind": "odd_base", "cluster_values": [], "epsilon": 0.1, "seed": 1}},
        "model: cluster_values must be nonempty"),
    "circle-delta": (
        "properties", {"model": {"kind": "circle", "n_max": 8, "delta": 0.3}},
        "model: delta must be 0 or 0.5"),
    "expectation-string": (
        "lasso-scan", shipped("lasso_conical.json", expectations={"gap_le": "x"}),
        "expectations.gap_le: expected number, got string"),
    "output-string": (
        "holonomy", shipped("holonomy_halfturn.json", output="x"),
        "output: expected object, got string"),
    "grid-no-radii": (
        "lasso-scan", shipped("lasso_conical.json", grid={"n_r": 0, "n_theta": 24}),
        "grid: need n_r >= 2 and n_theta >= 3"),
    # one ring starts Newton at r = 1, where it refused 240 of 300 forced discs
    "grid-one-ring": (
        "lasso-scan", shipped("lasso_conical.json", grid={"n_r": 1, "n_theta": 24}),
        "grid: need n_r >= 2 and n_theta >= 3, got n_r=1, n_theta=24"),
    "grid-two-angles": (
        "lasso-scan", shipped("lasso_conical.json", grid={"n_r": 16, "n_theta": 2}),
        "grid: need n_r >= 2 and n_theta >= 3"),
    "center-base": (
        "lasso-scan", shipped("lasso_halfturn.json", disc={"boundary": HALFTURN_LOOP,
                                                          "center": "base"}),
        "disc: unknown center mode 'base'"),
    "refine-zero": (
        "lasso-scan", shipped("lasso_conical.json", tolerances={"refine": 0.0}),
        "tolerances.refine: must be finite and positive, got 0.0"),
    # json reads Infinity and NaN; an infinite tol certified a gap of 0.125
    "refine-infinite": (
        "lasso-scan", shipped("lasso_conical.json", tolerances={"refine": float("inf")}),
        "tolerances.refine: must be finite, got inf"),
    "refine-nan": (
        "lasso-scan", shipped("lasso_conical.json", tolerances={"refine": float("nan")}),
        "tolerances.refine: must be finite, got nan"),
    # an infinite amplitude reached the disc's mean as NaN: "SVD did not converge"
    "amplitude-infinite": (
        "lasso-scan", shipped("lasso_negative_control.json",
                              disc={"boundary": {"kind": "commuting", "amplitude": float("inf")}}),
        "disc.boundary.amplitude: must be finite, got inf"),
    "window-lower-nan": (
        "holonomy", {"loop": HALFTURN_LOOP, "window": {**UNIT_WINDOW, "lower": float("nan")}},
        "window.lower: must be finite, got nan"),
    # an integer beyond the float range used to exit with a bare OverflowError
    "window-upper-huge": (
        "holonomy", {"loop": HALFTURN_LOOP, "window": {**UNIT_WINDOW, "upper": 10 ** 400}},
        "window.upper: must be finite, got inf"),
    "window-misses-basepoint": (
        "lasso-scan", shipped("lasso_conical.json", window={"lower": 1.5, "upper": 2.5}),
        "window: at the boundary basepoint: window holds 0 eigenvalues, expected 1"),
    # the loop's samples reach 2e308: under RuntimeWarning errors both exited 1 with
    # "error: RuntimeWarning: overflow encountered in add", and the track exited 0
    # with max_drift NaN without them
    "track-samples-past-the-float-limit": (
        "track", {"loop": OVERFLOWING_LOOP, "grid": {"samples": 16}},
        "loop: base has entries up to 1.000e+308, with which the loop's samples could "
        "pass the float limit"),
    "disc-samples-past-the-float-limit": (
        "lasso-scan", {"disc": {"boundary": OVERFLOWING_LOOP}, "window": UNIT_WINDOW},
        "disc.boundary: base has entries up to 1.000e+308"),
    # used to exit with a bare "RuntimeError: no simple spectrum after 10 draws"
    "odd-base-no-simple-spectrum": (
        "spectrum",
        {"model": {"kind": "odd_base", "cluster_values": [1.0, 1.0], "epsilon": 1e-300,
                   "seed": 1}},
        "model: no simple spectrum after 10 draws"),
}


@pytest.mark.parametrize("command, payload, expected", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS)
def test_malformed_window_exits_1_and_names_the_field(tmp_path, capsys, command, payload,
                                                      expected):
    cfg = write_config(tmp_path, payload)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {expected}")


# refused after the config check passed, before any artifact is written
REFUSED_RUNS = {
    "window-misses-basepoint": (
        "lasso-scan", shipped("lasso_conical.json", window={"lower": 1.5, "upper": 2.5}),
        "config error: window: "),
    "transport-error": (
        "holonomy", shipped("holonomy_halfturn.json", window={"lower": 100, "upper": 101}),
        "error: TransportError: "),
}


@pytest.mark.parametrize("command, payload, expected", REFUSED_RUNS.values(),
                         ids=REFUSED_RUNS)
def test_refused_run_creates_no_output_directory(tmp_path, capsys, command, payload,
                                                 expected):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(expected)
    assert not out.exists()
    # an --out directory that already exists is left in place
    out.mkdir()
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert out.is_dir() and not any(out.iterdir())


# a scan stacks a ring of n_theta operators at once and factors every grid
# point; beyond the caps these are refused before the scan allocates anything
OVERSIZED_GRIDS = {
    "points": (
        shipped("lasso_conical.json", grid={"n_r": 10 ** 9, "n_theta": 24}),
        "config error: grid: n_r * n_theta = 24000000000 points, more than 65536\n"),
    "ring": (
        shipped("lasso_conical.json", grid={"n_r": 2, "n_theta": 4096}, disc={
            "boundary": {"kind": "halfturn",
                         "base": {"kind": "diag", "values": list(range(1, 65))}}}),
        "config error: grid: a ring of 4096 operators of dimension 64 takes 134217728 "
        "bytes, more than 67108864\n"),
}


@pytest.mark.parametrize("payload, expected", OVERSIZED_GRIDS.values(), ids=OVERSIZED_GRIDS)
def test_oversized_scan_grid_is_refused_before_the_scan(tmp_path, capsys, monkeypatch,
                                                        payload, expected):
    monkeypatch.setattr(cli, "answer", lambda *args, **kwargs: pytest.fail("the scan ran"))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["lasso-scan", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


# a track factors each of its samples + 1 grid points, and a circle model is
# one dense (2 n_max + 1)-square matrix factored whole; beyond the caps these
# are refused before the grid or the model is built
OVERSIZED_RUNS = {
    "track-samples": (
        "track", {"loop": HALFTURN_LOOP, "grid": {"samples": 10 ** 20}},
        "config error: grid: 100000000000000000000 samples, more than 65536\n"),
    "track-samples-past-the-cap": (
        "track", {"loop": HALFTURN_LOOP, "grid": {"samples": 65537}},
        "config error: grid: 65537 samples, more than 65536\n"),
    "spectrum-n-max": (
        "spectrum", {"model": {"kind": "circle", "n_max": 10 ** 20, "delta": 0.5}},
        "config error: model: n_max = 100000000000000000000, more than 1024\n"),
    "properties-n-max-past-the-cap": (
        "properties", {"model": {"kind": "circle", "n_max": 1025, "delta": 0.0}},
        "config error: model: n_max = 1025, more than 1024\n"),
}


@pytest.mark.parametrize("command, payload, expected", OVERSIZED_RUNS.values(),
                         ids=OVERSIZED_RUNS)
def test_oversized_track_grid_or_circle_model_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch, command, payload, expected):
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("grid built"))
    monkeypatch.setattr(cli, "make_circle_dirac",
                        lambda *args, **kwargs: pytest.fail("model built"))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_largest_track_grid_and_circle_model_pass_the_config_check(monkeypatch):
    monkeypatch.setattr(cli, "make_circle_dirac", lambda n_max, delta: (n_max, delta))
    assert len(cli._track_grid(65536)) == 65537
    assert cli._CIRCLE.build(n_max=1024, delta=0.5) == (1024, 0.5)


# an operator written out in a config has at most 2049 rows, the circle
# model's own bound: past it the run is refused before any n x n array exists
OVERSIZED_OPERATORS = {
    "diag": ("holonomy", {"loop": {"kind": "halfturn",
                                   "base": {"kind": "diag", "values": [1.0] * 100_000}},
                          "window": UNIT_WINDOW},
             "config error: loop.base: an operator of dimension 100000, more than 2049\n"),
    "matrix": ("spectrum", {"model": {"kind": "matrix", "entries": [[0.0]] * 2050}},
               "config error: model: an operator of dimension 2050, more than 2049\n"),
    "odd-base": ("track", {"loop": {"kind": "fullturn",
                                    "base": {"kind": "odd_base", "cluster_values": [1.0] * 2050,
                                             "epsilon": 0.1, "seed": 1}},
                           "grid": {"samples": 8}},
                 "config error: loop.base: an operator of dimension 2050, more than 2049\n"),
}


@pytest.mark.parametrize("command, payload, expected", OVERSIZED_OPERATORS.values(),
                         ids=OVERSIZED_OPERATORS)
def test_oversized_operator_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                          command, payload, expected):
    for name in ("diag", "asarray", "array"):
        monkeypatch.setattr(cli.np, name, lambda *args, **kwargs: pytest.fail("array built"))
    monkeypatch.setattr(cli, "make_odd_multiplicity_base",
                        lambda *args, **kwargs: pytest.fail("operator built"))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_largest_operator_passes_the_config_check(monkeypatch):
    monkeypatch.setattr(cli, "SymmetricOperator", lambda matrix: matrix.shape)
    monkeypatch.setattr(cli, "make_odd_multiplicity_base", lambda values, *_: values.shape)
    assert cli._OPERATOR["diag"].build(values=[1.0] * 2049) == (2049, 2049)
    assert cli._OPERATOR["matrix"].build(entries=[[0.0]] * 2049) == (2049, 1)
    assert cli._OPERATOR["odd_base"].build(cluster_values=[1.0] * 2049,
                                           epsilon=0.1, seed=1) == (2049,)


# the reference formats one cell at a time
def reference_csv(header, rows):
    return "".join(f"{line}\n" for line in [header] + [
        ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
        for row in rows])


CSV_TABLES = {
    "int-and-float": ("j,t,lambda", [(j, 0.0, 0.1 * j - 1.0) for j in range(12)]),
    "numpy-scalars": ("t,f00", [(np.float64(t), np.float64(np.sin(t)))
                                for t in np.linspace(0.0, 3.0, 7)]),
    "special-values": ("j,x,y", [(0, -0.0, 1e-300), (1, np.inf, -np.inf),
                                 (2, np.nan, np.float64(-0.0)),
                                 (3, 5e-324, 1.7976931348623157e308),
                                 (np.int64(4), np.float64(np.nan), np.float64(-np.inf))]),
    "bools-and-strings": ("name,ok,x", [("a", True, 1.5), ("b", False, -2.25)]),
    "header-only": ("r,theta,min_gap", []),
}


@pytest.mark.parametrize("header, rows", CSV_TABLES.values(), ids=CSV_TABLES)
def test_csv_bytes_match_the_per_cell_reference(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, rows)
    assert path.read_bytes() == reference_csv(header, rows).encode()


def test_the_cached_parser_keeps_no_state_between_runs(tmp_path):
    assert cli._parser() is cli._parser()
    cfg = write_config(tmp_path, {"model": {"kind": "odd_base", "epsilon": 0.1, "seed": 2,
                                            "cluster_values": [1.0, 2.0, 3.0]}})

    def run(*flags):
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path), *flags]) == 0
        return read_report(tmp_path, "spectrum")

    seeded, plain = run("--seed", "5"), run()
    assert seeded["environment"]["seed_override"] == 5
    assert plain["environment"]["seed_override"] is None
    assert plain["results"] != seeded["results"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", cfg, "--seed", "x"])
    assert exc.value.code == 2
    after = run()
    for report in (plain, after):
        report.pop("environment")
    assert after == plain


def test_basepoint_solver_failure_is_not_a_window_error(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError; the window refusal must not swallow it
    def broken(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    cfg = write_config(tmp_path, shipped("lasso_conical.json"))
    assert cli.main(["lasso-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: LinAlgError: Eigenvalues did not converge\n"


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
    cert = report["results"]["certificate"]
    assert cert["gap"] <= 1e-10
    # the zero center commutes with J: one eigensolve at the tip
    assert (cert["method"], cert["levels"], cert["evaluations"]) == ("center", 0, 1)
    assert cert["r"] == 0.0


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
    not_found = report["results"]["not_found"]
    # refused at once: the pair never couples, so Newton takes no step
    assert (not_found["method"], not_found["levels"], not_found["evaluations"]) == \
        ("newton", 0, 1)
    assert not_found["best_gap"] >= 1.0 - 0.3 * np.sqrt(2.0)


@pytest.mark.parametrize("name, eigensolves", [
    ("lasso_spin_m7.json", 16), ("lasso_conical.json", 16), ("lasso_halfturn.json", 384)])
def test_lasso_scan_reports_the_matrices_its_gap_map_factored(tmp_path, name, eigensolves):
    # mean-centred spin and zero-centred conical discs have isospectral rings;
    # the half-turn disc's explicit center does not commute with J
    cfg = write_config(tmp_path, shipped(name))
    assert cli.main(["lasso-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads(next(tmp_path.glob("*_report.json")).read_text())
    assert report["results"]["scan_eigensolves"] == eigensolves


def halfturn_disc_config(n, seed):
    """A lasso-scan config: a half-turn disc of diag(values) with a seeded random center."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.uniform(0.2, 1.0, n))
    g = rng.standard_normal((n, n))
    center = np.diag(values) + 0.3 * (g + g.T) / np.linalg.norm(g + g.T, 2)
    k = int(rng.integers(1, n - 1))
    return {"disc": {"boundary": {"kind": "halfturn",
                                  "base": {"kind": "diag", "values": values.tolist()}},
                     "center": {"kind": "matrix", "entries": center.tolist()}},
            "window": {"lower": 0.5 * (values[k - 1] + values[k]),
                       "upper": 0.5 * (values[k] + values[k + 1]), "count": 1}}


# a tol below round-off: each run ends in a report, a certificate only where
# an eigensolve measured a gap within it
BELOW_FLOOR = {
    "spin-m7": lambda: shipped("lasso_spin_m7.json", tolerances={"refine": 1e-300},
                               expectations={}),
    "halfturn-n32": lambda: {**halfturn_disc_config(32, seed=1),
                             "tolerances": {"refine": 1e-300}},
}


@pytest.mark.parametrize("name", BELOW_FLOOR)
def test_tolerance_below_round_off_ends_in_a_certificate_or_not_found(tmp_path, name):
    cfg = write_config(tmp_path, BELOW_FLOOR[name]())
    assert cli.main(["lasso-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    results = json.loads(next(tmp_path.glob("*_report.json")).read_text())["results"]
    if name == "halfturn-n32":
        assert "certificate" not in results
    if "certificate" in results:
        assert results["certificate"]["gap"] <= 1e-300
    else:
        assert results["not_found"]["best_gap"] > 1e-300


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


SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.json"))


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


# ---------------------------------------------------------------------------
# schema-driven property test
# ---------------------------------------------------------------------------

# Values that keep generated runs small and valid: every operator pool holds
# exactly one eigenvalue in (0.5, 1.5), which is where the window sits.
FIELD_VALUES = {
    "values": st.sampled_from([[1.0, 2.0], [1.0, 2.0, 3.0]]),
    "entries": st.sampled_from([[[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.2], [0.2, 2.0]]]),
    "cluster_values": st.sampled_from([[1.0, 2.0], [1.0, 2.0, 3.0]]),
    "epsilon": st.sampled_from([0.0, 0.1]),
    "seed": st.integers(0, 3),
    "n_max": st.integers(1, 8),
    "delta": st.sampled_from([0, 0.5]),
    "m": st.sampled_from([6, 7]),
    "turns": st.sampled_from([1, 2]),
    "amplitude": st.floats(0.1, 0.4),
    "lower": st.just(0.5),
    "upper": st.just(1.5),
    "count": st.just(1),
    "center": st.sampled_from(["mean"]),
    "samples": st.integers(2, 8),
    "n_r": st.integers(2, 3),
    "n_theta": st.integers(3, 6),
    "refine": st.sampled_from([1e-3, 1e-8]),
    "radius": st.floats(0.0, 8.0),
    "prefix": st.just("run"),
    "dir": st.just("unused"),
}
LEAF_VALUES = {int: st.integers(-2, 2), float: st.floats(-1.0, 1.0), bool: st.booleans(),
               str: st.just("x")}
JUNK = [None, True, "x", 0.25, 7, [], [1.0], {}, {"kind": "diag"}]


def schema_values(kind, field=None):
    """Strategy for valid values of a cli schema type."""
    if isinstance(kind, cli._Either):
        return st.one_of([schema_values(k, field) for k in kind])
    if field in FIELD_VALUES and not isinstance(kind, (cli._Object, cli._Kinds)):
        return FIELD_VALUES[field]
    if isinstance(kind, list):
        return st.lists(schema_values(kind[0]), min_size=1, max_size=3)
    if isinstance(kind, type):
        return LEAF_VALUES[kind]
    if isinstance(kind, cli._Kinds):
        return st.one_of([schema_values(variant).map(lambda v, tag=tag: {"kind": tag, **v})
                          for tag, variant in kind.items()])
    required = {f: schema_values(k, f) for f, (k, d) in kind.fields.items() if d is cli._REQUIRED}
    optional = {f: schema_values(k, f) for f, (k, d) in kind.fields.items()
                if d is not cli._REQUIRED}
    return st.fixed_dictionaries(required, optional=optional)


def schema_paths(kind, path=""):
    """Every field path a config error may name, for one schema type."""
    if isinstance(kind, cli._Either):
        return set().union(*(schema_paths(k, path) for k in kind))
    if isinstance(kind, list):
        return schema_paths(kind[0], path)
    if isinstance(kind, type):
        return set()
    if isinstance(kind, cli._Kinds):
        return {f"{path}.kind"}.union(*(schema_paths(v, path) for v in kind.values()))
    paths = {path or "config"}
    for field, (sub_kind, _) in kind.fields.items():
        sub = f"{path}.{field}" if path else field
        paths |= {sub} | schema_paths(sub_kind, sub)
    return paths


def objects_in(value):
    """Every JSON object inside a config, the config itself first."""
    if isinstance(value, list):
        return [obj for v in value for obj in objects_in(v)]
    if isinstance(value, dict):
        return [value] + [obj for v in value.values() for obj in objects_in(v)]
    return []


@st.composite
def configs(draw):
    """A valid config of some experiment, or one corruption of it."""
    name = draw(st.sampled_from(sorted(cli._EXPERIMENTS)))
    cfg = draw(schema_values(cli._schema(name)))
    if "experiment" in cfg:
        cfg["experiment"] = name
    target = draw(st.sampled_from(objects_in(cfg)))
    how = draw(st.sampled_from(["valid", "replace", "delete", "unknown field"]))
    if how == "unknown field":
        target["bogus"] = 1
    elif how != "valid" and target:
        field = draw(st.sampled_from(sorted(target)))
        if how == "delete":
            del target[field]
        else:
            target[field] = draw(st.sampled_from(JUNK))
    return name, cfg, how


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_runs_or_names_the_field_at_fault(case):
    name, payload, how = case
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([name, "--config", path, "--out", out])
    assert code in (0, 1, 2)
    if how == "unknown field":
        assert code == 1 and err.getvalue().startswith("config error: ")
    if code == 1:
        message = err.getvalue()
        if message.startswith("config error: "):
            field, reason = message[len("config error: "):].split(": ", 1)
            field = re.sub(r"\[\d+\]", "", field)
            if reason.startswith("unknown field"):
                field = field.rpartition(".")[0] or "config"
            assert field in schema_paths(cli._schema(name)), message
        else:
            assert message.startswith("error: TransportError: "), message
