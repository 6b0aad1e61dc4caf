"""Command-line front end: flag parsing, config precedence, CSV and
manifest output, reproducibility, exit codes, figure recipes."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import q1dscatter as q
from q1dscatter import cli, oracle, traps


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    meta, rows = {}, []
    with open(path, newline="") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                meta[key.strip()] = value.strip()
            else:
                data_lines.append(line)
    reader = csv.DictReader(data_lines)
    rows = list(reader)
    return meta, rows


# ------------------------------------------------------------- happy paths


def test_transverse_two_site(tmp_path, capsys, two_site_spectrum):
    out = tmp_path / "t.csv"
    code, stdout, _ = run_cli(["transverse", "--trap", "two-site", "--v",
                               "1.0", "--output", str(out)], capsys)
    assert code == 0
    assert str(out) in stdout
    meta, rows = read_csv(out)
    assert len(rows) == 2
    # repr round-trip: CSV floats reproduce the binary values exactly
    for n, row in enumerate(rows):
        assert float(row["energy"]) == float(two_site_spectrum.energies[n])
    assert (tmp_path / "t.csv.manifest.json").exists()


def test_single_sweep_and_metadata(tmp_path, capsys, two_site_spectrum):
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(["single", "--trap", "two-site", "--v", "1.0",
                          "--u-from", "-6", "--u-to", "6", "--points", "13",
                          "--output", str(out)], capsys)
    assert code == 0
    meta, rows = read_csv(out)
    assert len(rows) == 13
    assert float(meta["u-cir"]) == pytest.approx(-30.009137607725254,
                                                 rel=1e-12)
    mid = rows[6]
    assert float(mid["u"]) == 0.0
    assert float(mid["u1d"]) == 0.0
    for row in rows:
        assert float(row["atan_u1d"]) == pytest.approx(
            math.atan(float(row["u1d"])), abs=1e-15)


def test_ring_with_crossings(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(["ring", "--trap", "harmonic", "--omega", "0.1",
                          "--n-states", "21", "--length", "50",
                          "--branches", "2", "--crossings",
                          "--u-from", "-8", "--u-to", "8", "--points", "5",
                          "--output", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert rows and all(row["length"] == "50" for row in rows)
    _, crossings = read_csv(tmp_path / "r_crossings.csv")
    assert len(crossings) == 9
    assert all(float(c["u"]) < 0.0 for c in crossings)


def test_ring_zero_coupling_never_scans(tmp_path, capsys):
    # branch 2 of a 10-site ring opens an excited channel: every nonzero
    # coupling fails there, but U = 0 has the free momentum and no scan
    args = ["ring", "--trap", "harmonic", "--omega", "0.1", "--n-states",
            "21", "--length", "10", "--branches", "3",
            "--output", str(tmp_path / "r.csv")]
    code, _, _ = run_cli(args + ["--u-from", "0", "--u-to", "0",
                                 "--points", "1"], capsys)
    assert code == 0
    meta, rows = read_csv(tmp_path / "r.csv")
    assert [(row["branch"], float(row["k"])) for row in rows] == [
        ("1", 2.0 * math.pi / 10), ("2", 4.0 * math.pi / 10)]
    assert meta["empty-branch-points"] == "1"
    expect_error(args + ["--u-from", "0", "--u-to", "-1", "--points", "2"],
                 capsys, 4, "OpenChannel")


def test_twobody_resonance_report(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code, _, _ = run_cli(["twobody", "--trap", "two-site", "--v", "1.0",
                          "--resonances", "--u-from", "-40",
                          "--output", str(out)], capsys)
    assert code == 0
    meta, rows = read_csv(out)
    visible = [r for r in rows if r["visible"] == "True"]
    assert len(visible) == 2
    assert float(visible[0]["u"]) == pytest.approx(-26.966192414218135,
                                                   rel=1e-11)
    assert meta["zero-crossings"].startswith("-7.34862960967")


def test_converged_resonances_past_a_finite_basis(tmp_path, capsys):
    """9-site hard-wall table from 3 states: the second rung asks for 23
    and takes the complete 9-state basis, so the report is that basis's,
    not the 3-state rung's (2 poles instead of 4)."""
    out = tmp_path / "res.csv"
    values = ",".join(f"{y}:{0.1 * y * y!r}" for y in range(-4, 5))
    code, _, _ = run_cli(["resonances", "--trap", "tabulated",
                          f"--values={values}", "--converge",
                          "--n-start", "3", "--output", str(out)], capsys)
    assert code == 0
    meta, rows = read_csv(out)
    trap = q.Tabulated.from_mapping({y: 0.1 * y * y for y in range(-4, 5)},
                                    None)
    exact = q.locate_resonances(q.build_kernel(q.solve_transverse(trap)))
    assert (meta["n-states"], meta["converged"]) == ("9", "True")
    assert [(r["kind"], r["visible"]) for r in rows] == [
        (r.kind, str(r.visible)) for r in exact.resonances]
    assert len(exact.visible_resonances) == 4
    assert np.allclose([float(r["u"]) for r in rows],
                       [r.u for r in exact.resonances], rtol=1e-12, atol=0)
    crossings = [float(c) for c in meta["zero-crossings"].split(";")]
    assert np.allclose(crossings, exact.zero_crossings, rtol=1e-12, atol=0)


def test_single_grid_rungs_in_manifest(tmp_path, capsys, monkeypatch):
    """Without --n-states, single sums every state of the auto grid and
    doubles it from 81 sites until 1/U_CIR settles: at omega = 1e-4 the
    161- and 321-site grids agree, each solved once, by parity sector."""
    sectors = []
    solve = traps.eigh_tridiagonal

    def counted(diag, off, **kwargs):
        sectors.append(len(diag))
        return solve(diag, off, **kwargs)

    monkeypatch.setattr(traps, "eigh_tridiagonal", counted)
    out = tmp_path / "single.csv"
    code, _, _ = run_cli(["single", "--trap", "harmonic", "--omega", "1e-4",
                          "--u-from", "-3", "--u-to", "-1", "--points", "3",
                          "--output", str(out)], capsys)
    assert code == 0
    assert sectors == [41, 40, 81, 80, 161, 160]
    meta, _ = read_csv(out)
    assert (meta["n-states"], meta["n-used"]) == ("321", "320")
    diag = json.loads(
        (tmp_path / "single.csv.manifest.json").read_text())["diagnostics"]
    assert diag["complete"] is True
    assert [r["grid_sites"] for r in diag["rungs"]] == [81, 161, 321]
    inverse = [r["inverse_u_cir"] for r in diag["rungs"]]
    assert abs(inverse[2] - inverse[1]) <= 1e-12 * abs(inverse[2])
    assert float(meta["u-cir"]) == 1.0 / inverse[2]


def test_single_pinned_basis_is_summed_as_given(tmp_path, capsys):
    # 40 states on the auto grid: a truncated sum, one rung, not complete
    out = tmp_path / "single.csv"
    code, _, _ = run_cli(["single", "--trap", "harmonic", "--omega", "1e-3",
                          "--n-states", "40", "--u-from", "-1", "--u-to",
                          "1", "--points", "3", "--output", str(out)], capsys)
    assert code == 0
    meta, _ = read_csv(out)
    assert (meta["n-states"], meta["n-used"]) == ("40", "39")
    diag = json.loads(
        (tmp_path / "single.csv.manifest.json").read_text())["diagnostics"]
    assert diag["complete"] is False
    assert [r["grid_sites"] for r in diag["rungs"]] == [161]


def test_default_basis_single_matches_the_oracle(tmp_path, capsys):
    # the README's validation bound for the soft harmonic trap
    out = tmp_path / "single.csv"
    code, _, _ = run_cli(["single", "--trap", "harmonic", "--omega", "0.1",
                          "--u-from", "-2", "--u-to", "-2", "--points", "1",
                          "--output", str(out)], capsys)
    assert code == 0
    _, (row,) = read_csv(out)
    want = q.strip_scattering_length(
        q.StripProblem(trap=q.Harmonic(omega=0.1), u=-2.0, lx=200)).a
    assert abs(float(row["a"]) - want) <= 4e-9 * abs(want)


def test_ladder_rungs_in_manifest_only(tmp_path, capsys):
    """The manifest lists each rung's basis size, and a twobody sweep's
    report is the one the resonances subcommand writes."""
    trap = ["--trap", "harmonic", "--omega", "0.03", "--n-start", "21",
            "--converge"]
    swept = tmp_path / "tb.csv"
    code, _, _ = run_cli(["twobody", *trap, "--n-states", "21",
                          "--u-from", "-30", "--u-to", "0", "--points", "5",
                          "--output", str(swept)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "tb.csv.manifest.json").read_text())["diagnostics"]
    assert diag["ladder"] == [21, 41, 61]
    alone = tmp_path / "res.csv"
    code, _, _ = run_cli(["resonances", *trap, "--output", str(alone)],
                         capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "res.csv.manifest.json").read_text())["diagnostics"]
    assert diag["ladder"] == [21, 41, 61]
    meta_swept, rows_swept = read_csv(tmp_path / "tb_resonances.csv")
    meta_alone, rows_alone = read_csv(alone)
    assert rows_swept == rows_alone
    assert not any("ladder" in key or "rung" in key or "grid" in key
                   for key in meta_swept)
    for key in ("zero-crossings", "n-states", "n-channels", "converged"):
        assert meta_swept[key] == meta_alone[key]
    # the rungs stay out of the config hash: a replay is byte-identical
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["resonances", "--config",
                          str(tmp_path / "res.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert replay.read_bytes() == alone.read_bytes()


def test_ring_polish_in_manifest_only(tmp_path, capsys):
    """The manifest counts each (length, branch) sweep's solver passes
    and polished roots and gives the largest residual; the CSV and the
    config hash do not, so a replay is byte-identical."""
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(["ring", "--trap", "harmonic", "--omega", "0.1",
                          "--n-states", "21", "--length", "10", "--length",
                          "50", "--branches", "2", "--u-from", "-20",
                          "--u-to", "20", "--points", "8",
                          "--output", str(out)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "r.csv.manifest.json").read_text())["diagnostics"]
    assert [(p["length"], p["branch"]) for p in diag["polish"]] == [
        (10, 0), (10, 1), (50, 0), (50, 1)]
    assert all(1 <= p["passes"] <= 10 for p in diag["polish"])
    meta, rows = read_csv(out)
    # no coupling of the grid is zero: every row is a polished root
    assert diag["polished_roots"] == sum(p["roots"] for p in diag["polish"])
    assert diag["polished_roots"] == len(rows) == diag["rows"]
    assert diag["max_residual"] == max(float(r["residual"]) for r in rows)
    assert 0.0 < diag["max_residual"] <= 1e-10
    assert not any("polish" in key or "pass" in key or "max" in key
                   for key in meta)
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["ring", "--config",
                          str(tmp_path / "r.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert replay.read_bytes() == out.read_bytes()


def _assert_sweep_matches_dense(path, kernel, dense_collision_solve,
                                k=0.0):
    """Every row of a twobody sweep at relative momentum `k` against the
    direct solve at E(k): the scattering length at k = 0, else the
    finite-k phase shift and the entrance amplitude cos(delta_k) I00."""
    _, rows = read_csv(path)
    assert rows
    if k:
        kernel = kernel.at_relative_momentum(k)
    for row in rows:
        u = float(row["u"])
        _, i00 = dense_collision_solve(kernel, u)
        u1d = u * i00
        if k:
            delta = math.atan(-u1d / (2.0 * kernel.j_k * math.sin(k)))
            want = {"i00": math.cos(delta) * i00, "u1d": u1d,
                    "delta_k": delta}
        else:
            want = {"i00": i00, "u1d": u1d, "a": -2.0 * kernel.j_k / u1d}
        for key, value in want.items():
            assert abs(float(row[key]) - value) <= 1e-12 * abs(value), \
                (key, u)


def test_twobody_sweep_matches_dense_solve(tmp_path, capsys, two_site_kernel,
                                           dense_collision_solve):
    out = tmp_path / "tb.csv"
    for k in (0.0, 0.3):
        code, _, _ = run_cli(["twobody", "--trap", "two-site", "--v", "1.0",
                              "--k", repr(k), "--u-from", "-40", "--u-to",
                              "20", "--points", "60", "--output", str(out)],
                             capsys)
        assert code == 0
        _assert_sweep_matches_dense(out, two_site_kernel,
                                    dense_collision_solve, k)

    code, _, _ = run_cli(["figure", "fig5", "--output-dir", str(tmp_path)],
                         capsys)
    assert code == 0
    recipe = cli.figure_recipe("fig5").options
    fig5_kernel = q.build_kernel(q.solve_transverse(
        q.Harmonic(omega=recipe["omega"]), n_states=recipe["n_states"]))
    _assert_sweep_matches_dense(tmp_path / "fig5.csv", fig5_kernel,
                                dense_collision_solve)


def test_twobody_report_equals_a_fresh_report(tmp_path, capsys):
    # fig5's resonance report is the one the resonances subcommand
    # writes from a fresh kernel on the same spectrum
    code, _, _ = run_cli(["figure", "fig5", "--output-dir", str(tmp_path)],
                         capsys)
    assert code == 0
    code, _, _ = run_cli(["resonances", "--trap", "harmonic", "--omega",
                          "0.1", "--n-states", "21", "--u-from", "-30",
                          "--u-to", "0", "--output",
                          str(tmp_path / "fresh.csv")], capsys)
    assert code == 0

    def report(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith(("# subcommand", "# config-hash"))]

    assert report(tmp_path / "fig5_resonances.csv") == \
        report(tmp_path / "fresh.csv")


@pytest.mark.parametrize("k, kernels", [(0.0, [0.0]), (0.05, [0.05, 0.0])])
def test_report_reuses_a_threshold_sweep_kernel(k, kernels, tmp_path,
                                                capsys, monkeypatch):
    """fig5's sweep at k = 0 and its resonance report share one spectrum
    and one kernel; the report of a sweep at k > 0 solves a spectrum and
    builds a threshold kernel of its own."""
    from q1dscatter import two_body
    build, solve = two_body.build_kernel, cli.solve_transverse
    built, solved = [], []

    def counted_build(spectrum, total_momentum=0.0, k=0.0):
        built.append(k)
        return build(spectrum, total_momentum, k)

    def counted_solve(*args, **kwargs):
        solved.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(two_body, "build_kernel", counted_build)
    monkeypatch.setattr(cli, "solve_transverse", counted_solve)
    if k == 0.0:
        argv = ["figure", "fig5", "--output-dir", str(tmp_path)]
    else:
        argv = ["twobody", "--trap", "harmonic", "--omega", "0.1",
                "--n-states", "21", "--k", repr(k), "--u-from", "-4",
                "--u-to", "4", "--points", "5", "--resonances",
                "--output", str(tmp_path / "tb.csv")]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert built == kernels
    assert len(solved) == len(kernels)


def test_twobody_finite_k_phase_is_positive_zero_at_zero_coupling(
        tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code, _, _ = run_cli(["twobody", "--trap", "two-site", "--v", "1.0",
                          "--k", "0.3", "--u-from", "-1", "--u-to", "1",
                          "--points", "3", "--output", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    zero = rows[1]  # atan(-0.0 / s) alone would print -0.0
    assert (zero["u"], zero["u1d"], zero["delta_k"]) == ("0.0", "0.0", "0.0")


def test_twobody_sweep_refuses_a_pole_point(tmp_path, capsys,
                                            two_site_kernel):
    mu = np.linalg.eigvalsh(two_site_kernel.green)
    pole = -1.0 / float(mu[-1])  # the sharp two-site resonance
    out = tmp_path / "tb.csv"
    record = expect_error(
        ["twobody", "--trap", "two-site", "--v", "1.0", "--u-from",
         repr(pole - 2.0), "--u-to", repr(pole + 2.0), "--points", "5",
         "--output", str(out)], capsys, 4, "SingularSystem")
    assert re.fullmatch(
        rf"coupling U={pole:g} sits on a confinement-induced resonance "
        rf"pole \(\|1 \+ U mu\| = [-+.e0-9]+\)", record["message"])
    assert not out.exists()


def test_twobody_cells_are_python_floats(tmp_path, capsys):
    base = ["twobody", "--trap", "two-site", "--v", "1.0", "--u-from", "-6",
            "--u-to", "4", "--points", "5"]
    for extra in (["--resonances"], ["--k", "0.3"]):
        out = tmp_path / "tb.csv"
        code, _, _ = run_cli(base + extra + ["--output", str(out)], capsys)
        assert code == 0
        for path in tmp_path.glob("tb*.csv"):
            assert "np.float64(" not in path.read_text(), path.name


def test_oracle_gated_and_correct(tmp_path, capsys, two_site_spectrum):
    out = tmp_path / "o.csv"
    base = ["oracle", "--trap", "two-site", "--v", "1.0", "--mode", "single",
            "--u", "-2", "--lx", "100", "--output", str(out)]
    code, _, err = run_cli(base, capsys)
    assert code == 2  # refused without --validate
    code, _, _ = run_cli(base + ["--validate"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    theory = q.effective_u1d(two_site_spectrum, -2.0).a
    assert float(rows[0]["a"]) == pytest.approx(theory, abs=1e-6)


def test_oracle_diagnostics_in_manifest_only(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code, _, _ = run_cli(["oracle", "--trap", "two-site", "--v", "1.0",
                          "--mode", "pair", "--u", "-5", "--lx", "100",
                          "--validate", "--output", str(out)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "o.csv.manifest.json").read_text())["diagnostics"]
    assert 0.0 < diag["eigen_residual"] <= 1e-10
    assert diag["unknowns"] == 101 * 3  # x >= 0 times y1 <= y2
    # the entrance chain whole, the two closed chains cut near x = 0
    assert 101 < diag["factored"] < diag["unknowns"]
    assert 0.0 < diag["cut_bound"] <= 1e-17
    # min(x-even free levels with k <= 0.15, 9) + 2 at lx = 100
    assert diag["eigenpairs"] == 7
    meta, rows = read_csv(out)
    # the change of a(0) from the fit order below: [2/1] - [1/1] for the
    # four states accepted at lx = 100
    res = q.pair_scattering_length(q.StripProblem(
        trap=q.TwoSite(v=1.0), u=-5.0, lx=100))
    states = res.states
    assert len(states) == 4
    assert diag["states"] == [list(state) for state in states]
    # the shift sits on the first x-odd free level, k = pi/(lx + 1)
    e_free = 2.0 * q.solve_transverse(q.TwoSite(v=1.0)).energies[0]
    assert diag["sigma"] == res.sigma == pytest.approx(
        e_free - 2.0 * q.pair_hopping(0.0) * math.cos(math.pi / 101),
        rel=1e-15)
    s = np.array([k ** 2 for k, _ in states])
    a = np.array([1.0 / (math.sin(k) * tan_delta) for k, tan_delta in states])
    x = s / s.max()
    assert diag["spread"] == abs(oracle._rational_intercept(x, a, (2, 1))
                                 - oracle._rational_intercept(x, a, (1, 1)))
    hidden = {"eigen_residual", "unknowns", "factored", "cut_bound",
              "spread", "eigenpairs", "sigma", "states"}
    assert not hidden & set(rows[0])
    assert not hidden & {key.replace("-", "_") for key in meta}
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["oracle", "--config",
                          str(tmp_path / "o.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert out.read_bytes() == replay.read_bytes()


def test_oracle_short_strip_exit_code(tmp_path, capsys):
    """--lx 40 holds 2 x-even free levels with k <= 0.15, one too few
    for the fit: refused up front as a configuration error, naming
    lx = 52, the first that holds 3."""
    record = expect_error(
        ["oracle", "--trap", "two-site", "--v", "1.0", "--mode", "pair",
         "--u", "-5", "--lx", "40", "--validate",
         "--output", str(tmp_path / "o.csv")], capsys, 2, "ConfigError")
    assert record["message"].startswith("strip too short")
    assert record["message"].endswith("lx = 52")


_ORACLE_ARGS = ["oracle", "--validate", "--mode", "single", "--trap",
                "harmonic", "--omega", "0.1", "--lx", "100"]
_SINGLE_ARGS = ["single", "--trap", "harmonic", "--omega", "0.1",
                "--points", "1"]


@pytest.mark.parametrize("args, key", [
    (_ORACLE_ARGS + ["--u", "nan"], "u"),
    (_ORACLE_ARGS + ["--u=-inf"], "u"),
    (_SINGLE_ARGS + ["--u-from", "nan", "--u-to", "nan"], "u_from"),
    (_SINGLE_ARGS + ["--u-from", "-1", "--u-to", "inf"], "u_to"),
], ids=["oracle-nan", "oracle-inf", "single-nan", "single-inf"])
def test_non_finite_float_is_config_error(args, key, tmp_path, capsys):
    """A NaN or infinite float option is refused up front, naming its
    key, before any solve and without writing a CSV."""
    out = tmp_path / "x.csv"
    record = expect_error(args + ["--output", str(out)], capsys, 2,
                          "ConfigError")
    assert record["message"].startswith(f"{key} must be a finite float, ")
    assert not out.exists()


def test_non_finite_float_in_config_file_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("u = nan\n")
    record = expect_error(_ORACLE_ARGS + ["--config", str(config),
                                          "--output", str(tmp_path / "x.csv")],
                          capsys, 2, "ConfigError")
    assert record["message"] == "u must be a finite float, got nan"


def test_oracle_delta_well_takes_its_half_width(tmp_path, capsys):
    """--y-max sizes a delta well's grid in the oracle as in the library
    (the well's own ``y_max``)."""
    out = tmp_path / "o.csv"
    code, _, _ = run_cli(["oracle", "--validate", "--trap", "delta-well",
                          "--v0", "1.0", "--y-max", "60", "--u", "-1",
                          "--lx", "100", "--output", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    want = q.strip_scattering_length(
        q.StripProblem(q.DeltaWell(1.0, y_max=60), -1.0, 100)).a
    assert float(rows[0]["a"]) == want


@pytest.mark.parametrize("trap", [
    ["--trap", "two-site", "--v", "1.0"],
    ["--trap", "tabulated", "--values=-1:0.5,0:0.0,1:0.5"]])
def test_half_width_refused_on_a_fixed_grid(trap, tmp_path, capsys):
    """A two-site trap and a table fix their own grid: --y-max is
    refused, not ignored."""
    record = expect_error(["transverse", *trap, "--y-max", "60",
                           "--output", str(tmp_path / "t.csv")],
                          capsys, 2, "ConfigError")
    assert record["message"].endswith("does not take --y-max")


def test_tabulated_trap_flags(tmp_path, capsys):
    out = tmp_path / "tab.csv"
    # --values=... (equals form) keeps argparse from reading the leading
    # minus of a negative coordinate as a new flag
    code, _, _ = run_cli(["transverse", "--trap", "tabulated",
                          "--values=-1:0.3,0:0,1:0.3",
                          "--output", str(out)], capsys)
    assert code == 0
    meta, rows = read_csv(out)
    assert len(rows) == 3
    assert meta["symmetric"] == "True"


def test_tabulated_site_given_twice(tmp_path, capsys):
    # the flag and a config file alike: no value silently wins
    out = tmp_path / "tab.csv"
    record = expect_error(["transverse", "--trap", "tabulated",
                           "--values=0:1,0:2,-1:1,1:1", "--output", str(out)],
                          capsys, 2, "ConfigError")
    assert "y=0" in record["message"]
    cfg = tmp_path / "tab.cfg"
    cfg.write_text("trap = tabulated\nvalues = -1:1,0:1,1:1,-1:3\n")
    record = expect_error(["transverse", "--config", str(cfg),
                           "--output", str(out)], capsys, 2, "ConfigError")
    assert "y=-1" in record["message"]
    assert not out.exists()


# ---------------------------------------------------------- reproducibility


def test_config_hash_ignores_execution_keys(tmp_path, capsys):
    args = ["single", "--trap", "two-site", "--v", "1.0", "--u-from", "-4",
            "--u-to", "4", "--points", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(args + ["--output", str(out1), "--threads", "1"], capsys)
    run_cli(args + ["--output", str(out2), "--threads", "2"], capsys)
    meta1, _ = read_csv(out1)
    meta2, _ = read_csv(out2)
    assert meta1["config-hash"] == meta2["config-hash"]
    # the data bytes are identical too (threading cannot change them)
    assert out1.read_bytes() == out2.read_bytes()


def test_config_hash_tracks_physics(tmp_path, capsys):
    base = ["single", "--trap", "two-site", "--v", "1.0", "--u-from", "-4",
            "--points", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(base + ["--u-to", "4", "--output", str(out1)], capsys)
    run_cli(base + ["--u-to", "5", "--output", str(out2)], capsys)
    meta1, _ = read_csv(out1)
    meta2, _ = read_csv(out2)
    assert meta1["config-hash"] != meta2["config-hash"]


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trap = two-site\nv = 1.0\nu_from = -6\nu_to = -2\n"
                   "points = 5\n")
    out = tmp_path / "c.csv"
    # the flag wins over the file
    code, _, _ = run_cli(["single", "--config", str(cfg), "--u-to", "-1",
                          "--output", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["config"]["u_to"] == -1.0
    assert manifest["config"]["u_from"] == -6.0
    _, rows = read_csv(out)
    assert float(rows[-1]["u"]) == -1.0


def test_manifest_round_trip(tmp_path, capsys):
    out1 = tmp_path / "first.csv"
    args = ["single", "--trap", "two-site", "--v", "1.0", "--u-from", "-9",
            "--u-to", "3", "--points", "7", "--output", str(out1)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    out2 = tmp_path / "second.csv"
    code, _, _ = run_cli(["single", "--config",
                          str(tmp_path / "first.csv.manifest.json"),
                          "--output", str(out2)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_environment_in_manifest_only(tmp_path, capsys):
    out = tmp_path / "first.csv"
    code, _, _ = run_cli(["single", "--trap", "two-site", "--v", "1.0",
                          "--u-from", "-3", "--u-to", "-1", "--points", "3",
                          "--output", str(out)], capsys)
    assert code == 0
    first = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    env = first["environment"]
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"numpy", "scipy"}
    assert all(set(b) == {"name", "version"} for b in env["blas"].values())
    assert env["cpus"] >= 1
    assert "environment" not in first["config"]
    meta, _ = read_csv(out)
    assert not {"python", "numpy", "scipy", "blas", "cpus"} & set(meta)
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["single", "--config",
                          str(tmp_path / "first.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert out.read_bytes() == replay.read_bytes()
    second = json.loads((tmp_path / "replay.csv.manifest.json").read_text())
    assert second["config_hash"] == first["config_hash"]
    assert second["environment"] == env


def test_finite_k_manifest_describes_the_solved_kernel(tmp_path, capsys,
                                                      harm_mod_spectrum):
    """A finite-k sweep builds its one kernel at E(k), and the manifest
    reports that kernel's internals: at omega = 0.1, 21 states and
    k = 0.05 the smallest |D| is 3.29119, where the threshold kernel's
    is 3.29905."""
    out = tmp_path / "tb.csv"
    code, _, _ = run_cli(["twobody", "--trap", "harmonic", "--omega", "0.1",
                          "--n-states", "21", "--k", "0.05", "--u-from",
                          "-5", "--u-to", "-1", "--points", "5",
                          "--output", str(out)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "tb.csv.manifest.json").read_text())["diagnostics"]
    assert diag["min_abs_denominator"] == pytest.approx(3.29119242, abs=1e-8)
    kernel = q.build_kernel(harm_mod_spectrum, 0.0, 0.05)
    for key in ("collision_sites", "numerical_rank", "min_abs_denominator"):
        assert diag[key] == getattr(kernel, key)
    assert q.build_kernel(harm_mod_spectrum).min_abs_denominator == \
        pytest.approx(3.29905461, abs=1e-8)


def test_kernel_diagnostics_in_manifest_only(tmp_path, capsys,
                                            two_site_kernel):
    out = tmp_path / "tb.csv"
    code, _, _ = run_cli(["twobody", "--trap", "two-site", "--v", "1.0",
                          "--u-from", "-6", "--u-to", "4", "--points", "5",
                          "--resonances", "--output", str(out)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "tb.csv.manifest.json").read_text())["diagnostics"]
    for prefix in ("", "report_"):
        assert diag[prefix + "collision_sites"] == 2
        assert diag[prefix + "numerical_rank"] == 2
        assert diag[prefix + "min_abs_denominator"] == pytest.approx(
            5.534204278662789, rel=1e-12)
    mu = np.linalg.eigvalsh(two_site_kernel.green)
    assert diag["min_pole_proximity"] == pytest.approx(min(
        float(np.min(np.abs(1.0 + u * mu))) for u in (-6, -3.5, -1, 1.5, 4)),
        rel=1e-12)
    # solver internals stay out of the CSV, so a replay is byte-identical
    meta, _ = read_csv(out)
    assert not {"collision-sites", "numerical-rank",
                "min-pole-proximity"} & set(meta)
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["twobody", "--config",
                          str(tmp_path / "tb.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert out.read_bytes() == replay.read_bytes()

    spa = tmp_path / "spa.csv"
    code, _, _ = run_cli(["spa-fit", "--trap", "harmonic", "--omega", "0.1",
                          "--n-states", "21", "--u-from", "-1000",
                          "--u-to", "-900", "--points", "50",
                          "--output", str(spa)], capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "spa.csv.manifest.json").read_text())["diagnostics"]
    # the 81-site mirror grid is solved on its 41 sites y >= 0
    assert diag["collision_sites"] == 41
    assert 0 < diag["numerical_rank"] <= 41
    assert diag["min_abs_denominator"] > 0.0

    # a shifted copy of a mirror table is no mirror: every site counts
    res = tmp_path / "res.csv"
    values = ",".join(f"{y + 1}:{0.1 * y * y!r}" for y in range(-4, 5))
    code, _, _ = run_cli(["resonances", "--trap", "tabulated",
                          f"--values={values}", "--output", str(res)],
                         capsys)
    assert code == 0
    diag = json.loads(
        (tmp_path / "res.csv.manifest.json").read_text())["diagnostics"]
    assert diag["collision_sites"] == 9


def test_config_file_values_take_the_declared_type(tmp_path, capsys):
    # integer literals for float options hash as the flags do
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trap = two-site\nv = 1\nu_from = -4\nu_to = 4\n"
                   "points = 5\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    run_cli(["single", "--config", str(cfg), "--output", str(from_file)],
            capsys)
    run_cli(["single", "--trap", "two-site", "--v", "1", "--u-from", "-4",
             "--u-to", "4", "--points", "5", "--output", str(from_flags)],
            capsys)
    assert from_file.read_bytes() == from_flags.read_bytes()
    config = json.loads(
        (tmp_path / "file.csv.manifest.json").read_text())["config"]
    assert [type(config[key]) for key in ("v", "u_from", "points")] == [
        float, float, int]


def test_manifest_value_of_the_wrong_type(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run_cli(["single", "--trap", "two-site", "--v", "1.0", "--u-from", "-9",
             "--u-to", "3", "--points", "7", "--output", str(out)], capsys)
    manifest = tmp_path / "s.csv.manifest.json"
    payload = json.loads(manifest.read_text())
    payload["config"]["u_from"] = "x"
    manifest.write_text(json.dumps(payload))
    record = expect_error(["single", "--config", str(manifest), "--output",
                           str(tmp_path / "x.csv")], capsys, 2, "ConfigError")
    assert "u_from" in record["message"]
    assert not (tmp_path / "x.csv").exists()


def test_manifest_subcommand_mismatch(tmp_path, capsys):
    out = tmp_path / "first.csv"
    run_cli(["single", "--trap", "two-site", "--v", "1.0", "--u-from", "-2",
             "--u-to", "2", "--points", "3", "--output", str(out)], capsys)
    code, _, err = run_cli(["twobody", "--config",
                            str(tmp_path / "first.csv.manifest.json")],
                           capsys)
    assert code == 2


# ----------------------------------------------------------------- failures


def expect_error(args, capsys, exit_code, error_name=None):
    code, _, err = run_cli(args, capsys)
    assert code == exit_code
    record = json.loads(err.strip().splitlines()[-1])
    assert record["exit_code"] == exit_code
    assert record["message"]
    if error_name:
        assert record["error"] == error_name
    return record


def test_unknown_flag_is_config_error(capsys):
    expect_error(["single", "--no-such-flag"], capsys, 2, "ConfigError")


def test_missing_trap_parameter(capsys):
    expect_error(["single", "--trap", "two-site", "--u-from", "-1",
                  "--u-to", "1", "--points", "3"], capsys, 2, "ConfigError")


def test_empty_sweep_rejected(tmp_path, capsys):
    expect_error(["single", "--trap", "two-site", "--v", "1.0",
                  "--u-from", "-1", "--u-to", "1", "--points", "0",
                  "--output", str(tmp_path / "x.csv")], capsys, 2)
    expect_error(["twobody", "--trap", "two-site", "--v", "1.0",
                  "--output", str(tmp_path / "y.csv")], capsys, 2)


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    expect_error(["single", "--config", str(cfg)], capsys, 2)


def test_bad_trap_choice_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trap = foo\nv = 1.0\n")
    record = expect_error(["transverse", "--config", str(cfg),
                           "--output", str(tmp_path / "x.csv")],
                          capsys, 2, "ConfigError")
    assert "foo" in record["message"]


def test_bad_mode_choice_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trap = two-site\nv = 1.0\nmode = sigle\nu = -2\n"
                   "lx = 100\nvalidate = true\n")
    expect_error(["oracle", "--config", str(cfg),
                  "--output", str(tmp_path / "x.csv")], capsys, 2,
                 "ConfigError")
    assert not (tmp_path / "x.csv").exists()


def test_bad_choice_in_manifest(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run_cli(["oracle", "--validate", "--trap", "two-site", "--v",
                    "1.0", "--u", "-2", "--lx", "100", "--output", str(out)],
                   capsys)[0] == 0
    manifest = tmp_path / "o.csv.manifest.json"
    payload = json.loads(manifest.read_text())
    payload["config"]["mode"] = "sigle"
    manifest.write_text(json.dumps(payload))
    record = expect_error(["oracle", "--config", str(manifest)], capsys, 2,
                          "ConfigError")
    assert "sigle" in record["message"]


@pytest.mark.parametrize("subcommand, key, value", [
    ("single", "tail_tol", 1e-10), ("single", "n_cut", None),
    ("twobody", "n_cut", None), ("continuum", "quad_tol", 1e-10),
    ("continuum", "method", "adaptive")])
def test_retired_key_in_manifest_refused(tmp_path, capsys, subcommand, key,
                                         value):
    manifest = tmp_path / "old.json"
    manifest.write_text(json.dumps({"subcommand": subcommand,
                                    "config": {key: value}}))
    record = expect_error([subcommand, "--config", str(manifest)], capsys,
                          2, "ConfigError")
    assert repr(key) in record["message"]


_CONTINUUM_TRAPS = {
    "delta-well": ("--trap", "delta-well", "--v0", "1"),
    "table-with-asymptote": ("--trap", "tabulated",
                             "--values=-1:0.5,0:-0.9,1:0.5",
                             "--asymptote", "1"),
}
_CONTINUUM_WELLS = {
    "delta-well": q.DeltaWell(v0=1.0),
    "table-with-asymptote": q.Tabulated.from_mapping(
        {-1: 0.5, 0: -0.9, 1: 0.5}, 1.0),
}
_SWEEP = ("--u-from", "-1", "--u-to", "1", "--points", "3")


@pytest.mark.parametrize("trap", list(_CONTINUUM_TRAPS))
@pytest.mark.parametrize("args", [
    ("ring", "--length", "10", *_SWEEP),
    ("twobody", *_SWEEP), ("twobody", "--resonances"),
    ("spa-fit", *_SWEEP), ("resonances",),
    ("resonances", "--converge", "--n-start", "1")],
    ids=["ring", "twobody", "twobody-report", "spa-fit",
         "resonances", "resonances-converge"])
def test_continuum_trap_refused_by_bound_channel_sums(tmp_path, capsys,
                                                      args, trap):
    # these sum over the solved bound states only, which would drop the
    # continuum channels without a word
    out = tmp_path / "x.csv"
    record = expect_error([*args, *_CONTINUUM_TRAPS[trap],
                           "--output", str(out)], capsys, 2, "ConfigError")
    assert "use single" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("trap", list(_CONTINUUM_TRAPS))
def test_single_takes_a_continuum_trap(tmp_path, capsys, trap,
                                       box_channel_sum):
    # the bound sector is solved once and summed with S(0): 1/U_CIR is
    # the library's and the hard-wall box sum's
    out = tmp_path / "s.csv"
    assert run_cli(["single", *_SWEEP, *_CONTINUUM_TRAPS[trap],
                    "--output", str(out)], capsys)[0] == 0
    meta, rows = read_csv(out)
    well = _CONTINUUM_WELLS[trap]
    spectrum = q.solve_transverse(well)
    cir = q.u_cir_with_continuum(well, spectrum=spectrum)
    assert float(meta["u-cir"]) == cir.u_cir
    assert int(meta["n-used"]) == spectrum.n_states - 1
    assert abs(cir.inverse - q.u_cir_with_continuum(well).inverse) < 1e-9
    assert abs(cir.inverse - box_channel_sum(well, 0.0)) < 1e-9
    psi0 = float(spectrum.origin_amplitudes[0])
    for row in rows:
        u = float(row["u"])
        assert float(row["u1d"]) == pytest.approx(
            u * psi0 ** 2 / (1.0 - u * cir.inverse), rel=1e-14)


def test_single_sums_a_pinned_continuum_sector_as_given(tmp_path, capsys):
    # the width-3 well binds three states below the band; pinned to two,
    # the bound sum holds one channel, as it would for any other trap
    out = tmp_path / "s.csv"
    assert run_cli(["single", *_SWEEP, "--trap", "tabulated",
                    "--values=-1:-2.2,0:-2.2,1:-2.2", "--asymptote", "1",
                    "--n-states", "2", "--output", str(out)], capsys)[0] == 0
    meta, _ = read_csv(out)
    well = q.Tabulated.from_mapping({-1: -2.2, 0: -2.2, 1: -2.2}, 1.0)
    pinned = q.u_cir_with_continuum(
        well, spectrum=q.solve_transverse(well, n_states=2))
    assert (meta["n-states"], meta["n-used"]) == ("2", "1")
    assert float(meta["u-cir"]) == pinned.u_cir
    assert pinned.u_cir != q.u_cir_with_continuum(well).u_cir
    # the delta well binds one state: asking for two leaks (exit 3)
    expect_error(["single", *_SWEEP, *_CONTINUUM_TRAPS["delta-well"],
                  "--n-states", "2", "--output", str(out)], capsys, 3,
                 "EdgeLeak")


@pytest.mark.parametrize("trap", list(_CONTINUUM_TRAPS))
def test_transverse_takes_a_continuum_trap(tmp_path, capsys, trap):
    out = tmp_path / "t.csv"
    assert run_cli(["transverse", *_CONTINUUM_TRAPS[trap],
                    "--output", str(out)], capsys)[0] == 0
    assert len(read_csv(out)[1]) >= 1


def test_parser_built_once_and_left_as_it_was(tmp_path, capsys):
    cli.build_parser.cache_clear()
    args = ["ring", "--trap", "two-site", "--v", "1.0", "--length", "10",
            "--u-from", "-1", "--u-to", "1", "--points", "3"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli([*args, "--crossings", "--output", str(first)],
                   capsys)[0] == 0
    assert run_cli([*args, "--output", str(second)], capsys)[0] == 0
    assert cli.build_parser.cache_info().misses == 1
    # the first call's switch does not carry into the second
    config = json.loads(
        (tmp_path / "b.csv.manifest.json").read_text())["config"]
    assert config["crossings"] is False
    assert (tmp_path / "a_crossings.csv").exists()
    assert not (tmp_path / "b_crossings.csv").exists()


def test_parser_takes_exactly_the_subcommand_options():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli.DEFAULTS)
    for name, sub in subparsers.choices.items():
        dests = {action.dest for action in sub._actions} - {"help"}
        assert dests == set(cli.DEFAULTS[name]) | {"config"}, name


def test_figure_rejects_output(tmp_path, capsys):
    # not even as an abbreviation of --output-dir
    out = tmp_path / "x.csv"
    expect_error(["figure", "fig2", "--output", str(out)], capsys, 2,
                 "ConfigError")
    assert not out.exists()


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the auto grid reaches its cap before 1/U_CIR settles (the cap is
    # lowered to 80 here: at omega = 1e-4 half-widths 40 and 80 differ)
    monkeypatch.setattr(traps, "_MAX_AUTO_Y", 80)
    expect_error(["single", "--trap", "harmonic", "--omega", "1e-4",
                  "--u-from", "-1", "--u-to", "1", "--points", "3",
                  "--output", str(tmp_path / "x.csv")],
                 capsys, 3, "NoConvergence")


def test_regime_violation_exit_code(tmp_path, capsys):
    # at k = 2.5 an excited transverse channel is open
    expect_error(["single", "--trap", "harmonic", "--omega", "0.1",
                  "--n-states", "21", "--k", "2.5", "--u-from", "-1",
                  "--u-to", "1", "--points", "3",
                  "--output", str(tmp_path / "x.csv")],
                 capsys, 4, "OpenChannel")


def test_unknown_figure(capsys):
    expect_error(["figure", "fig9"], capsys, 2, "UnknownFigure")


# ------------------------------------------------------------------ figures


def test_figure_recipes_resolve():
    expected = {"fig1": "single", "fig2": "continuum", "fig3": "ring",
                "fig4": "twobody", "fig5": "twobody"}
    for name, subcommand in expected.items():
        recipe = cli.figure_recipe(name)
        assert recipe.subcommand == subcommand
        assert recipe.options["output"] == f"{name}.csv"
        assert len(recipe.config_hash()) == 12
    with pytest.raises(q.UnknownFigure):
        cli.figure_recipe("fig0")


# Config hashes of every recipe and every subcommand's defaults: every
# key, default value and value type must stay in place.  single,
# twobody, continuum and their recipes moved once, when the n_cut,
# tail_tol, quad_tol and method keys were retired.
_RECIPE_HASHES = {"fig1": "feae5c26fd65", "fig2": "a5b62fdc8171",
                  "fig3": "871d66dc541b", "fig4": "92407a7886e3",
                  "fig5": "463b067821b6"}
_DEFAULT_HASHES = {
    "transverse": "f0c6ffd20748", "single": "352e280a97cf",
    "continuum": "e0215195462f", "ring": "2d1df7730d1e",
    "twobody": "d439e27ab83d", "spa-fit": "831fef652b64",
    "resonances": "30c2ef44a6f2", "oracle": "195b56eafc6e",
    "figure": "88b79525d0f0",
}


def test_config_hashes_pinned():
    for name, expected in _RECIPE_HASHES.items():
        assert cli.figure_recipe(name).config_hash() == expected, name
    assert set(_DEFAULT_HASHES) == set(cli.SUBCOMMANDS)
    for sub, expected in _DEFAULT_HASHES.items():
        config = cli.RunConfig(sub, cli.DEFAULTS[sub])
        assert config.config_hash() == expected, sub


def test_figure_fig5_end_to_end(tmp_path, capsys):
    code, stdout, _ = run_cli(["figure", "fig5", "--output-dir",
                               str(tmp_path)], capsys)
    assert code == 0
    meta, rows = read_csv(tmp_path / "fig5.csv")
    assert len(rows) == 600
    assert float(meta["r-entrance"]) == pytest.approx(0.2297233270802732,
                                                      rel=1e-12)
    _, res_rows = read_csv(tmp_path / "fig5_resonances.csv")
    visible = [r for r in res_rows if r["visible"] == "True"]
    assert len(visible) == 4
    assert float(visible[0]["u"]) == pytest.approx(-8.286470998861734,
                                                   rel=1e-10)


def test_figure_fig1_end_to_end(tmp_path, capsys):
    code, _, _ = run_cli(["figure", "fig1", "--output-dir", str(tmp_path)],
                         capsys)
    assert code == 0
    meta, rows = read_csv(tmp_path / "fig1.csv")
    assert len(rows) == 600
    assert float(meta["u-cir"]) == pytest.approx(-2.762302199601078,
                                                 rel=1e-12)


def _package_env():
    # the child interpreter imports the package these tests import, also
    # when pytest found it through its own `pythonpath` setting
    package_root = str(Path(q.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_cold_start_defers_integrate_and_optimize(tmp_path):
    # scipy.integrate and scipy.optimize cost most of a fresh import,
    # and no package module imports either
    twobody = ["twobody", "--trap", "two-site", "--v", "1.0",
               "--u-from", "-2", "--u-to", "-1", "--points", "5",
               "--output", str(tmp_path / "t.csv")]
    # a ring sweep polishes its roots without scipy.optimize
    ring = ["ring", "--trap", "harmonic", "--omega", "0.1", "--n-states",
            "21", "--length", "50", "--crossings", "--u-from", "-20",
            "--u-to", "20", "--points", "6", "--output",
            str(tmp_path / "r.csv")]
    continuum = ["continuum", "--v0-from", "0.1", "--v0-to", "10",
                 "--points", "5", "--output", str(tmp_path / "c.csv")]
    for argv in (twobody, ring, continuum):
        script = f"""
import json, sys
from q1dscatter import cli
lazy = ("scipy.integrate", "scipy.optimize")
after_import = [m for m in lazy if m in sys.modules]
code = cli.main({argv!r})
print(json.dumps([after_import, code, [m for m in lazy if m in sys.modules]]))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=_package_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]


def test_cold_start_imports_only_the_modules_a_subcommand_runs(tmp_path):
    """``import q1dscatter.cli`` loads only ``errors`` and ``traps``;
    each subcommand then loads its own physics modules, and only the
    oracle loads ``scipy.sparse`` (ARPACK and SuperLU)."""
    out = str(tmp_path)
    runs = [
        ["transverse", "--trap", "harmonic", "--omega", "0.1",
         "--n-states", "21", "--output", f"{out}/t.csv"],
        ["twobody", "--trap", "two-site", "--v", "1.0", "--u-from", "-2",
         "--u-to", "-1", "--points", "5", "--output", f"{out}/p.csv"],
        ["figure", "fig2", "--output-dir", out],
        ["oracle", "--validate", "--trap", "two-site", "--v", "1.0",
         "--u", "-2.0", "--lx", "100", "--output", f"{out}/o.csv"],
    ]
    script = f"""
import json, sys
loaded = lambda: sorted(m for m in sys.modules
                        if m.startswith("q1dscatter") or m == "scipy.sparse")
from q1dscatter import cli
steps = [loaded()]
for argv in {runs!r}:
    assert cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    base = ["q1dscatter", "q1dscatter.cli", "q1dscatter.errors",
            "q1dscatter.traps"]
    pair = sorted(base + ["q1dscatter.single_particle",
                          "q1dscatter.two_body"])
    assert steps == [
        base,  # import
        base,  # transverse
        pair,  # twobody
        sorted(pair + ["q1dscatter.continuum"]),  # figure fig2
        sorted(pair + ["q1dscatter.continuum", "q1dscatter.oracle",
                       "scipy.sparse"]),  # oracle
    ]


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos call the library as a user would: a changed signature
    # breaks them; run in tmp_path, where a demo may save its figure
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=_package_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "e.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "q1dscatter.cli", "transverse", "--trap",
         "two-site", "--v", "1.0", "--output", str(out)],
        capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0
    assert out.exists()


# ------------------------------------------------------------------- README

_README_RUNS = {
    "transverse": ("--trap", "two-site", "--v", "1.0"),
    "single": ("--trap", "two-site", "--v", "1.0", *_SWEEP),
    "continuum": ("--v0-from", "1", "--v0-to", "2", "--points", "2"),
    "ring": ("--trap", "two-site", "--v", "1.0", "--length", "10", *_SWEEP),
    "twobody": ("--trap", "two-site", "--v", "1.0", *_SWEEP),
    "spa-fit": ("--trap", "harmonic", "--omega", "0.1", "--n-states", "21",
                "--u-from", "-1000", "--u-to", "-900", "--points", "50"),
    "resonances": ("--trap", "two-site", "--v", "1.0"),
    "oracle": ("--validate", "--trap", "two-site", "--v", "1.0", "--mode",
               "single", "--u", "-2", "--lx", "100"),
}


def _readme_csv_table():
    """The README's "Subcommands and their CSV columns" table, as
    subcommand -> (Columns cell, Extra outputs cell)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("Subcommands and their CSV columns:", 1)[1]
    rows = []
    for line in lines.strip().splitlines():
        if not line.startswith("|"):
            break
        # the last cell may hold a pipe of its own, as in ``|a|``
        rows.append([cell.strip() for cell in line.strip().strip("|")
                     .split("|", 2)])
    return {name.strip("`"): (columns, extra)
            for name, columns, extra in rows[2:]}


def test_readme_csv_table_lists_every_subcommand():
    assert set(_readme_csv_table()) == set(cli.SUBCOMMANDS)
    assert set(_README_RUNS) == set(cli.SUBCOMMANDS) - {"figure"}


@pytest.mark.parametrize("subcommand", list(_README_RUNS))
def test_readme_csv_table_matches_the_csv(subcommand, tmp_path, capsys):
    """The header row is the Columns cell, and every backticked ``meta:``
    key of the Extra outputs cell is in the ``#`` block."""
    columns, extra = _readme_csv_table()[subcommand]
    out = tmp_path / "x.csv"
    code, _, _ = run_cli([subcommand, *_README_RUNS[subcommand],
                          "--output", str(out)], capsys)
    assert code == 0
    meta, _ = read_csv(out)
    header = next(line for line in out.read_text().splitlines()
                  if not line.startswith("#"))
    assert header.split(",") == columns.strip("`").split(", ")
    keys = re.findall(r"`([^`]+)`", extra) if extra.startswith("meta:") \
        else []
    assert set(keys) <= set(meta), extra
