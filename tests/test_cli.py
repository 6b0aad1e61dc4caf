"""Command-line front end: flag parsing, config precedence, CSV and
manifest output, reproducibility, exit codes, figure recipes."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import q1dscatter as q
from q1dscatter import cli


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
    meta, rows = read_csv(out)
    assert not {"eigen_residual", "unknowns"} & set(rows[0])
    assert not {"eigen-residual", "unknowns"} & set(meta)
    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["oracle", "--config",
                          str(tmp_path / "o.csv.manifest.json"),
                          "--output", str(replay)], capsys)
    assert code == 0
    assert out.read_bytes() == replay.read_bytes()


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


def test_kernel_diagnostics_in_manifest_only(tmp_path, capsys):
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
    # solver internals stay out of the CSV, so a replay is byte-identical
    meta, _ = read_csv(out)
    assert not {"collision-sites", "numerical-rank"} & set(meta)
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
    assert diag["collision_sites"] == 81
    assert 0 < diag["numerical_rank"] <= 81
    assert diag["min_abs_denominator"] > 0.0


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
    out = tmp_path / "c.csv"
    run_cli(["continuum", "--v0-from", "1", "--v0-to", "2", "--points", "2",
             "--output", str(out)], capsys)
    manifest = tmp_path / "c.csv.manifest.json"
    payload = json.loads(manifest.read_text())
    payload["config"]["method"] = "gird"
    manifest.write_text(json.dumps(payload))
    expect_error(["continuum", "--config", str(manifest)], capsys, 2,
                 "ConfigError")


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


def test_solver_failure_exit_code(tmp_path, capsys):
    # pinned basis too small for the channel tail tolerance
    expect_error(["single", "--trap", "harmonic", "--omega", "1e-3",
                  "--n-states", "40", "--u-from", "-1", "--u-to", "1",
                  "--points", "3", "--output", str(tmp_path / "x.csv")],
                 capsys, 3, "TailTooLarge")


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


# Config hashes before the option table replaced the hand-written
# defaults: every key, default value and value type must stay in place.
_RECIPE_HASHES = {"fig1": "ae12419c3f8e", "fig2": "e6c07d7c0436",
                  "fig3": "871d66dc541b", "fig4": "08977c97c48f",
                  "fig5": "222c29be1dd8"}
_DEFAULT_HASHES = {
    "transverse": "f0c6ffd20748", "single": "3b675edec33f",
    "continuum": "05e319678546", "ring": "2d1df7730d1e",
    "twobody": "c42bfb0a7acb", "spa-fit": "831fef652b64",
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


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "e.csv"
    # the child interpreter imports the package these tests import, also
    # when pytest found it through its own `pythonpath` setting
    package_root = str(Path(q.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "q1dscatter.cli", "transverse", "--trap",
         "two-site", "--v", "1.0", "--output", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.exists()
