import os
import re
from pathlib import Path

import numpy as np
import pytest

from dncbands.cli import FLAGS, main, read_csv, read_data_csv
from dncbands.config import (
    ConfigError,
    RunConfig,
    config_hash,
    effective_grid,
    make_config,
    parse_config_text,
    serialize_config,
)


def write_training_csv(path, n=8, d=1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, d))
    y = np.sin(2 * np.pi * x[:, 0]) + rng.normal(size=n)
    header = ",".join(f"x{j + 1}" for j in range(d)) + ",y"
    rows = [
        ",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}"
        for i, row in enumerate(x)
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return x, y


def test_config_round_trip_is_identity():
    cfg = make_config(
        {
            "alpha": 0.1,
            "grid.p": (8, 16),
            "kernel.lengthscale": 0.2,
            "grid.full_scale": True,
            "prediction.path": "",
            "dgp.table": ((0.0, 0.0), (0.25, -1.5), (1.0, 1e-3)),
            "diagnostics.rhos": (0.1, 2.5e-7),
            "rate.ns": (256, 1024),
        }
    )
    again = make_config(parse_config_text(serialize_config(cfg)))
    assert again == cfg


PUBLIC_KEYS = [
    "alpha",
    "bootstrap.multiplier",
    "bootstrap.replicates",
    "bootstrap.scheme",
    "dgp.n",
    "dgp.table",
    "dgp.true_function",
    "diagnostics.enabled",
    "diagnostics.rhos",
    "diagnostics.truncation",
    "grid.full_scale",
    "grid.p",
    "grid.t",
    "grid.trials",
    "kernel.lengthscale",
    "kernel.nu",
    "kernel.output_scale",
    "output.dir",
    "partitions",
    "penalty.c",
    "penalty.r_prime",
    "prediction.count",
    "prediction.path",
    "rate.ns",
    "rate.reps",
    "seed",
    "threads",
]


def test_config_keys_are_the_documented_set():
    # keys are derived from RunConfig's field names; renaming a field must
    # not silently rename a key
    keys = parse_config_text(serialize_config(RunConfig())).keys()
    assert sorted(keys) == PUBLIC_KEYS
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("kernel.family = matern\n")


def test_flags_override_config_keys():
    keys = parse_config_text(serialize_config(RunConfig())).keys()
    assert {key for key, _, _ in FLAGS.values()} <= set(keys)


def test_readme_config_block_is_the_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    assert make_config(parse_config_text(blocks[0])) == RunConfig()


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus.key = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("alpha = 0.1\nalpha = 0.2\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("alpha = 0.1\nnot a pair\n")
    with pytest.raises(ConfigError, match="could not parse"):
        parse_config_text("alpha = maybe\n")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        make_config({"alpha": 1.5})
    with pytest.raises(ConfigError):
        make_config({"kernel.nu": 2.0})
    with pytest.raises(ConfigError):
        make_config({"threads": 0})
    with pytest.raises(ConfigError):
        make_config({"penalty.r_prime": 0.3})
    with pytest.raises(ConfigError):
        make_config({"bootstrap.scheme": "wild"})
    with pytest.raises(ConfigError, match="grid.p has repeated values"):
        make_config({"grid.p": (16, 64, 16)})
    with pytest.raises(ConfigError, match="grid.t has repeated values"):
        make_config({"grid.t": (4, 4)})
    with pytest.raises(ConfigError, match="grid.trials must be at least 1, got 0"):
        make_config({"grid.trials": 0})


def test_comments_and_blank_lines_ignored():
    raw = parse_config_text("# comment\n\nalpha = 0.2  # trailing\n")
    assert raw == {"alpha": 0.2}


def test_table_true_function_config(tmp_path, capsys):
    with pytest.raises(ConfigError, match="at least two"):
        make_config({"dgp.true_function": "table"})
    cfg = make_config(
        {"dgp.true_function": "table", "dgp.table": ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))}
    )
    assert make_config(parse_config_text(serialize_config(cfg))) == cfg
    # a coverage run on the triangular-bump target goes end to end
    file_cfg = tmp_path / "run.cfg"
    file_cfg.write_text(
        "dgp.n = 256\ndgp.true_function = table\ndgp.table = 0:0; 0.5:1; 1:0\n"
        "grid.p = 8\ngrid.t = 2\ngrid.trials = 2\nbootstrap.replicates = 200\n"
        "kernel.lengthscale = 0.2\n"
    )
    out = tmp_path / "o"
    assert run_cli(["coverage", "--config", file_cfg, "--out", out]) == 0
    assert (out / "coverage.csv").exists()


def test_config_hash_ignores_execution_keys():
    base = make_config({})
    assert config_hash(base) == config_hash(make_config({"threads": 7}))
    assert config_hash(base) == config_hash(make_config({"output.dir": "elsewhere"}))
    assert config_hash(base) != config_hash(make_config({"alpha": 0.2}))


def test_full_scale_grid_dimensions():
    n, grid_p, grid_t, trials = effective_grid(make_config({"grid.full_scale": True}))
    assert n == 2**16
    assert len(grid_p) == 7 and len(grid_t) == 9
    assert trials == 2000


def test_read_data_csv_errors(tmp_path):
    # the training-data file (trailing y column) and the points file share
    # one reader; both reject the same malformed inputs
    for name, with_y, header in (("data", True, "x1,y"), ("points", False, "x1,x2")):
        bad_header = tmp_path / f"{name}_h.csv"
        bad_header.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(bad_header, with_y)

        short_row = tmp_path / f"{name}_s.csv"
        short_row.write_text(f"{header}\n0.1,2.0\n0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(short_row, with_y)

        bad_value = tmp_path / f"{name}_v.csv"
        bad_value.write_text(f"{header}\n0.1,huh\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(bad_value, with_y)

        # a comment and a blank line still count as file lines
        commented = tmp_path / f"{name}_c.csv"
        commented.write_text(f"# note\n{header}\n\n0.1,2.0\n0.5\n")
        with pytest.raises(ValueError, match="line 5"):
            read_csv(commented, with_y)

        header_only = tmp_path / f"{name}_e.csv"
        header_only.write_text(f"{header}\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(header_only, with_y)

    with pytest.raises(ValueError, match="line 3"):
        read_data_csv(tmp_path / "data_s.csv")


def test_read_data_csv_multi_dimensional(tmp_path):
    path = tmp_path / "d2.csv"
    write_training_csv(path, n=6, d=2, seed=1)
    x, y = read_data_csv(path)
    assert x.shape == (6, 2) and y.shape == (6,)


def run_cli(args):
    return main([str(a) for a in args])


def test_cmd_fit_shapes(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=4, seed=2)
    out = tmp_path / "out"
    code = run_cli(
        ["fit", "--data", data, "--out", out, "--partitions", 1,
         "--prediction-count", 2, "--seed", 5]
    )
    assert code == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "master_seed=5" in lines[0]
    assert lines[1] == "t,x_tilde,f_bar"
    assert len(lines) == 2 + 2


def test_cmd_fit_single_partition_matches_library(tmp_path):
    from dncbands.kernels import KernelSpec
    from dncbands.krr import Sample, fit, penalty_schedule, predict

    data = tmp_path / "data.csv"
    x, y = write_training_csv(data, n=8, seed=3)
    out = tmp_path / "out"
    assert run_cli(
        ["fit", "--data", data, "--out", out, "--partitions", 1,
         "--prediction-count", 3, "--seed", 9]
    ) == 0
    lines = (out / "predictions.csv").read_text().splitlines()[2:]
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines])

    rho = penalty_schedule(8, 2 * 3.5 + 1, 0.5, 1.0)
    direct = predict(fit(Sample(x, y), KernelSpec(), rho), got[:, 1].reshape(-1, 1))
    assert np.allclose(got[:, 2], direct, rtol=1e-12)


def test_cmd_fit_reports_malformed_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0.1,1.0\n0.2,nope\n")
    code = run_cli(["fit", "--data", data, "--out", tmp_path / "o", "--partitions", 1])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_cmd_fit_divisibility_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=6, seed=4)
    code = run_cli(["fit", "--data", data, "--out", tmp_path / "o", "--partitions", 4])
    assert code == 2
    assert "does not divide" in capsys.readouterr().err


def test_cmd_bands_resolution_guard(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=8, seed=5)
    code = run_cli(
        ["bands", "--data", data, "--out", tmp_path / "o", "--partitions", 2,
         "--replicates", 100, "--alpha", "0.05"]
    )
    assert code == 2
    assert "resolution guard" in capsys.readouterr().err


def band_intervals_from_csv(path):
    lines = path.read_text().splitlines()[2:]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    return rows[:, 3], rows[:, 4]


def test_cmd_bands_monotone_in_alpha_and_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=32, seed=6)
    outs = {}
    for alpha in (0.05, 0.5):
        for tag in ("a", "b"):
            out = tmp_path / f"out_{alpha}_{tag}"
            assert run_cli(
                ["bands", "--data", data, "--out", out, "--partitions", 8,
                 "--replicates", 1000, "--alpha", alpha, "--seed", 31,
                 "--prediction-count", 5]
            ) == 0
            outs[(alpha, tag)] = out / "bands.csv"
    # determinism: byte-identical across invocations with the same seed
    assert outs[(0.05, "a")].read_bytes() == outs[(0.05, "b")].read_bytes()
    lo_wide, hi_wide = band_intervals_from_csv(outs[(0.05, "a")])
    lo_narrow, hi_narrow = band_intervals_from_csv(outs[(0.5, "a")])
    assert np.all(lo_wide <= lo_narrow) and np.all(hi_narrow <= hi_wide)


def test_cmd_coverage_aborts_on_bad_cells(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dgp.n = 100\ngrid.p = 8,7\ngrid.t = 2\ngrid.trials = 1\n")
    code = run_cli(["coverage", "--config", cfg, "--out", tmp_path / "o"])
    assert code == 2
    assert "do not divide" in capsys.readouterr().err


def test_cmd_coverage_writes_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dgp.n = 256\ngrid.p = 4\ngrid.t = 2,4\ngrid.trials = 2\n"
        "bootstrap.replicates = 200\nkernel.lengthscale = 0.2\nseed = 3\n"
    )
    out = tmp_path / "o"
    assert run_cli(["coverage", "--config", cfg, "--out", out]) == 0
    lines = (out / "coverage.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "log2" in lines[0]
    assert lines[1] == "p,t,trials,hits,coverage,ci_lo,ci_hi"
    assert len(lines) == 2 + 2
    row = lines[2].split(",")
    assert int(row[0]) == 4 and int(row[1]) == 2 and int(row[2]) == 2
    assert 0 <= int(row[3]) <= 2
    printed = capsys.readouterr().out
    assert "wrote" in printed and "coverage.csv" in printed


def test_cmd_coverage_with_diagnostics_columns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dgp.n = 256\ngrid.p = 8\ngrid.t = 2\ngrid.trials = 2\n"
        "bootstrap.replicates = 200\nkernel.lengthscale = 0.2\nseed = 4\n"
        "diagnostics.enabled = true\ndiagnostics.truncation = 100\n"
    )
    out = tmp_path / "o"
    assert run_cli(["coverage", "--config", cfg, "--out", out]) == 0
    lines = (out / "coverage.csv").read_text().splitlines()
    assert lines[1] == "p,t,trials,hits,coverage,ci_lo,ci_hi,variance_proxy,g_rho_est"
    row = lines[2].split(",")
    assert float(row[7]) > 0 and float(row[8]) > 0


def test_cmd_coverage_diagnostics_g_ratio_rises_in_t(tmp_path):
    # the cells of a row read nested column sets of one matrix, so the
    # smallest sd (the estimate's denominator) cannot rise with T
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dgp.n = 256\ngrid.p = 4,8\ngrid.t = 16,2,4\ngrid.trials = 1\n"
        "bootstrap.replicates = 200\nkernel.lengthscale = 0.2\nseed = 5\n"
        "diagnostics.enabled = true\ndiagnostics.truncation = 100\n"
    )
    out = tmp_path / "o"
    assert run_cli(["coverage", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in (out / "coverage.csv").read_text().splitlines()[2:]]
    for p in ("4", "8"):
        g = [float(r[8]) for r in sorted((r for r in rows if r[0] == p), key=lambda r: int(r[1]))]
        assert len(g) == 3 and all(np.isfinite(g))
        assert g[0] <= g[1] <= g[2]


def test_cmd_coverage_diagnostics_bootstrap_only_the_trials(tmp_path, monkeypatch):
    # diagnostics re-fit trial 0 of each row for its local matrix, with no bootstrap
    from dncbands import bootstrap

    calls = []
    draw = bootstrap.empirical_draws

    def counted(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "empirical_draws", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dgp.n = 256\ngrid.p = 4,8\ngrid.t = 2,4\ngrid.trials = 3\n"
        "bootstrap.replicates = 100\nkernel.lengthscale = 0.2\nseed = 6\n"
        "diagnostics.enabled = true\ndiagnostics.truncation = 100\n"
    )
    assert run_cli(["coverage", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert len(calls) == 2 * 3


def test_cmd_fit_two_dimensional_covariates(tmp_path):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=9, d=2, seed=12)
    out = tmp_path / "o"
    assert run_cli(
        ["fit", "--data", data, "--out", out, "--partitions", 3,
         "--prediction-count", 4, "--seed", 2]
    ) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[1] == "t,x_tilde_1,x_tilde_2,f_bar"
    assert len(lines) == 2 + 4


def test_cmd_dry_run_full_scale_counts_cells(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.full_scale = true\n")
    assert run_cli(["dry-run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "cells: 7x9=63" in out
    assert "N=65536" in out
    assert "pipeline runs: 7x2000=14000" in out
    assert "partition fits: 8128x2000=16256000" in out


def test_cmd_dry_run_prints_the_partition_bound(tmp_path, capsys):
    # N^((2br'-1)/(2br'+1)) with b = 2 nu + 1 = 8 and r' = 0.5: 4096^(7/9)
    assert run_cli(["dry-run"]) == 0
    out = capsys.readouterr().out
    assert "averaging-regime bound on P: N^((2br'-1)/(2br'+1)) = 645.1 (b=8, r'=0.5)" in out
    assert "above the bound" not in out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.p = 16,1024\ngrid.t = 4\n")
    assert run_cli(["dry-run", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  cell P=16 T=4" in lines
    assert "  cell P=1024 T=4  (P above the bound)" in lines


def test_cmd_dry_run_rejects_a_grid_coverage_rejects(tmp_path, capsys):
    configs = {
        "dgp.n = 100\ngrid.p = 8,7\ngrid.t = 2\ngrid.trials = 1\n":
            "partition counts [8, 7] do not divide N=100",
        "grid.trials = 0\n": "grid.trials must be at least 1, got 0",
        # DgpSpec's table rules, reached through validate_config
        "dgp.true_function = table\ndgp.table = 1:0; 0:1; 0.5:2\n": "strictly increasing",
        "dgp.true_function = table\ndgp.table = 0:0; 0:1\n": "strictly increasing",
        "dgp.true_function = table\ndgp.table = 0:nan; 1:0\n": "finite",
    }
    cfg = tmp_path / "run.cfg"
    for text, message in configs.items():
        cfg.write_text(text)
        for command in ("dry-run", "coverage"):
            assert run_cli([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert "partition fits" not in captured.out
    assert not (tmp_path / "o").exists()


def test_cmd_rate_csv(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rate.ns = 256,512\nrate.reps = 1\nkernel.lengthscale = 0.2\n")
    out = tmp_path / "o"
    assert run_cli(["rate", "--config", cfg, "--out", out]) == 0
    lines = (out / "rate.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n,partitions,median_sup_err"
    rows = [ln.split(",") for ln in lines[2:4]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(256, 16), (512, 32)]
    assert lines[-1].startswith("slope,,")
    assert len(lines) == 5


def test_cmd_diagnostics_single_eigenvalue_case(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diagnostics.truncation = 1\ndiagnostics.rhos = 1.0\n")
    out = tmp_path / "o"
    assert run_cli(["diagnostics", "--config", cfg, "--out", out]) == 0
    text = (out / "diagnostics.csv").read_text()
    trace_line = [ln for ln in text.splitlines() if ln.startswith("trace_bound")][0]
    fields = trace_line.split(",")
    assert float(fields[2]) == pytest.approx(0.25)
    assert float(fields[3]) == pytest.approx(0.5)


def test_cmd_diagnostics_fields_are_empty_or_numbers(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diagnostics.truncation = 50\ndiagnostics.rhos = 0.1, 1e-3\n")
    out = tmp_path / "o"
    assert run_cli(["diagnostics", "--config", cfg, "--out", out]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[1] == "check,param,value_a,value_b,ratio"
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 5
        for value in fields[1:]:
            assert value == "" or np.isfinite(float(value)), line


def test_cmd_diagnostics_rejects_partitions_not_dividing_n(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dgp.n = 100\npartitions = 7\ndiagnostics.truncation = 10\n")
    out = tmp_path / "o"
    assert run_cli(["diagnostics", "--config", cfg, "--out", out]) == 2
    assert "partitions=7 does not divide dgp.n=100" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()
    # a dividing count gives the proxy at the partition size s = N / P
    cfg.write_text("dgp.n = 100\npartitions = 4\ndiagnostics.truncation = 10\n")
    assert run_cli(["diagnostics", "--config", cfg, "--out", out]) == 0
    proxy = [ln for ln in (out / "diagnostics.csv").read_text().splitlines()
             if ln.startswith("variance_proxy,")]
    assert proxy[0].split(",")[1] == "25"


def test_output_dir_created_and_env_default(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=4, seed=8)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DNCBANDS_OUT", str(env_dir))
    assert run_cli(["fit", "--data", data, "--partitions", 1, "--prediction-count", 2]) == 0
    assert (env_dir / "predictions.csv").exists()
    # explicit flag wins over the environment
    flag_dir = tmp_path / "from_flag"
    assert run_cli(
        ["fit", "--data", data, "--partitions", 1, "--prediction-count", 2,
         "--out", flag_dir]
    ) == 0
    assert (flag_dir / "predictions.csv").exists()


def test_prediction_points_file(tmp_path):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=4, seed=10)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.25\n0.75\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"prediction.path = {pts}\npartitions = 1\n")
    out = tmp_path / "o"
    assert run_cli(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()[2:]
    xs = [float(ln.split(",")[1]) for ln in lines]
    assert xs == [0.25, 0.75]
