import os
import re
from pathlib import Path

import numpy as np
import pytest

from dncbands import cli
from dncbands.cli import FLAGS, build_parser, main, read_csv, read_data_csv
from dncbands.config import (
    KEYS,
    ConfigError,
    RunConfig,
    config_hash,
    make_config,
    parse_config_text,
    serialize_config,
)
from dncbands.diagnostics import variance_proxy
from dncbands.kernels import KernelSpec, SpectralModel
from dncbands.krr import penalty_schedule

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
    "bootstrap.replicates",
    "bootstrap.scheme",
    "dgp.n",
    "dgp.table",
    "diagnostics.rhos",
    "diagnostics.truncation",
    "grid.p",
    "grid.t",
    "grid.trials",
    "kernel.lengthscale",
    "kernel.nu",
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
    # removed keys are rejected like any unknown key
    for line in ("kernel.family = matern\n", "grid.full_scale = true\n",
                 "kernel.output_scale = 1.0\n", "dgp.true_function = table\n",
                 "bootstrap.multiplier = gaussian\n", "diagnostics.enabled = true\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line)


def test_flags_override_config_keys():
    keys = parse_config_text(serialize_config(RunConfig())).keys()
    assert {key for key, _ in FLAGS.values()} <= set(keys)


def test_flag_types_are_the_config_key_types():
    argv = ["coverage"]
    for flag in FLAGS:
        argv += [flag, "1"]
    args = vars(build_parser().parse_args(argv))
    for flag, (key, _) in FLAGS.items():
        assert type(args[key]) is KEYS[key][1], flag


def test_the_full_scale_switch_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dry-run", "--full-scale"])
    assert exc.value.code == 2
    assert "--full-scale" in capsys.readouterr().err


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
    # the empty default table is the sine; a table of one pair is no truth
    with pytest.raises(ConfigError, match="at least two"):
        make_config({"dgp.table": ((0.5, 1.0),)})
    cfg = make_config({"dgp.table": ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))})
    assert make_config(parse_config_text(serialize_config(cfg))) == cfg
    # a coverage run on the triangular-bump target goes end to end
    file_cfg = tmp_path / "run.cfg"
    file_cfg.write_text(
        "dgp.n = 256\ndgp.table = 0:0; 0.5:1; 1:0\n"
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


def test_config_hash_covers_the_table():
    # every table is the truth, so every table enters the hash
    with_table = make_config({"dgp.table": ((0.0, 0.0), (1.0, 1.0))})
    other = make_config({"dgp.table": ((0.0, 0.0), (1.0, 2.0))})
    assert len({config_hash(make_config({})), config_hash(with_table), config_hash(other)}) == 3


def test_default_config_hash():
    # changes only when a key is added, removed or given a new default
    assert config_hash(RunConfig()) == "f96315c05382"


def test_full_scale_grid_dimensions():
    # the paper's grid: N=2^16, P=2^6..2^12, T=2..2^9, 2000 trials per cell
    raw = parse_config_text((DEMOS / "full_scale.cfg").read_text(encoding="utf-8"))
    assert sorted(raw) == ["dgp.n", "grid.p", "grid.t", "grid.trials"]
    cfg = make_config(raw)
    assert cfg.dgp_n == 2**16
    assert cfg.grid_p == tuple(2**k for k in range(6, 13))
    assert cfg.grid_t == tuple(2**k for k in range(1, 10))
    assert cfg.grid_trials == 2000


def test_resolving_lengthscale_grid_is_the_full_scale_grid_at_lengthscale_0_2():
    literal = parse_config_text((DEMOS / "full_scale.cfg").read_text(encoding="utf-8"))
    resolving = parse_config_text((DEMOS / "full_scale_ls02.cfg").read_text(encoding="utf-8"))
    assert resolving == {**literal, "kernel.lengthscale": 0.2}


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

        # every row one field too wide: numpy reads it, the header check does not
        wide_rows = tmp_path / f"{name}_w.csv"
        wide_rows.write_text(f"{header}\n0.1,2.0,3.0\n0.2,3.0,4.0\n")
        with pytest.raises(ValueError, match="line 2: expected 2 fields, got 3"):
            read_csv(wide_rows, with_y)

        bad_value = tmp_path / f"{name}_v.csv"
        bad_value.write_text(f"{header}\n0.1,huh\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(bad_value, with_y)

        # a comment and a blank line still count as file lines
        commented = tmp_path / f"{name}_c.csv"
        commented.write_text(f"# note\n{header}\n\n0.1,2.0\n0.5\n")
        with pytest.raises(ValueError, match="line 5"):
            read_csv(commented, with_y)

        # parsed floats that are not finite are rejected like non-numbers
        non_finite = tmp_path / f"{name}_f.csv"
        non_finite.write_text(f"{header}\n0.1,2.0\n0.2,-inf\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            read_csv(non_finite, with_y)

        header_only = tmp_path / f"{name}_e.csv"
        header_only.write_text(f"{header}\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(header_only, with_y)

        # Excel's "CSV UTF-8" starts with a byte-order mark, which is not data
        bom = tmp_path / f"{name}_b.csv"
        bom.write_bytes(f"\ufeff{header}\n0.1,2.0\n".encode())
        assert read_csv(bom, with_y).tolist() == [[0.1, 2.0]]

        # a byte that is not UTF-8 is named with the file and its line
        undecodable = tmp_path / f"{name}_u.csv"
        undecodable.write_bytes(f"{header}\n0.1,2.0\n0.2,3\xff\n".encode("latin-1"))
        with pytest.raises(ValueError, match=f"{re.escape(str(undecodable))}: line 3: .*0xff"):
            read_csv(undecodable, with_y)

    with pytest.raises(ValueError, match="line 3"):
        read_data_csv(tmp_path / "data_s.csv")


@pytest.fixture
def reader_passes(monkeypatch):
    """The ``scan`` flag of each pass that read_csv makes over its file."""
    passes = []
    real = cli._read_csv

    def recorded(path, with_y, scan):
        passes.append(scan)
        return real(path, with_y, scan=scan)

    monkeypatch.setattr(cli, "_read_csv", recorded)
    return passes


def hard_value_rows(rng, n, d):
    """Rows of values that stress a float parser, each paired with its text."""
    specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                1e-300, 0.1, 1 / 3, -123456789.12345678, 2.0**-1074 * 3]
    rows = []
    for i in range(n):
        values = [float(rng.choice(specials)) if rng.uniform() < 0.3
                  else float(rng.normal() * 10.0 ** rng.integers(-30, 30)) for _ in range(d)]
        texts = []
        for j, v in enumerate(values):
            text = repr(v)  # the 17-digit form
            if (i + j) % 3 == 1:
                text = f"{v:.6e}"  # an exponent form that is not the repr
                values[j] = float(text)
            if (i + j) % 5 == 2 and not text.startswith("-"):
                text = "+" + text
            texts.append(" " * ((i + j) % 2) + text + "\t" * ((i + j) % 4 == 3))
        rows.append((values, ",".join(texts)))
    return rows


@pytest.mark.parametrize("with_y, d", [(True, 1), (True, 3), (False, 1), (False, 3)])
def test_read_csv_bitwise_equals_float_per_field(tmp_path, reader_passes, with_y, d):
    # numpy's reader parses every row, with no line-by-line rescan, and
    # gives the bytes that float() gives field by field
    rng = np.random.default_rng(26)
    width = d + with_y
    lines = [",".join(f"x{j + 1}" for j in range(d)) + ",y" * with_y]
    reference = []
    for k, (values, text) in enumerate(hard_value_rows(rng, 400, width)):
        if k % 37 == 5:
            lines.append("")
        if k % 41 == 7:
            lines.append("# a comment between rows")
        if k % 43 == 9:
            lines.append(" \t ")
        if k % 47 == 11:
            lines.append("   # an indented comment")
        lines.append(text)
        reference.append([float(field) for field in text.split(",")])
        assert reference[-1] == values
    path = tmp_path / "hard.csv"
    path.write_text("\n".join(lines) + "\n")
    got = read_csv(path, with_y)
    assert reader_passes == [False]
    assert got.shape == (400, width)
    assert got.tobytes() == np.array(reference).tobytes()
    tiny = np.abs(got[got != 0]) < 2.2250738585072014e-308
    assert np.signbit(got[got == 0]).any() and tiny.any()  # -0.0 and subnormals


def test_read_csv_inputs_whose_outcome_is_declared(tmp_path, reader_passes):
    cases = {
        # numpy's reader ends a row at "#", so a trailing note is a comment
        "x1,y  # names\n0.1,2.0 # note\n": ([[0.1, 2.0]], [False]),
        # numpy rejects this; the line-by-line reader reads it as before
        "x1,y\n1_000,2\n": ([[1000.0, 2.0]], [False, True]),
        # lines are stripped on the left, so numpy skips these as blank and comment
        "x1,y\n0.1,2.0\n  \n  # indented\n0.2,3\n": ([[0.1, 2.0], [0.2, 3.0]], [False]),
    }
    for k, (text, (rows, passes)) in enumerate(cases.items()):
        path = tmp_path / f"case{k}.csv"
        path.write_text(text)
        reader_passes.clear()
        assert read_csv(path, True).tolist() == rows
        assert reader_passes == passes


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
    from dncbands.krr import Sample, fit, predict

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


@pytest.mark.parametrize("command", ["fit", "coverage"])
def test_failed_partition_fit_exits_2_with_a_message(tmp_path, capsys, command):
    # at penalty.c = 1e-20 every jitter of the ladder fails: on fit's 8
    # covariates, each repeated 4 times, and on coverage's 64-row partitions
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n" + "".join(f"{i / 7},{j / 10}\n" for i in range(8) for j in range(4)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("penalty.c = 1e-20\ndgp.n = 256\ngrid.p = 4\ngrid.trials = 2\n")
    argv = {
        "fit": ["fit", "--data", data, "--partitions", 1],
        "coverage": ["coverage"],
    }[command]
    assert run_cli([*argv, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("error: fit failed on partition 0: ")


def test_cmd_fit_divisibility_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=6, seed=4)
    code = run_cli(["fit", "--data", data, "--out", tmp_path / "o", "--partitions", 4])
    assert code == 2
    assert "does not divide" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing data", "missing config", "data is a directory",
                                  "missing prediction.path"])
def test_file_errors_exit_2_with_a_message(tmp_path, capsys, case):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=4, seed=11)
    missing = tmp_path / "missing"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"prediction.path = {missing}\npartitions = 1\n")
    argv = {
        "missing data": ["fit", "--data", missing],
        "missing config": ["coverage", "--config", missing],
        "data is a directory": ["bands", "--data", tmp_path],
        "missing prediction.path": ["fit", "--data", data, "--config", cfg],
    }[case]
    assert run_cli([*argv, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cmd_bands_resolution_guard(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_training_csv(data, n=8, seed=5)
    code = run_cli(
        ["bands", "--data", data, "--out", tmp_path / "o", "--partitions", 2,
         "--replicates", 100, "--alpha", "0.05"]
    )
    assert code == 2
    assert "resolution guard" in capsys.readouterr().err


def test_cmd_bands_rejects_one_partition_before_reading_data(tmp_path, capsys):
    # with one partition every bootstrap delta is 0, so lower == upper == f_bar
    data = tmp_path / "data.csv"
    write_training_csv(data, n=200, seed=5)
    out = tmp_path / "o"
    assert run_cli(["bands", "--data", data, "--out", out, "--partitions", 1]) == 2
    assert "partitions >= 2" in capsys.readouterr().err
    assert not out.exists()
    missing = tmp_path / "missing.csv"
    assert run_cli(["bands", "--data", missing, "--out", out, "--partitions", 1]) == 2
    assert "partitions >= 2" in capsys.readouterr().err


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


def test_cmd_dry_run_full_scale_counts_cells(capsys):
    assert run_cli(["dry-run", "--config", DEMOS / "full_scale.cfg"]) == 0
    out = capsys.readouterr().out
    assert "cells: 7x9=63" in out
    assert "N=65536" in out
    assert "pipeline runs: 7x2000=14000" in out
    assert "partition fits: 8128x2000=16256000" in out
    assert "N^((2br'-1)/(2br'+1)) = 5573.8 (b=8, r'=0.5)" in out


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_parse_validate_and_dry_run(path, capsys):
    make_config(parse_config_text(path.read_text(encoding="utf-8")))
    assert run_cli(["dry-run", "--config", path]) == 0
    assert "partition fits:" in capsys.readouterr().out


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
        "dgp.table = 1:0; 0:1; 0.5:2\n": "strictly increasing",
        "dgp.table = 0:0; 0:1\n": "strictly increasing",
        "dgp.table = 0:nan; 1:0\n": "finite",
        "seed = -1\n": "seed must be a non-negative integer, got -1",
        # a non-finite float fails its range check if it has one, else this
        "alpha = nan\n": "alpha must lie inside (0, 1), got nan",
        "penalty.c = inf\n": "penalty.c must be finite, got inf",
        "diagnostics.rhos = 1e-3, nan\n": "diagnostics.rhos must be finite, got (0.001, nan)",
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
    kernel = KernelSpec()
    rho = penalty_schedule(100, kernel.decay_exponent(1), 0.5, 1.0)
    expected = variance_proxy(SpectralModel.from_matern(kernel, 1, 10), 25, rho)
    assert float(proxy[0].split(",")[2]) == expected


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
