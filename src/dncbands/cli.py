"""Command-line entry point.

Subcommands wire the library into file-level workflows:

    fit          averaged predictions at the prediction set -> CSV
    bands        simultaneous confidence intervals -> CSV
    coverage     Monte Carlo coverage grid -> CSV
    rate         sup-norm rate study -> CSV
    diagnostics  spectral-model checks -> CSV
    dry-run      validate the config and print the planned grid

Value precedence, lowest to highest: built-in defaults, the
DNCBANDS_OUT environment variable (output directory only), the config
file, command-line flags.  Every CSV starts with a comment line
carrying the config hash and the master seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bands as bands_mod
from . import bootstrap as bootstrap_mod
from . import diagnostics as diag_mod
from . import dnc, krr, simulation
from .config import (
    RESOLUTION_GUARD,
    ConfigError,
    RunConfig,
    config_hash,
    effective_grid,
    make_config,
    parse_config_text,
)
from .kernels import SpectralModel, effective_dimension, effective_dimension_tail

ENV_OUTPUT_DIR = "DNCBANDS_OUT"


class DataError(ValueError):
    pass


def read_csv(path, with_y: bool) -> np.ndarray:
    """Numeric CSV with header x1..xd, plus a trailing y column if with_y.

    Returns the (rows, columns) float array; blank and ``#`` lines are
    skipped, and errors give the line's number in the file.
    """
    width = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            line = line.rstrip("\n")
            parts = [p.strip() for p in line.split(",")]
            if width is None:
                width = len(parts)
                dim = width - 1 if with_y else width
                expected = [f"x{j + 1}" for j in range(dim)] + (["y"] if with_y else [])
                if dim < 1 or parts != expected:
                    names = "x1..xd,y" if with_y else "x1..xd"
                    raise DataError(f"{path}: header must be {names}, got {line!r}")
                continue
            if len(parts) != width:
                raise DataError(f"{path}: line {lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_data_csv(path):
    """Training data CSV: header x1..xd,y; returns (X, y)."""
    rows = read_csv(path, with_y=True)
    return rows[:, :-1].copy(), rows[:, -1].copy()


def _metadata(cfg: RunConfig) -> str:
    return f"config_hash={config_hash(cfg)} master_seed={cfg.seed}"


def _write_csv(cfg: RunConfig, name, header, rows, note="") -> str:
    """Write ``name`` in the output directory, creating it; return the path.

    The file is the metadata comment (plus ``note``), the header and one
    line per row.  Floats are written as repr(float(v)), so they read
    back exactly; ints and strings as they are, so "" is an empty field.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_metadata(cfg)}{note}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
    return path


def _prediction_points(cfg: RunConfig, x: np.ndarray, seed):
    """Configured points file, or seeded uniforms in the data bounding box."""
    if cfg.prediction_path:
        pts = read_csv(cfg.prediction_path, with_y=False)
        if pts.shape[1] != x.shape[1]:
            raise DataError(
                f"prediction points have dimension {pts.shape[1]}, data has {x.shape[1]}"
            )
        return pts
    rng = np.random.default_rng(seed)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    return lo + (hi - lo) * rng.uniform(size=(cfg.prediction_count, x.shape[1]))


def _fit_pipeline(cfg: RunConfig, data_path):
    """Shared front half of fit/bands: data -> (matrix, points, seeds)."""
    x, y = read_data_csv(data_path)
    n_total = x.shape[0]
    root = np.random.SeedSequence(cfg.seed)
    s_plan, s_pred, s_boot = root.spawn(3)
    points = _prediction_points(cfg, x, s_pred)
    kernel = cfg.kernel_spec()
    rho = krr.penalty_schedule(
        n_total, kernel.decay_exponent(x.shape[1]), cfg.penalty_r_prime, cfg.penalty_c
    )
    sample = krr.Sample(x, y)
    plan = dnc.make_partition_plan(n_total, cfg.partitions, s_plan)
    matrix = dnc.fit_all_partitions(sample, plan, kernel, rho, points, threads=cfg.threads)
    return matrix, points, s_boot


def cmd_fit(cfg: RunConfig, data_path) -> list:
    matrix, points, _ = _fit_pipeline(cfg, data_path)
    dim = points.shape[1]
    xcols = ["x_tilde"] if dim == 1 else [f"x_tilde_{j + 1}" for j in range(dim)]
    rows = ((t, *points[t], matrix.row_mean[t]) for t in range(points.shape[0]))
    return [_write_csv(cfg, "predictions.csv", ["t", *xcols, "f_bar"], rows)]


def cmd_bands(cfg: RunConfig, data_path) -> list:
    if cfg.bootstrap_replicates < RESOLUTION_GUARD / cfg.alpha:
        raise ConfigError(
            f"bootstrap.replicates={cfg.bootstrap_replicates} is below the "
            f"resolution guard B >= {RESOLUTION_GUARD:.0f}/alpha = "
            f"{RESOLUTION_GUARD / cfg.alpha:.0f} for alpha={cfg.alpha}"
        )
    matrix, points, s_boot = _fit_pipeline(cfg, data_path)
    if cfg.bootstrap_scheme == "empirical":
        draws = bootstrap_mod.empirical_draws(matrix, cfg.bootstrap_replicates, s_boot)
    else:
        draws = bootstrap_mod.multiplier_draws(
            matrix, cfg.bootstrap_replicates, s_boot, cfg.bootstrap_multiplier
        )
    calibrated = bands_mod.calibrate(draws, cfg.alpha)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "bands.csv")
    bands_mod.save_bands_csv(out, points, matrix.row_mean, calibrated, metadata=_metadata(cfg))
    return [out]


def cmd_coverage(cfg: RunConfig) -> list:
    n_total, grid_p, grid_t, trials = effective_grid(cfg)
    dgp = simulation.DgpSpec(n_total, cfg.dgp_true_function, cfg.dgp_table)
    kernel = cfg.kernel_spec()
    report = simulation.run_coverage_grid(
        dgp, grid_p, grid_t, cfg.alpha, cfg.bootstrap_replicates, trials,
        cfg.seed, kernel=kernel, r_prime=cfg.penalty_r_prime,
        schedule_c=cfg.penalty_c, scheme=cfg.bootstrap_scheme,
        multiplier=cfg.bootstrap_multiplier, threads=cfg.threads,
    )
    header = ["p", "t", "trials", "hits", "coverage", "ci_lo", "ci_hi"]
    rows = [(c.partitions, c.points, c.trials, c.hits, c.coverage, *c.ci99) for c in report.cells]
    diag_header, diag = [], {}
    if cfg.diagnostics_enabled:
        diag_header = ["variance_proxy", "g_rho_est"]
        diag = _cell_diagnostics(cfg, dgp, kernel, grid_p, grid_t)
    out = _write_csv(
        cfg, "coverage.csv", header + diag_header,
        [row + diag.get(row[:2], ()) for row in rows], note=" axes=log2(P),log2(T),coverage",
    )
    print(",".join(header))
    for row in rows:
        print(*row[:4], *(f"{v:.4f}" for v in row[4:]), sep=",")
    return [out]


def _cell_diagnostics(cfg, dgp, kernel, grid_p, grid_t) -> dict:
    """(P, T) -> (variance proxy, estimated proxy-to-noise ratio)."""
    model = SpectralModel.from_matern(kernel, 1, cfg.diagnostics_truncation)
    rho = krr.penalty_schedule(
        dgp.n, kernel.decay_exponent(1), cfg.penalty_r_prime, cfg.penalty_c
    )
    row_seeds = np.random.SeedSequence(cfg.seed).spawn(len(grid_p))
    diag = {}
    for p, row_seed in zip(grid_p, row_seeds):
        s = dgp.n // p
        proxy = diag_mod.variance_proxy(model, s, rho)
        # re-derive the first trial of the row, at max(T), for the empirical floor
        trial_seed = row_seed.spawn(1)[0]
        matrix, _, _ = simulation._trial_matrix(dgp, max(grid_t), p, kernel, rho, trial_seed)
        for t in grid_t:
            head = dnc.LocalPredictionMatrix.from_values(matrix.values[:, :t])
            g_est = diag_mod.g_ratio_estimate(head, model, s, rho) if p > 1 else float("inf")
            diag[(p, t)] = (proxy, g_est)
    return diag


def cmd_rate(cfg: RunConfig) -> list:
    result = simulation.rate_study(
        cfg.rate_ns, cfg.penalty_r_prime, cfg.rate_reps, cfg.seed,
        kernel=cfg.kernel_spec(), schedule_c=cfg.penalty_c, threads=cfg.threads,
        true_function=cfg.dgp_true_function, table=cfg.dgp_table,
    )
    rows = [
        *zip(result.sizes, result.partition_counts, result.median_sup_errors),
        ("slope", "", result.slope),
    ]
    out = _write_csv(cfg, "rate.csv", ["n", "partitions", "median_sup_err"], rows)
    print(f"slope of log(median sup-err^2) vs log N: {result.slope}")
    return [out]


def cmd_diagnostics(cfg: RunConfig) -> list:
    if cfg.dgp_n % cfg.partitions != 0:
        raise ConfigError(
            f"partitions={cfg.partitions} does not divide dgp.n={cfg.dgp_n}"
        )
    kernel = cfg.kernel_spec()
    model = SpectralModel.from_matern(kernel, 1, cfg.diagnostics_truncation)
    rows = []
    for rho in cfg.diagnostics_rhos:
        check = diag_mod.check_trace_bound(model, rho)
        rows.append(("trace_bound", rho, check.lhs, check.rhs, check.ratio))
    for rho in cfg.diagnostics_rhos:
        rows.append(
            (
                "effective_dimension",
                rho,
                effective_dimension(model, rho),
                effective_dimension_tail(model, rho),
                "",
            )
        )
    # interpolation inequality over seeded random expansions
    j_interp = min(cfg.diagnostics_truncation, 256)
    interp_model = SpectralModel.polynomial(model.decay_exponent, j_interp)
    rng = np.random.default_rng(cfg.seed)
    grid = np.linspace(0.0, 1.0, 2048)
    max_ratio = 0.0
    for _ in range(100):
        theta = rng.normal(size=j_interp)
        f = diag_mod.EigenExpansionFunction(theta, interp_model)
        max_ratio = max(max_ratio, diag_mod.check_interpolation_inequality(f, grid).ratio)
    rows.append(("interpolation_max_ratio", j_interp, max_ratio, "", ""))
    s = cfg.dgp_n // cfg.partitions
    rho_sched = krr.penalty_schedule(
        cfg.dgp_n, kernel.decay_exponent(1), cfg.penalty_r_prime, cfg.penalty_c
    )
    rows.append(("variance_proxy", s, diag_mod.variance_proxy(model, s, rho_sched), "", ""))
    header = ["check", "param", "value_a", "value_b", "ratio"]
    return [_write_csv(cfg, "diagnostics.csv", header, rows)]


def cmd_dry_run(cfg: RunConfig) -> list:
    n_total, grid_p, grid_t, trials = effective_grid(cfg)
    simulation.check_grid(n_total, grid_p, grid_t)
    print(f"config_hash={config_hash(cfg)} master_seed={cfg.seed}")
    print(f"coverage grid: N={n_total}, trials per cell={trials}")
    b, r_prime = cfg.kernel_spec().decay_exponent(1), cfg.penalty_r_prime
    bound = simulation.partition_bound_check(n_total, b, r_prime)
    print(f"averaging-regime bound on P: N^((2br'-1)/(2br'+1)) = {bound:.1f} (b={b:g}, r'={r_prime:g})")
    for p in grid_p:
        flag = "  (P above the bound)" if p > bound else ""
        for t in grid_t:
            print(f"  cell P={p} T={t}{flag}")
    print(f"cells: {len(grid_p)}x{len(grid_t)}={len(grid_p) * len(grid_t)}")
    # the T cells of one P row share each trial's fit and bootstrap
    print(f"pipeline runs: {len(grid_p)}x{trials}={len(grid_p) * trials}")
    print(f"partition fits: {sum(grid_p)}x{trials}={sum(grid_p) * trials}")
    return []


COMMANDS = {
    "fit": cmd_fit,
    "bands": cmd_bands,
    "coverage": cmd_coverage,
    "rate": cmd_rate,
    "diagnostics": cmd_diagnostics,
    "dry-run": cmd_dry_run,
}
DATA_COMMANDS = ("fit", "bands")  # the commands that take --data

# flag -> (config key, type, help); bool flags take no value and set True
FLAGS = {
    "--out": ("output.dir", str, "output directory (overrides config and env)"),
    "--seed": ("seed", int, "master seed override"),
    "--threads": (
        "threads", int, "thread budget: worker threads; BLAS runs one thread inside fits",
    ),
    "--alpha": ("alpha", float, "band miscoverage level override"),
    "--partitions": ("partitions", int, "partition count override"),
    "--prediction-count": ("prediction.count", int, "prediction set size override"),
    "--replicates": ("bootstrap.replicates", int, "bootstrap replicate count override"),
    "--full-scale": ("grid.full_scale", bool, "use the published full grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dncbands",
        description="Divide-and-conquer KRR with bootstrap simultaneous confidence bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        if name in DATA_COMMANDS:
            p.add_argument("--data", required=True, help="training data CSV (x1..xd,y)")
        for flag, (key, kind, text) in FLAGS.items():
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, help=text)
            else:
                metavar = flag[2:].upper().replace("-", "_")
                p.add_argument(flag, dest=key, type=kind, metavar=metavar, help=text)
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {}
    if os.environ.get(ENV_OUTPUT_DIR):
        overrides["output.dir"] = os.environ[ENV_OUTPUT_DIR]
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides.update(parse_config_text(fh.read()))
    flags = vars(args)
    overrides.update({key: flags[key] for key, _, _ in FLAGS.values() if flags[key] is not None})
    return make_config(overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = _config_from_args(args)
        if args.command in DATA_COMMANDS:
            written = command(cfg, args.data)
        else:
            written = command(cfg)
    except ValueError as exc:  # ConfigError and DataError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
