"""Command line interface.

Subcommands:
    generate  draw a channel, measurement matrix, and measurements to files
    solve     reconstruct one instance from files and print metrics
    bench     run a config-file experiment end to end
    oracle    brute-force cardinality-constrained least squares on a tiny instance

Exit status: 0 success, 1 validation or usage error, 2 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import sample_sparse_channel
from .fileio import load_matrix, load_vector_csv, save_channel, save_matrix, \
    save_result, save_trace_csv, save_vector_csv
from .harness import SOLVER_REGISTRY, load_config, run_noiseless_study, run_snr_sweep
from .metrics import normalized_sq_error
from .seeding import derive_seed
from .sensing import gaussian_matrix, measure
from .solvers import (NumericalFailure, SolverOptions, SparseProblem, brute_force_l0,
                      default_rho, objective_exact, objective_l1)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcsparse", description="Sparse recovery benchmark tool")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[], help="emit channel and matrix files")
    gen.add_argument("--n", type=int, default=256, help="antenna count")
    gen.add_argument("--sparsity", type=int, default=16, help="nonzero complex angular entries")
    gen.add_argument("--m", type=int, default=128, help="measurement count")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_generate)

    sol = sub.add_parser("solve", help="solve one instance from files")
    sol.add_argument("--phi", required=True, help="measurement matrix CSV")
    sol.add_argument("--y", required=True, help="measurements CSV")
    sol.add_argument("--k", type=int, required=True, help="sparsity bound on the real vector")
    sol.add_argument("--rho", default="auto", help="penalty weight or 'auto'")
    sol.add_argument("--solver", default="dc_gpsr", choices=sorted(SOLVER_REGISTRY))
    sol.add_argument("--truth", help="ground-truth vector CSV for error reporting")
    sol.add_argument("--out", help="directory for x_hat and trace files")
    sol.add_argument("--format", choices=("csv", "json"), default="csv")
    sol.set_defaults(func=_cmd_solve)

    ben = sub.add_parser("bench", help="run a config file end to end")
    ben.add_argument("--config", required=True, help="key=value config file")
    ben.add_argument("--out", required=True, help="output directory")
    ben.add_argument("--seed", type=int, help="override the config base seed")
    ben.add_argument("--format", choices=("csv", "json"), default="csv")
    ben.set_defaults(func=_cmd_bench)

    ora = sub.add_parser("oracle", help="exhaustive search on a tiny instance")
    ora.add_argument("--phi", required=True)
    ora.add_argument("--y", required=True)
    ora.add_argument("--k", type=int, required=True)
    ora.add_argument("--truth")
    ora.add_argument("--format", choices=("csv", "json"), default="csv")
    ora.set_defaults(func=_cmd_oracle)
    return parser


def _load_real_vector(path) -> np.ndarray:
    """A vector CSV whose values must be real: the solvers work on real vectors."""
    _, values = load_vector_csv(path)
    if np.iscomplexobj(values):
        raise ValueError(f"{path} holds a complex vector; the solvers take real "
                         "vectors, such as the stacked [real; imag] form of x_true.csv")
    return values


def _load_problem_files(args):
    """phi, y and the --truth vector (None without it), their lengths checked before any solve."""
    phi = load_matrix(args.phi)
    y = _load_real_vector(args.y)
    if y.size != phi.m:
        raise ValueError(f"y has length {y.size} but phi has {phi.m} rows ({phi.m}x{phi.n} matrix)")
    truth = _load_real_vector(args.truth) if args.truth else None
    if truth is not None and truth.size != phi.n:
        raise ValueError(f"{args.truth} has length {truth.size} but phi has {phi.n} columns")
    return phi, y, truth


def _print_metrics(metrics: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(metrics, indent=2))
    else:
        for key, value in metrics.items():
            print(f"{key}={value}")


def _cmd_generate(args) -> int:
    out = Path(args.out)
    sample = sample_sparse_channel(args.n, args.sparsity, derive_seed(args.seed, 0))
    phi = gaussian_matrix(args.m, 2 * args.n, derive_seed(args.seed, 1))
    y = measure(phi, sample.x_real)
    save_channel(sample, out)
    save_matrix(out / "phi.csv", phi)
    save_vector_csv(out / "y.csv", "y", y)
    save_vector_csv(out / "x_true.csv", "x_true", sample.x_real)
    # generate run again with these four values rewrites out byte for byte.
    instance = {"n": args.n, "sparsity": args.sparsity, "m": args.m, "seed": args.seed}
    (out / "instance.json").write_text(json.dumps(instance, indent=2) + "\n")
    print(f"wrote channel, phi ({args.m}x{2 * args.n}), y, x_true to {out}")
    return 0


def _cmd_solve(args) -> int:
    phi, y, truth = _load_problem_files(args)
    rho = default_rho(phi, y) if args.rho == "auto" else float(args.rho)
    if args.rho != "auto" and not math.isfinite(rho):
        raise ValueError(f"--rho must be finite, got {args.rho}")
    problem = SparseProblem(y=y, phi=phi, k=args.k, rho=rho)
    # Per-inner-iteration trace points only when --out writes the trace.
    result = SOLVER_REGISTRY[args.solver](problem, SolverOptions(), truth,
                                          inner_trace=bool(args.out))
    residual = problem.y - phi.phi @ result.x_hat
    metrics = {
        "solver": args.solver,
        "rho": rho,
        "converged": result.converged,
        "outer_iters": result.outer_iters,
        "inner_iters": result.inner_iters_total,
        "objective": objective_exact(result.x_hat, problem, residual=residual),
        "objective_l1": objective_l1(result.x_hat, problem, residual=residual),
    }
    if truth is not None:
        metrics["nse"] = normalized_sq_error(truth, result.x_hat)
    if args.out:
        save_result(args.out, f"solve_{args.solver}", result.x_hat, metrics)
        save_trace_csv(Path(args.out) / f"trace_{args.solver}.csv", result.trace)
    _print_metrics(metrics, args.format)
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if cfg.snr_grid_db:
        records, summary = run_snr_sweep(cfg, out_dir=args.out, fmt=args.format)
        for solver, snr_db, value in summary:
            print(f"{solver} @ {snr_db} dB: nmse={value:.6e}")
    else:
        records, _ = run_noiseless_study(cfg, out_dir=args.out, fmt=args.format)
        print(f"{len(records)} records -> {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    phi, y, truth = _load_problem_files(args)
    x = brute_force_l0(y, phi, args.k)
    residual = y - phi.phi @ x
    metrics = {
        "k": args.k,
        "support": [int(i) for i in x.nonzero()[0]],
        "residual_sq": float(residual @ residual),
    }
    if truth is not None:
        metrics["nse"] = normalized_sq_error(truth, x)
    _print_metrics(metrics, args.format)
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConfigError and InstanceTooLarge are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
