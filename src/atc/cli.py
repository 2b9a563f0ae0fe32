"""Command line front end.

Subcommands: `run` solves one coupled problem, `sweep` runs a list of core
radii and emits CSV, `rate` fits the log-log convergence slope of a CSV file.
Exit codes: 0 success, 2 usage error, 3 solver non-convergence, 4 internal
error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .coupling import DEFAULT_TOLERANCE
from .exceptions import AtcError, NonConvergenceError, UsageError


def _r_cores_text(text: str) -> str:
    """A comma-separated list of integer core radii, checked and kept as text."""
    _parse_r_cores(text)
    return text


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


_CONFIG_KEYS = {
    "r-core": _r_cores_text, "gamma": float, "norm": str, "tol": float,
    "out": str, "plot-data": str, "warm-start": _true_or_false,
}


def _read_config(args) -> dict:
    """The key=value lines of args.config; each key names an option of the subcommand."""
    path, options = args.config, {key.replace("_", "-") for key in vars(args)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip().replace("_", "-")
                if key not in _CONFIG_KEYS or key not in options:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
                try:
                    values[key] = _CONFIG_KEYS[key](val.strip())
                except ValueError as err:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not valid UTF-8: {err}") from err
    return values


def _inputs(args):
    """The config merged under the flags, and the radii, gamma, norm and tolerance."""
    merged = _read_config(args) if args.config else {}
    merged.update((key.replace("_", "-"), val) for key, val in vars(args).items()
                  if val is not None)
    return (merged, _parse_r_cores(_require(merged, "r-core")),
            float(_require(merged, "gamma")), merged.get("norm", "energy"),
            merged.get("tol", DEFAULT_TOLERANCE))


def _require(merged, key):
    if key not in merged:
        raise UsageError(f"missing required option --{key}")
    return merged[key]


def _parse_r_cores(text) -> list[int]:
    try:
        r_cores = [int(t) for t in str(text).split(",") if t.strip()]
    except ValueError as err:
        raise UsageError(f"bad --r-core list {text!r}") from err
    if not r_cores:
        raise UsageError(f"empty --r-core list {text!r}")
    return r_cores


def _cmd_run(args) -> int:
    merged, r_cores, gamma, norm, tolerance = _inputs(args)
    if len(r_cores) != 1:
        raise UsageError(f"run takes one core radius, got {merged['r-core']!r}")
    [(dec, mesh)] = harness.check_inputs(r_cores, gamma, norm, tolerance, (merged.get("out"),))
    record, _, _ = harness._solve_point(dec, mesh, gamma, tolerance)
    print(f"r_core={record.r_core} r_a={record.r_a} r_c={record.r_c} "
          f"dof={record.dof} err_l2={record.err_l2:.6e} err_inf={record.err_inf:.6e} "
          f"iters={record.newton_iters} residual={record.residual:.3e} "
          f"converged={str(record.converged).lower()}")
    if merged.get("out"):
        harness.write_csv([record], merged["out"])
    return 0 if record.converged else 3


def _cmd_sweep(args) -> int:
    merged, r_cores, gamma, norm, tolerance = _inputs(args)
    records = harness.run_sweep(
        r_cores, gamma, norm=norm, tolerance=tolerance,
        warm_start=bool(merged.get("warm-start", False)),
        csv_path=merged.get("out"), plot_path=merged.get("plot-data"),
        progress=lambda r: print(
            f"r_core={r.r_core} dof={r.dof} err_l2={r.err_l2:.6e} "
            f"converged={str(r.converged).lower()}", file=sys.stderr))
    if not merged.get("out"):
        sys.stdout.write(harness.records_to_csv(records))
    return 0 if all(r.converged for r in records) else 3


def _cmd_rate(args) -> int:
    records = harness.read_csv(args.csv_file)
    slope = harness.fit_rate(records)
    print(f"{slope:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atc",
        description="Coupled atomistic/continuum solves on a 1D lattice")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--gamma", type=float, help="far-field decay exponent")
        p.add_argument("--norm", choices=("energy", "uniform"),
                       help="which error norm the mesh grading targets")
        p.add_argument("--tol", type=float, help="Newton residual tolerance")
        p.add_argument("--out", help="write CSV records to this file")
        p.add_argument("--config", help="key=value file mirroring the flags")

    p_run = sub.add_parser("run", help="solve a single core radius")
    p_run.add_argument("--r-core", type=int, help="core radius")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="solve a list of core radii")
    p_sweep.add_argument("--r-core", help="comma-separated core radii")
    p_sweep.add_argument("--warm-start", action="store_const", const=True,
                         help="seed each point from the previous solution")
    p_sweep.add_argument("--plot-data", help="write two-column dof/err file")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rate = sub.add_parser("rate", help="fit log-log error slope of a CSV")
    p_rate.add_argument("csv_file")
    p_rate.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonConvergenceError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        return 3
    except AtcError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
