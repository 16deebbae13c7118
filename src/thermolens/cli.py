"""Command-line front end: file-based, deterministic batch runs.

Every output file records the tool version and the content-affecting
configuration: CSV outputs start with a ``#`` comment line, JSON outputs
carry the same information in a ``_meta`` member. Value flags can be
defaulted through ``THERMOLENS_<FLAG>`` environment variables; explicit
flags always win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import IO, Callable, Iterable

from . import __version__, analytics, powerlaw, structure, thermo
from .collection import EnergyModel, Row, read_collection_csv, write_collection_csv
from .errors import ThermolensError

_CONFIG_EXCLUDE = {"func", "output", "threads"}


def _env_default(key: str, fallback, cast: Callable = str):
    raw = os.environ.get(f"THERMOLENS_{key}")
    if raw is None:
        return fallback
    return cast(raw)


def _bool_env(raw: str) -> bool:
    return raw.strip().lower() in {"1", "true", "yes", "on"}


def _model(args) -> EnergyModel:
    return EnergyModel(args.model)


def _meta(args: argparse.Namespace) -> dict:
    # Excludes the output path and thread count: neither affects content,
    # and identical runs must stay byte-identical across thread counts.
    return {
        "tool": f"thermolens {__version__}",
        "config": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in _CONFIG_EXCLUDE
        },
    }


def _config_comment(args: argparse.Namespace) -> str:
    meta = _meta(args)
    pairs = " ".join(f"{key}={value}" for key, value in meta["config"].items())
    return f"{meta['tool']} | {pairs}"


def _open_out(path: str) -> IO[str]:
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(path: str, payload: dict) -> None:
    with _open_out(path) as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _write_csv(args: argparse.Namespace, header: str, rows: Iterable[Row]) -> None:
    with _open_out(args.output) as f:
        f.write(f"# {_config_comment(args)}\n{header}\n")
        for row in rows:
            f.write(row.to_csv_row() + "\n")


def _write_row(args: argparse.Namespace, row: Row) -> None:
    """One row to args.output, in args.format."""
    if args.format == "json":
        _write_json(args.output, {"_meta": _meta(args), **row.to_json_dict()})
    else:
        _write_csv(args, row.CSV_HEADER, [row])


def _alpha_grid(alpha_min: float, alpha_max: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (alpha_min, alpha_max, step))):
        raise ThermolensError(
            f"alpha bounds and step must be finite, got {alpha_min}, {alpha_max}, {step}"
        )
    if step <= 0:
        raise ThermolensError(f"step must be positive, got {step}")
    grid = []
    k = 0
    while True:
        a = alpha_min + k * step
        if a > alpha_max + 1e-9:
            break
        grid.append(a)
        k += 1
    return grid


def cmd_metrics(args) -> None:
    with open(args.input, encoding="utf-8") as f:
        coll = read_collection_csv(f)
    _write_row(args, thermo.thermo_report(coll, _model(args)))


def cmd_fit(args) -> None:
    with open(args.input, encoding="utf-8") as f:
        coll = read_collection_csv(f)
    _write_row(args, powerlaw.classify(coll, args.ks_threshold))


def cmd_synth(args) -> None:
    coll = powerlaw.sample(args.alpha, args.n, args.seed)
    with _open_out(args.output) as f:
        write_collection_csv(coll, f, header_comment=_config_comment(args))


def cmd_curves(args) -> None:
    grid = _alpha_grid(args.alpha_min, args.alpha_max, args.step)
    fig1 = structure.efficiency_vs_alpha_curve(grid, args.truncation)
    fig2 = structure.energy_curve(grid)
    merged = structure.merge_curves(fig1, fig2)
    with _open_out(args.output) as f:
        structure.write_curve_csv(merged, f, header_comment=_config_comment(args))


def cmd_verify_theorem(args) -> None:
    model = _model(args)
    dist = structure.max_entropy_oracle(args.e_target, args.support_max, model, args.tol)
    report = structure.stationarity_report(dist, model)
    payload = {
        "_meta": _meta(args),
        "model": model.value,
        "support_max": args.support_max,
        "e_target": args.e_target,
        **report.to_json_dict(),
    }
    _write_json(args.output, payload)


def _read_events(args) -> analytics.EventTable:
    with open(args.events, encoding="utf-8", newline="") as f:
        parsed = analytics.parse_events(f, strict=args.strict)
    if parsed.skipped:
        print(f"thermolens: skipped {parsed.skipped} malformed event rows", file=sys.stderr)
    return parsed.events


def cmd_evolve(args) -> None:
    events = _read_events(args)
    rows = analytics.evolution_report(analytics.monthly_collections(events), _model(args))
    _write_csv(args, analytics.EvolutionRow.CSV_HEADER, rows)


def cmd_pages(args) -> None:
    events = _read_events(args)
    rows = analytics.page_reports(
        events,
        horizon_end=args.horizon,
        min_edits=args.min_edits,
        tail_frac=args.tail_frac,
        growth_frac=args.growth_frac,
        model=_model(args),
        ks_threshold=args.ks_threshold,
    )
    _write_csv(args, analytics.PageMetrics.CSV_HEADER, rows)


def cmd_correlate(args) -> None:
    events = _read_events(args)
    with open(args.readership, encoding="utf-8", newline="") as f:
        readership = analytics.read_readership_csv(f)
    pages = analytics.page_collections(events)
    if args.saturated_only:
        saturated = analytics.saturated_pages(
            events, args.horizon, args.min_edits, args.tail_frac, args.growth_frac
        )
        pages = {p: c for p, c in pages.items() if p in saturated}
    report = analytics.correlate_pages(pages, readership, args.ks_threshold, _model(args))
    _write_json(args.output, {"_meta": _meta(args), **report.to_json_dict()})


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        choices=[m.value for m in EnergyModel],
        default=_env_default("MODEL", EnergyModel.LOGARITHMIC.value),
        help="energy model for metric computations (default: logarithmic)",
    )


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=_env_default("TOL", 1e-10, float),
        help="bisection tolerance of verify-theorem's max-entropy oracle, in (0, 1); "
        "other subcommands record it but do not use it (default: 1e-10)",
    )


def _add_ks_threshold(p: argparse.ArgumentParser) -> argparse.Action:
    return p.add_argument(
        "--ks-threshold",
        type=float,
        default=_env_default("KS_THRESHOLD", powerlaw.DEFAULT_KS_THRESHOLD, float),
        help="KS distance below which a fit counts as a power law (default: 0.1)",
    )


def _add_events_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", required=True, help="event CSV with header ts,editor,page")
    p.add_argument(
        "--strict",
        action="store_true",
        default=_env_default("STRICT", False, _bool_env),
        help="fail on the first malformed event row instead of skipping",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=_env_default("THREADS", 1, int),
        help="accepted for compatibility; it changes nothing (default: 1)",
    )


def _add_saturation(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--min-edits",
        type=int,
        default=_env_default("MIN_EDITS", analytics.DEFAULT_MIN_EDITS, int),
        help="minimum total edits for a page to count as saturated (default: 4500)",
    )
    p.add_argument(
        "--tail-frac",
        type=float,
        default=_env_default("TAIL_FRAC", analytics.DEFAULT_TAIL_FRAC, float),
        help="final fraction of a page's lifetime examined for growth (default: 0.1)",
    )
    p.add_argument(
        "--growth-frac",
        type=float,
        default=_env_default("GROWTH_FRAC", analytics.DEFAULT_GROWTH_FRAC, float),
        help="tail-edit fraction below which a page is saturated (default: 0.05)",
    )
    p.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="saturation horizon as epoch seconds (default: last event timestamp)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermolens",
        description="Thermodynamic order/efficiency metrics over contribution logs",
        epilog="Value flags fall back to THERMOLENS_<FLAG> environment variables.",
    )
    parser.add_argument("--version", action="version", version=f"thermolens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="collection CSV -> thermodynamic metric report")
    p.add_argument("--input", required=True, help="collection CSV with header value,count")
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_model(p)
    _add_tol(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", help="collection CSV -> power-law fit and KS classification")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_ks_threshold(p)
    _add_tol(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="sample a synthetic power-law collection")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="mandatory for reproducibility")
    p.add_argument("--output", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curves", help="theoretical metric curves over an exponent grid")
    p.add_argument("--alpha-min", type=float, default=1.2)
    p.add_argument("--alpha-max", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument(
        "--truncation",
        type=int,
        default=_env_default("TRUNCATION", 10_000, int),
        help="support truncation for the S/Q/R columns (default: 10000)",
    )
    p.add_argument("--output", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser(
        "verify-theorem",
        help="max-entropy oracle at fixed energy plus stationarity residual report",
    )
    p.add_argument("--e-target", type=float, required=True)
    p.add_argument("--support-max", type=int, default=10_000)
    p.add_argument("--output", required=True)
    _add_model(p)
    _add_tol(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("evolve", help="event CSV -> monthly evolution series")
    _add_events_input(p)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--base",
        type=int,
        default=_env_default("BASE", 10, int),
        help="logarithmic class base; recorded in the output header, but evolve "
        "does not use it (default: 10)",
    )
    _add_model(p)
    _add_ks_threshold(p).help = (
        "KS threshold; recorded in the output header, but evolve does not use it (default: 0.1)"
    )
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("pages", help="event CSV -> per-page metrics with flags")
    _add_events_input(p)
    p.add_argument("--output", required=True)
    _add_saturation(p)
    _add_model(p)
    _add_ks_threshold(p)
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("correlate", help="events + readership -> correlation report JSON")
    _add_events_input(p)
    p.add_argument("--readership", required=True, help="CSV with header page,clicks")
    p.add_argument("--output", required=True)
    p.add_argument(
        "--saturated-only",
        action="store_true",
        help="restrict the analysis to saturated pages",
    )
    _add_saturation(p)
    _add_model(p)
    _add_ks_threshold(p)
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:  # bad THERMOLENS_* override
        print(f"thermolens: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except (ThermolensError, OSError) as exc:
        print(f"thermolens: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
