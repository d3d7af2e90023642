"""Command-line surface: Bayes factors from CSV data, oracle checks,
consistency diagnostics, and seeded frequency experiments.

Exit codes: 0 success, 2 usage error, 1 data or convergence error.
Primary outputs are byte-identical across runs with the same argv; the
run manifest (which carries a timestamp) goes to a sidecar file next to
--out, never into the primary output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import AnovaBFError, DomainError, ParseError

# Each handler imports the numpy-backed modules it runs, so --help, usage
# errors and every command load only what they use.

ORACLE_TOLERANCE = 1e-8

# --truth spellings -> Model values
_TRUTH_ALIASES = {
    "m1": "1",
    "1": "1",
    "ma1": "A+1",
    "ma+1": "A+1",
    "a+1": "A+1",
}


def write_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Render a header and rows in the CSV wire format that the parsers read."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _jsonify(value):
    """Make a value JSON-safe: infinities become strings, NaN is refused."""
    if isinstance(value, dict):
        return {_jsonify(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, enum.Enum):  # Model and Criterion
        return value.value
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            raise DomainError("refusing to emit NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if dataclasses.is_dataclass(value):
        return _jsonify(dataclasses.asdict(value))
    return value


def _manifest(subcommand: str, params: dict, seed: int | None) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": _jsonify(params),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(payload: str, out: str | None, manifest: dict) -> None:
    """Write the primary output, with the manifest as a sidecar for files."""
    if out is None:
        sys.stdout.write(payload)
        return
    path = Path(out)
    path.write_text(payload, encoding="utf-8")
    sidecar = Path(str(path) + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _json_payload(doc: dict) -> str:
    return json.dumps(_jsonify(doc), indent=2) + "\n"


def _cmd_bf(args: argparse.Namespace) -> tuple[str, str, dict, None]:
    from .bayes_factors import (
        BayesFactorReport,
        Model,
        one_way_report,
        rank_two_way_models,
        two_way_reports,
    )
    from .datasets import parse_one_way, parse_two_way
    from .sums_of_squares import one_way_ss, two_way_ss

    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.input}: byte offset {exc.start} is not valid UTF-8") from None
    if args.layout == "one-way":
        dataset = parse_one_way(text)
        ss = one_way_ss(dataset)
        reports = {Model.FACTOR_A: one_way_report(ss, dataset.p, dataset.r)}
        design = {"p": dataset.p, "r": dataset.r}
        results = {"report": reports[Model.FACTOR_A]}
    else:
        dataset = parse_two_way(text)
        ss = two_way_ss(dataset)
        reports = two_way_reports(ss, dataset.p, dataset.q, dataset.r)
        design = {"p": dataset.p, "q": dataset.q, "r": dataset.r}
        ranking = rank_two_way_models(reports, dataset.p, dataset.q)
        results = {"reports": reports, "ranking_fb": ranking}
    sums = {f.name: getattr(ss, f.name) for f in dataclasses.fields(ss) if f.name != "unit"}
    doc = {"design": args.layout, **design, "n": dataset.n, "sums_of_squares": sums, **results}
    if args.format == "csv":
        header = ["model", *(f.name for f in dataclasses.fields(BayesFactorReport))]
        rows = [_jsonify([m, *dataclasses.astuple(rep)]) for m, rep in reports.items()]
        payload = write_csv(header, rows)
    else:
        payload = _json_payload(doc)
    return payload, f"bf {args.layout}", {"input": args.input, "format": args.format}, None


def _cmd_oracle_check(args: argparse.Namespace) -> tuple[str, str, dict, None]:
    from .bayes_factors import log_bfs
    from .prior import BetaPrimePrior, _check_bf_args, log_bf_quadrature

    n = args.p * args.r
    # checked before any prior is built, so that a bad design is named, not
    # the improper prior for_closed_form would make of it
    _check_bf_args(n, args.p, args.ratio)
    closure = BetaPrimePrior.for_closed_form(n, args.p)
    a = closure.a if args.a is None else args.a
    if args.b is None:
        prior = BetaPrimePrior.for_closed_form(n, args.p, a)
    else:
        prior = BetaPrimePrior(a=a, b=args.b)
    on_closure = prior.a == closure.a and abs(prior.b - closure.b) < 1e-12

    log_quad = log_bf_quadrature(n, args.p, args.ratio, prior)
    log_closed, _ = log_bfs(n, args.p, args.ratio)
    if on_closure:
        relative_difference = abs(math.expm1(log_quad - log_closed))
        within = relative_difference <= ORACLE_TOLERANCE
    else:
        relative_difference = None
        within = None
    doc = {
        "p": args.p,
        "r": args.r,
        "n": n,
        "ratio": args.ratio,
        "prior": {"a": prior.a, "b": prior.b},
        "prior_matches_closed_form": on_closure,
        "closed_form_log_bf": log_closed,
        "quadrature_log_bf": log_quad,
        "relative_difference": relative_difference,
        "tolerance": ORACLE_TOLERANCE,
        "within_tolerance": within,
    }
    params = {"p": args.p, "r": args.r, "ratio": args.ratio, "a": prior.a, "b": prior.b}
    return _json_payload(doc), "oracle check", params, None


def _cmd_consistency(args: argparse.Namespace) -> tuple[str, str, dict, None]:
    from .consistency import EffectSizes, h_threshold, predicted_mse_gap, two_way_consistency_window

    if args.diagnostic == "h":
        doc = {"r": args.r, "h": h_threshold(args.r)}
        params = {"r": args.r}
    elif args.diagnostic == "two-way":
        window = two_way_consistency_window(
            args.r, EffectSizes(c_a=args.ca, c_b=args.cb, c_ab=args.cab)
        )
        doc = {
            "r": args.r,
            "c_a": args.ca,
            "c_b": args.cb,
            "c_ab": args.cab,
            "lower": window.lower,
            "signal": window.signal,
            "upper": window.upper,
            "consistent": window.consistent,
        }
        params = {"r": args.r, "ca": args.ca, "cb": args.cb, "cab": args.cab}
    else:
        doc = {
            "p": args.p,
            "r": args.r,
            "effect": args.effect,
            "gap": predicted_mse_gap(args.p, args.r, args.effect),
        }
        params = {"p": args.p, "r": args.r, "effect": args.effect}
    return _json_payload(doc), f"consistency {args.diagnostic}", params, None


def _cmd_simulate(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[str, str, dict, int]:
    from .bayes_factors import Criterion, Model
    from .simulation import FREQUENCY_CSV_HEADER, SimulationConfig, run_frequency_experiment

    truth = _TRUTH_ALIASES.get(args.truth.lower())
    if truth is None:
        parser.error(f"unknown truth {args.truth!r} (expected M1 or MA1)")
    truth_model = Model(truth)
    ca_list = args.ca if args.ca else [0.0]
    if len(set(ca_list)) != len(ca_list):
        parser.error(f"duplicate --ca values: {ca_list}")
    if truth_model is Model.NULL and any(ca != 0.0 for ca in ca_list):
        parser.error("--ca must be 0 under truth M1")
    try:
        criteria = tuple(Criterion(c.strip().lower()) for c in args.criteria.split(","))
    except ValueError:
        parser.error(f"unknown criteria {args.criteria!r} (expected a subset of fb,bic)")

    cfg = SimulationConfig(
        model=truth_model,
        p_list=tuple(args.p),
        r_list=tuple(args.r),
        ca_list=tuple(ca_list),
        replications=args.reps,
        seed=args.seed,
        criteria=criteria,
    )
    rows = run_frequency_experiment(cfg).rows()
    params = {
        "truth": truth_model,
        "p": list(args.p),
        "r": list(args.r),
        "ca": list(ca_list),
        "reps": args.reps,
        "criteria": [c.value for c in criteria],
    }
    return write_csv(FREQUENCY_CSV_HEADER, rows), "simulate", params, args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anovabf",
        description="Bayes factors for balanced ANOVA: closed forms, "
        "quadrature oracle, consistency diagnostics, and seeded experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command writes its primary output through run
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write primary output to this path")

    bf = sub.add_parser("bf", help="Bayes factors for a CSV dataset")
    bf.set_defaults(handler=_cmd_bf)
    bf_sub = bf.add_subparsers(dest="layout", required=True)
    for layout in ("one-way", "two-way"):
        bp = bf_sub.add_parser(layout, help=f"balanced {layout} layout", parents=[output])
        bp.add_argument("--input", required=True, help="CSV file to read")
        fmt = bp.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json", default="json"
        )
        fmt.add_argument("--csv", dest="format", action="store_const", const="csv")

    oracle = sub.add_parser("oracle", help="check closed forms against quadrature")
    oracle.set_defaults(handler=_cmd_oracle_check)
    oracle_sub = oracle.add_subparsers(dest="check", required=True)
    oc = oracle_sub.add_parser(
        "check", help="compare closed-form and quadrature factors", parents=[output]
    )
    oc.add_argument("--p", type=int, required=True, help="factor levels")
    oc.add_argument("--r", type=int, required=True, help="replications per level")
    oc.add_argument("--ratio", type=float, required=True, help="residual share w_e/w_t in (0,1]")
    oc.add_argument("--a", type=float, default=None, help="hyperprior a (default -0.5)")
    oc.add_argument("--b", type=float, default=None, help="hyperprior b (default: closed-form match)")

    consistency = sub.add_parser("consistency", help="closed-form consistency diagnostics")
    consistency.set_defaults(handler=_cmd_consistency)
    cons_sub = consistency.add_subparsers(dest="diagnostic", required=True)
    ch = cons_sub.add_parser(
        "h", help="effect-size threshold for fixed replications", parents=[output]
    )
    ch.add_argument("--r", type=int, required=True)
    ct = cons_sub.add_parser(
        "two-way", help="consistency window for the saturated model", parents=[output]
    )
    ct.add_argument("--r", type=int, required=True)
    ct.add_argument("--ca", type=float, default=0.0)
    ct.add_argument("--cb", type=float, default=0.0)
    ct.add_argument("--cab", type=float, default=0.0)
    cm = cons_sub.add_parser(
        "mse-gap", help="prediction-error gap, null minus alternative", parents=[output]
    )
    cm.add_argument("--p", type=int, required=True)
    cm.add_argument("--r", type=int, required=True)
    cm.add_argument("--effect", type=float, required=True)

    simulate = sub.add_parser(
        "simulate", help="seeded model-selection frequency experiment", parents=[output]
    )
    simulate.set_defaults(handler=lambda args: _cmd_simulate(args, parser))
    simulate.add_argument("--truth", required=True, help="data-generating model: M1 or MA1")
    simulate.add_argument(
        "--p", type=int, action="append", required=True, help="level count (repeatable)"
    )
    simulate.add_argument(
        "--r", type=int, action="append", required=True, help="replication count (repeatable)"
    )
    simulate.add_argument(
        "--ca", type=float, action="append", help="effect size under MA1 (repeatable)"
    )
    simulate.add_argument("--reps", type=int, default=2000, help="replications per cell")
    simulate.add_argument("--seed", type=int, default=0, help="experiment seed")
    simulate.add_argument("--criteria", default="fb,bic", help="comma-separated: fb,bic")

    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, subcommand, params, seed = args.handler(args)
        _emit(payload, args.out, _manifest(subcommand, params, seed))
        return 0
    except (AnovaBFError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    # numpy's OpenBLAS threads would spin through every command, none of
    # which calls a threaded BLAS routine; a count the user set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))
