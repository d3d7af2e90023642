"""Command-line surface: Bayes factors from CSV data, oracle checks,
consistency diagnostics, and seeded frequency experiments.

Exit codes: 0 success, 2 usage error, 1 data or convergence error.
Primary outputs are byte-identical across runs with the same argv; the
run manifest (which carries a timestamp) goes to a sidecar file next to
--out, never into the primary output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bayes_factors import (
    BayesFactorReport,
    Criterion,
    Model,
    log_bf_fb_one_way,
    one_way_report,
    rank_two_way_models,
    two_way_reports,
)
from .consistency import EffectSizes, h_threshold, predicted_mse_gap, two_way_consistency_window
from .datasets import parse_one_way, parse_two_way, write_csv
from .errors import AnovaBFError, DomainError, ParseError
from .prior import BetaPrimePrior, bf_quadrature
from .simulation import (
    FREQUENCY_CSV_HEADER,
    SimulationConfig,
    TruthSpec,
    run_frequency_experiment,
)
from .sums_of_squares import OneWaySS, one_way_ss, two_way_ss

ORACLE_TOLERANCE = 1e-8

_TRUTH_ALIASES = {
    "m1": Model.NULL,
    "1": Model.NULL,
    "ma1": Model.FACTOR_A,
    "ma+1": Model.FACTOR_A,
    "a+1": Model.FACTOR_A,
}


def _jsonify(value):
    """Make a value JSON-safe: infinities become strings, NaN is refused."""
    if isinstance(value, dict):
        return {_jsonify(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (Model, Criterion)):
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


def _cmd_bf(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.input}: byte offset {exc.start} is not valid UTF-8") from None
    if args.layout == "one-way":
        dataset = parse_one_way(text)
        ss = one_way_ss(dataset)
        reports = {Model.FACTOR_A: one_way_report(ss, dataset.p, dataset.r)}
        doc = {
            "design": "one-way",
            "p": dataset.p,
            "r": dataset.r,
            "n": dataset.n,
            "sums_of_squares": {"w_t": ss.w_t, "w_e": ss.w_e, "w_h": ss.w_h},
            "report": reports[Model.FACTOR_A],
        }
    else:
        dataset = parse_two_way(text)
        ss = two_way_ss(dataset)
        reports = two_way_reports(ss, dataset.p, dataset.q, dataset.r)
        doc = {
            "design": "two-way",
            "p": dataset.p,
            "q": dataset.q,
            "r": dataset.r,
            "n": dataset.n,
            "sums_of_squares": {
                "w_t": ss.w_t,
                "w_a": ss.w_a,
                "w_b": ss.w_b,
                "w_ab": ss.w_ab,
                "w_e": ss.w_e,
            },
            "reports": reports,
            "ranking_fb": rank_two_way_models(reports, dataset.p, dataset.q),
        }
    if args.format == "csv":
        header = ["model", *(f.name for f in dataclasses.fields(BayesFactorReport))]
        rows = [_jsonify([m, *dataclasses.astuple(rep)]) for m, rep in reports.items()]
        payload = write_csv(header, rows)
    else:
        payload = _json_payload(doc)
    manifest = _manifest(f"bf {args.layout}", {"input": args.input, "format": args.format}, None)
    _emit(payload, args.out, manifest)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    n = args.p * args.r
    closure = BetaPrimePrior.for_closed_form(n, args.p)
    a = closure.a if args.a is None else args.a
    if args.b is None:
        prior = BetaPrimePrior.for_closed_form(n, args.p, a)
    else:
        prior = BetaPrimePrior(a=a, b=args.b)
    on_closure = prior.a == closure.a and abs(prior.b - closure.b) < 1e-12

    ss = OneWaySS(w_t=1.0, w_e=args.ratio, w_h=1.0 - args.ratio)
    log_closed = log_bf_fb_one_way(ss, args.p, args.r)
    try:
        closed_bf = math.exp(log_closed)
        quad_bf = bf_quadrature(n, args.p, args.ratio, prior)
    except OverflowError:
        raise DomainError(
            f"Bayes factor overflows a double: closed-form log Bayes factor is {log_closed!r}"
        ) from None
    if on_closure:
        relative_difference = abs(quad_bf - closed_bf) / abs(closed_bf)
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
        "closed_form_bf": closed_bf,
        "quadrature_bf": quad_bf,
        "relative_difference": relative_difference,
        "tolerance": ORACLE_TOLERANCE,
        "within_tolerance": within,
    }
    params = {"p": args.p, "r": args.r, "ratio": args.ratio, "a": prior.a, "b": prior.b}
    _emit(_json_payload(doc), args.out, _manifest("oracle check", params, None))
    return 0


def _cmd_consistency(args: argparse.Namespace) -> int:
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
    _emit(_json_payload(doc), args.out, _manifest(f"consistency {args.diagnostic}", params, None))
    return 0


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    truth_model = _TRUTH_ALIASES.get(args.truth.lower())
    if truth_model is None:
        parser.error(f"unknown truth {args.truth!r} (expected M1 or MA1)")
    ca_list = args.ca if args.ca else [0.0]
    if truth_model is Model.NULL and any(ca != 0.0 for ca in ca_list):
        parser.error("--ca must be 0 under truth M1")
    try:
        criteria = tuple(Criterion(c.strip().lower()) for c in args.criteria.split(","))
    except ValueError:
        parser.error(f"unknown criteria {args.criteria!r} (expected a subset of fb,bic)")

    rows: list[list] = []
    for ca in ca_list:
        cfg = SimulationConfig(
            p_list=tuple(args.p),
            r_list=tuple(args.r),
            truth=TruthSpec(model=truth_model, c_a=ca),
            replications=args.reps,
            seed=args.seed,
            criteria=criteria,
        )
        rows.extend(run_frequency_experiment(cfg).rows())
    payload = write_csv(FREQUENCY_CSV_HEADER, rows)
    params = {
        "truth": truth_model,
        "p": list(args.p),
        "r": list(args.r),
        "ca": list(ca_list),
        "reps": args.reps,
        "criteria": [c.value for c in criteria],
    }
    _emit(payload, args.out, _manifest("simulate", params, args.seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anovabf",
        description="Bayes factors for balanced ANOVA: closed forms, "
        "quadrature oracle, consistency diagnostics, and seeded experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bf = sub.add_parser("bf", help="Bayes factors for a CSV dataset")
    bf_sub = bf.add_subparsers(dest="layout", required=True)
    for layout in ("one-way", "two-way"):
        bp = bf_sub.add_parser(layout, help=f"balanced {layout} layout")
        bp.add_argument("--input", required=True, help="CSV file to read")
        fmt = bp.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json", default="json"
        )
        fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
        bp.add_argument("--out", help="write primary output to this path")

    oracle = sub.add_parser("oracle", help="check closed forms against quadrature")
    oracle_sub = oracle.add_subparsers(dest="check", required=True)
    oc = oracle_sub.add_parser("check", help="compare closed-form and quadrature factors")
    oc.add_argument("--p", type=int, required=True, help="factor levels")
    oc.add_argument("--r", type=int, required=True, help="replications per level")
    oc.add_argument("--ratio", type=float, required=True, help="residual share w_e/w_t in (0,1]")
    oc.add_argument("--a", type=float, default=None, help="hyperprior a (default -0.5)")
    oc.add_argument("--b", type=float, default=None, help="hyperprior b (default: closed-form match)")
    oc.add_argument("--out", help="write primary output to this path")

    consistency = sub.add_parser("consistency", help="closed-form consistency diagnostics")
    cons_sub = consistency.add_subparsers(dest="diagnostic", required=True)
    ch = cons_sub.add_parser("h", help="effect-size threshold for fixed replications")
    ch.add_argument("--r", type=int, required=True)
    ch.add_argument("--out", help="write primary output to this path")
    ct = cons_sub.add_parser("two-way", help="consistency window for the saturated model")
    ct.add_argument("--r", type=int, required=True)
    ct.add_argument("--ca", type=float, default=0.0)
    ct.add_argument("--cb", type=float, default=0.0)
    ct.add_argument("--cab", type=float, default=0.0)
    ct.add_argument("--out", help="write primary output to this path")
    cm = cons_sub.add_parser("mse-gap", help="prediction-error gap, null minus alternative")
    cm.add_argument("--p", type=int, required=True)
    cm.add_argument("--r", type=int, required=True)
    cm.add_argument("--effect", type=float, required=True)
    cm.add_argument("--out", help="write primary output to this path")

    simulate = sub.add_parser("simulate", help="seeded model-selection frequency experiment")
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
    simulate.add_argument("--out", help="write CSV to this path")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bf":
            return _cmd_bf(args)
        if args.command == "oracle":
            return _cmd_oracle_check(args)
        if args.command == "consistency":
            return _cmd_consistency(args)
        return _cmd_simulate(args, parser)
    except AnovaBFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(run(sys.argv[1:]))
