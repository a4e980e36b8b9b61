"""Command-line experiment runner.

Subcommands: attack (single experiment), bench (all-scenario table), bounds
(print the cost report), cover (build/export ball covers), accumulate
(passive collection shortcut).  A flat key=value config file can preload any
flag; explicit flags win.  Exit code 0 only when every bound check passes,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Collection

from .bounds import theoretical_bounds
from .covering import (
    check_exportable,
    chvatal_bound,
    coordinate_fixing_cover,
    greedy_cover,
    save_cover,
    verify_cover,
)
from .errors import CapacityError, UsageError
from .harness import (
    FORMATS,
    ExperimentConfig,
    bench_table,
    check_format,
    check_writable,
    emit,
    emit_bench,
    format_bench,
    run_experiment,
)
from .oracle import LeakageMode, observation_to_json, response_to_json
from .space import SpaceParams

_DEFAULTS = {
    "q": 2,
    "n": 12,
    "epsilon": 3,
    "scope": None,
    "payload": None,
    "attack": None,
    "trials": 100,
    "seed": 0,
    "format": "csv",
    "out": None,
    "workers": 1,
    "alpha": None,
    "session_shape": "single",
    "strategy": "fixing",
    "audit": None,
    "method": "greedy",
    "timing": False,
}

_INT_KEYS = {"q", "n", "epsilon", "trials", "seed", "workers"}
_FLOAT_KEYS = {"alpha"}
_BOOL_KEYS = {"timing"}
_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config_file(path: str, keys: Collection[str] = _DEFAULTS) -> dict:
    """Flat key=value lines; blank lines and # comments ignored.  Only the
    given keys are accepted: those of the subcommand's options."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: key {key!r} is not an option of this subcommand")
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _BOOL_KEYS:
                values[key] = _BOOL_VALUES[val.lower()]
            else:
                values[key] = val
        except (KeyError, ValueError):
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _resolve(args: argparse.Namespace, key: str):
    """Flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in args._file_values:
        return args._file_values[key]
    return _DEFAULTS[key]


def _add_space_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="alphabet size (default 2)")
    p.add_argument("--n", type=int, help="dimension (default 12)")
    p.add_argument("--epsilon", type=int, help="acceptance threshold (default 3)")
    p.add_argument("--config", help="key=value config file; flags win")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, help="trial count (default 100)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--format", choices=FORMATS, help="record format (default csv)")
    p.add_argument("--out", help="write per-trial records here")


def _add_experiment_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, help="parallel trial workers (default 1)")
    p.add_argument("--timing", action="store_const", const=True, help="emit measured wall time (non-deterministic bytes)")
    p.add_argument("--alpha", type=float, help="rarest coordinate errs with probability n**(-alpha)")
    p.add_argument("--session-shape", dest="session_shape", choices=["single", "multi"],
                   help="errors per genuine session: exactly one, or uniform on 1..epsilon")


def _set_command(p: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int], **defaults) -> None:
    """Bind a subcommand, once all its options are added, to its function
    and to the config-file keys it reads: those of its options."""
    keys = frozenset(action.dest for action in p._actions) & _DEFAULTS.keys()
    p.set_defaults(func=func, config_keys=keys, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchleak",
        description="Leakage attacks on a threshold Hamming matcher, with query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_attack = sub.add_parser("attack", help="run one attack over fresh random secrets")
    _add_space_options(p_attack)
    _add_run_options(p_attack)
    _add_experiment_options(p_attack)
    p_attack.add_argument("--attack", help="attack id (e.g. below_distance, both_positions)")
    p_attack.add_argument("--scope", choices=["below", "both"], help="leak scope; validated against the attack")
    p_attack.add_argument("--payload", choices=["none", "distance", "positions", "posvalues"])
    p_attack.add_argument("--strategy", choices=["fixing", "greedy"], help="minimal-leak search phase")
    p_attack.add_argument("--audit", help="append every oracle response/observation as JSON lines")
    _set_command(p_attack, _run_and_report)

    p_bench = sub.add_parser("bench", help="run all eight leakage scenarios and print the table")
    _add_space_options(p_bench)
    _add_run_options(p_bench)
    _set_command(p_bench, cmd_bench)

    p_bounds = sub.add_parser("bounds", help="print the cost report for a space and mode")
    _add_space_options(p_bounds)
    p_bounds.add_argument("--scope", choices=["below", "both"])
    p_bounds.add_argument("--payload", choices=["none", "distance", "positions", "posvalues"])
    p_bounds.add_argument("--out", help="also write the report as JSON")
    _set_command(p_bounds, cmd_bounds)

    p_cover = sub.add_parser("cover", help="build a ball cover and optionally export it")
    _add_space_options(p_cover)
    p_cover.add_argument("--method", choices=["fixing", "greedy"], help="cover construction (default greedy)")
    p_cover.add_argument("--out", help="export centers as q-ary strings")
    _set_command(p_cover, cmd_cover)

    p_acc = sub.add_parser("accumulate", help="passive accumulation runs (shortcut for attack --attack accumulation)")
    _add_space_options(p_acc)
    _add_run_options(p_acc)
    _add_experiment_options(p_acc)
    _set_command(p_acc, _run_and_report, attack="accumulation")

    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    attack = _resolve(args, "attack")
    if not attack:
        raise UsageError("no attack selected (use --attack or a config file)")
    return ExperimentConfig(
        q=_resolve(args, "q"),
        n=_resolve(args, "n"),
        epsilon=_resolve(args, "epsilon"),
        attack=attack,
        scope=_resolve(args, "scope") if hasattr(args, "scope") else None,
        payload=_resolve(args, "payload") if hasattr(args, "payload") else None,
        trials=_resolve(args, "trials"),
        master_seed=_resolve(args, "seed"),
        strategy=_resolve(args, "strategy") if hasattr(args, "strategy") else "fixing",
        alpha=_resolve(args, "alpha"),
        session_shape=_resolve(args, "session_shape"),
        workers=_resolve(args, "workers"),
    )


def _checked_out(args: argparse.Namespace, what: str) -> str | None:
    """The --out path, if any, checked before any work is done, so that an
    unwritable one fails with nothing run."""
    out = _resolve(args, "out")
    if out:
        check_writable(out, what)
    return out


def _print_summary(summary: dict, records: list) -> None:
    for key in (
        "attack", "q", "n", "epsilon", "trials", "bound",
        "queries_min", "queries_mean", "queries_max",
        "sessions_mean", "sessions_max",
        "violations", "exact_failures",
    ):
        print(f"{key}: {summary[key]}")
    print(f"mean_ms: {sum(r.ms for r in records) / len(records)}")
    if "bracket_lo" in summary:
        print(f"bracket: [{summary['bracket_lo']:.3f}, {summary['bracket_hi']:.3f}]")
        print(f"bracket_ok: {summary['bracket_ok']}")
    print(f"ok: {int(summary['ok'])}")


def _run_and_report(args: argparse.Namespace) -> int:
    """The attack and accumulate subcommands: one experiment, summarized."""
    config = _experiment_config(args)
    fmt = _resolve(args, "format")
    check_format(fmt)
    out = _checked_out(args, "records")
    audit_path = _resolve(args, "audit") if hasattr(args, "audit") else None
    if audit_path:
        with open(audit_path, "w") as sink:
            records, summary = run_experiment(
                config,
                on_response=lambda r: sink.write(response_to_json(r) + "\n"),
                on_observation=lambda o: sink.write(observation_to_json(o) + "\n"),
            )
    else:
        records, summary = run_experiment(config)
    if out:
        emit(records, fmt, out, include_timing=bool(_resolve(args, "timing")))
        print(f"records: {out}")
    _print_summary(summary, records)
    return 0 if summary["ok"] else 1


def cmd_bench(args: argparse.Namespace) -> int:
    fmt = _resolve(args, "format")
    check_format(fmt)
    out = _checked_out(args, "bench rows")
    rows = bench_table(
        q=_resolve(args, "q"),
        n=_resolve(args, "n"),
        epsilon=_resolve(args, "epsilon"),
        trials=_resolve(args, "trials"),
        master_seed=_resolve(args, "seed"),
    )
    print(format_bench(rows))
    if out:
        emit_bench(rows, fmt, out)
        print(f"rows: {out}")
    return 0 if all(r.ok for r in rows) else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    params = SpaceParams(_resolve(args, "q"), _resolve(args, "n"), _resolve(args, "epsilon"))
    out = _checked_out(args, "report")
    scope = _resolve(args, "scope") or "below"
    payload = _resolve(args, "payload") or "none"
    report = theoretical_bounds(params, LeakageMode.parse(scope, payload))
    doc = {
        "q": params.q,
        "n": params.n,
        "epsilon": params.epsilon,
        "scope": report.mode.scope.value,
        "payload": report.mode.payload.value,
        "ball_volume": report.ball_volume,
        "naive_search": report.naive_search,
        "greedy_cover_bound": float(report.greedy_cover_bound),
        "greedy_cover_bound_exact": f"{report.greedy_cover_bound.numerator}/{report.greedy_cover_bound.denominator}",
        "entropy_approx": report.entropy_approx,
        "worst_case_queries": report.worst_case_queries,
    }
    for key, val in doc.items():
        print(f"{key}: {'undefined' if val is None else val}")
    if out:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"report: {out}")
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    params = SpaceParams(_resolve(args, "q"), _resolve(args, "n"), _resolve(args, "epsilon"))
    method = _resolve(args, "method")
    out = _checked_out(args, "cover")
    if out:
        check_exportable(params)
    cover = greedy_cover(params) if method == "greedy" else coordinate_fixing_cover(params)
    guarantee = chvatal_bound(params)
    print(f"method: {method}")
    print(f"centers: {len(cover)}")
    print(f"certified: {int(cover.certified)}")
    print(f"greedy_guarantee: {guarantee:.3f}")
    print(f"verified: {int(verify_cover(cover))}")
    if out:
        save_cover(cover, out)
        print(f"export: {out}")
    if method == "greedy" and len(cover) > guarantee:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_values = _load_config_file(args.config, args.config_keys) if args.config else {}
        return args.func(args)
    except (UsageError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
