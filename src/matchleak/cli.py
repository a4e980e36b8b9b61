"""Command-line experiment runner.

Subcommands: attack (single experiment), bench (all-scenario table), bounds
(print the cost report), cover (build/export ball covers), accumulate
(passive collection shortcut).  Each option declares its default, type and
choices once, in argparse; the experiment defaults are ExperimentConfig's.
A flat key=value config file can preload any option of the subcommand: its
values go through the same actions and become the subcommand's defaults, so
explicit flags win.  Exit code 0 only when every bound check passes (for
cover: when the cover verifies), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from decimal import MAX_EMAX, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .attacks import SearchStrategy
from .bounds import greedy_cover_bound, theoretical_bounds
from .covering import (
    check_exportable,
    check_verifiable,
    coordinate_fixing_cover,
    greedy_cover,
    save_cover,
    verify_cover,
)
from .errors import CapacityError, UsageError
from .harness import (
    BENCH_SCENARIOS,
    FORMATS,
    ExperimentConfig,
    bench_table,
    check_format,
    check_writable,
    emit,
    emit_bench,
    format_bench,
    run_experiment,
    validate_config,
)
from .oracle import (
    LeakageMode, MatchResponse, Observation, Payload, Scope, SessionShape, observation_to_json, response_to_json,
)
from .space import SpaceParams

_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _default(name: str):
    """An experiment setting's default: its ExperimentConfig field's."""
    return next(f.default for f in fields(ExperimentConfig) if f.name == name)


def _choices(enum: type[Enum]) -> list[str]:
    return [member.value for member in enum]


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _file_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's config-file keys, each its flag with _ for -, mapped to
    the option's action; --config and --help are not keys."""
    return {
        action.option_strings[0].removeprefix("--").replace("-", "_"): action
        for action in parser._actions
        if action.option_strings and action.dest not in ("config", "help")
    }


def _file_value(action: argparse.Action, text: str):
    """Convert and check a config-file value as the flag's would be."""
    if action.nargs == 0:  # a store_true switch
        return _BOOL_VALUES[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _load_config_file(path: str, command: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored.

    Each key is an option of ``command``, and its value goes through that
    option's type and choices.  The values come back by option dest, ready
    to be the subcommand's defaults."""
    subcommands = _subcommands(build_parser())
    options = _file_options(subcommands[command])
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in options:
            if not any(key in _file_options(p) for p in subcommands.values()):
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            raise UsageError(f"{path}:{lineno}: key {key!r} is not an option of this subcommand")
        try:
            values[options[key].dest] = _file_value(options[key], val)
        except (KeyError, ValueError):
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _add_space_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, default=2, help="alphabet size")
    p.add_argument("--n", type=int, default=12, help="dimension")
    p.add_argument("--epsilon", type=int, default=3, help="acceptance threshold")
    p.add_argument("--config", help="key=value config file; flags win")


def _add_run_options(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--trials", type=int, default=_default("trials"), help="trial count")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=_default("master_seed"),
                   help="master seed")
    p.add_argument("--format", default=FORMATS[0], help=f"output format: {', '.join(FORMATS)}")
    p.add_argument("--out", help=out_help)


def _add_experiment_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=_default("workers"), help="parallel trial workers")
    p.add_argument("--timing", action="store_true", help="emit measured wall time (non-deterministic bytes)")
    p.add_argument("--alpha", type=float, default=_default("alpha"),
                   help="rarest coordinate errs with probability n**(-alpha); unset: uniform client")
    p.add_argument("--session-shape", choices=_choices(SessionShape), default=_default("session_shape"),
                   help="errors per genuine session: exactly one, or uniform on 1..epsilon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchleak",
        description="Leakage attacks on a threshold Hamming matcher, with query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        _add_space_options(p)
        return p

    p_attack = add("attack", "run one attack over fresh random secrets")
    _add_run_options(p_attack, "write per-trial records here")
    _add_experiment_options(p_attack)
    p_attack.add_argument("--attack", help="attack id, which fixes the leakage mode (e.g. below_distance)")
    p_attack.add_argument("--strategy", choices=_choices(SearchStrategy), default=_default("strategy"),
                          help="minimal-leak search phase")
    p_attack.add_argument("--audit", help="write every oracle response/observation here as JSON lines")
    p_attack.set_defaults(func=_run_and_report)

    p_bench = add("bench", f"run all {len(BENCH_SCENARIOS)} leakage scenarios and print the table")
    _add_run_options(p_bench, "write bench rows here")
    p_bench.set_defaults(func=cmd_bench)

    p_bounds = add("bounds", "print the cost report for a space and mode")
    p_bounds.add_argument("--scope", choices=_choices(Scope), default=Scope.BELOW_ONLY.value, help="leak scope")
    p_bounds.add_argument("--payload", choices=_choices(Payload), default=Payload.NONE.value, help="leak payload")
    p_bounds.add_argument("--out", help="also write the report as JSON")
    p_bounds.set_defaults(func=cmd_bounds)

    p_cover = add("cover", "build a ball cover and optionally export it")
    p_cover.add_argument("--method", choices=_choices(SearchStrategy), default=SearchStrategy.GREEDY_COVER.value,
                         help="cover construction")
    p_cover.add_argument("--out", help="export centers as q-ary strings")
    p_cover.set_defaults(func=cmd_cover)

    p_acc = add("accumulate", "passive accumulation runs (shortcut for attack --attack accumulation)")
    _add_run_options(p_acc, "write per-trial records here")
    _add_experiment_options(p_acc)
    p_acc.set_defaults(func=_run_and_report, attack="accumulation")

    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment the options describe; a setting the subcommand has no
    option for keeps its ExperimentConfig default."""
    if not args.attack:
        raise UsageError("no attack selected (use --attack or a config file)")
    settings = vars(args)
    return ExperimentConfig(**{f.name: settings[f.name] for f in fields(ExperimentConfig) if f.name in settings})


def _checked_out(args: argparse.Namespace, what: str) -> str | None:
    """The --out path, if any, checked before any work is done, so that an
    unwritable one fails with nothing run."""
    if args.out:
        check_writable(args.out, what)
    return args.out


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
    audit_path = getattr(args, "audit", None)
    validate_config(config, taps=bool(audit_path))
    check_format(args.format)
    out = _checked_out(args, "records")
    if audit_path:
        check_writable(audit_path, "audit")
        with open(audit_path, "w") as sink:
            # the log holds each answer, not its submission
            to_json = {MatchResponse: response_to_json, Observation: observation_to_json}
            records, summary = run_experiment(config, tap=lambda _, a: sink.write(to_json[type(a)](a) + "\n"))
    else:
        records, summary = run_experiment(config)
    if out:
        emit(records, args.format, out, include_timing=args.timing)
        print(f"records: {out}")
    _print_summary(summary, records)
    return 0 if summary["ok"] else 1


def cmd_bench(args: argparse.Namespace) -> int:
    check_format(args.format)
    out = _checked_out(args, "bench rows")
    rows = bench_table(q=args.q, n=args.n, epsilon=args.epsilon, trials=args.trials, master_seed=args.master_seed)
    print(format_bench(rows))
    if out:
        emit_bench(rows, args.format, out)
        print(f"rows: {out}")
    return 0 if all(r.ok for r in rows) else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    params = SpaceParams(args.q, args.n, args.epsilon)
    out = _checked_out(args, "report")
    report = theoretical_bounds(params, LeakageMode.parse(args.scope, args.payload))
    greedy = report.greedy_cover_bound
    doc = {
        "q": params.q,
        "n": params.n,
        "epsilon": params.epsilon,
        "scope": report.mode.scope.value,
        "payload": report.mode.payload.value,
        "ball_volume": _shown(report.ball_volume),
        "naive_search": _shown(report.naive_search),
        "greedy_cover_bound": _shown(greedy),
        # Decimal writes every digit, where str() of an int stops at 4300
        "greedy_cover_bound_exact": f"{Decimal(greedy.numerator)}/{Decimal(greedy.denominator)}",
        "entropy_approx": _shown(report.entropy_approx),
        "worst_case_queries": _shown(report.worst_case_queries),
    }
    for key, val in doc.items():
        print(f"{key}: {'undefined' if val is None else val}")
    if out:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"report: {out}")
    return 0


def _shown(x: int | float | Fraction | None) -> int | float | str | None:
    """A bound as the report shows it: an int or float as it is, a Fraction
    as a float, and a value beyond float range as a string in scientific
    notation, correctly rounded from its exact value."""
    if x is None:
        return None
    try:
        value = float(x)
    except OverflowError:
        with localcontext(Emax=MAX_EMAX):
            return f"{Decimal(x.numerator) / Decimal(x.denominator):.16e}"
    return x if isinstance(x, int) else value


def cmd_cover(args: argparse.Namespace) -> int:
    params = SpaceParams(args.q, args.n, args.epsilon)
    greedy = SearchStrategy(args.method) is SearchStrategy.GREEDY_COVER
    out = _checked_out(args, "cover")
    if out:
        check_exportable(params)
    check_verifiable(params)
    cover = greedy_cover(params) if greedy else coordinate_fixing_cover(params)
    verified = verify_cover(cover)
    print(f"method: {args.method}")
    print(f"centers: {len(cover)}")
    print(f"certified: {int(cover.certified)}")
    print(f"greedy_estimate: {float(greedy_cover_bound(params)):.3f}")
    print(f"verified: {int(verified)}")
    if out:
        save_cover(cover, out)
        print(f"export: {out}")
    return 0 if verified else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become the subcommand's defaults: flags still win
            _subcommands(parser)[args.command].set_defaults(**_load_config_file(args.config, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
