"""Experiment runner: seeded trials, post-hoc verification, bound checks,
CSV/JSONL emission, and the all-scenarios bench table.

Every trial derives its own generator from (master_seed, trial index), so a
fixed configuration reproduces identical records and identical output bytes.
Wall time is measured per trial but written as 0 in canonical output to keep
files byte-deterministic; pass include_timing=True to emit the measurement.

With w = min(workers, trials) above 1, the trials are split into w strided
shares (share k holds trials k, k+w, k+2w, ...).  The caller runs share 0
itself while w-1 children, forked per experiment, run the others and send
their records back through a pipe.  Forked children inherit the caller's
patched functions and exit through multiprocessing's own exit path, whose
finalizers run; a child's exception is re-raised in the caller, and no
child outlives ``run_experiment``.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields, replace
from multiprocessing.connection import Connection
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .attacks import ATTACKS, AttackOutcome, PartialTemplate, SearchStrategy, _accept_search, client_for
from .bounds import worst_case_queries  # noqa: F401 -- wrapped by name in perfbench
from .covering import greedy_cover  # noqa: F401 -- wrapped by name in perfbench
from .errors import InternalError, UsageError
from .oracle import Oracle, Payload, Scope, SessionShape
from .space import SpaceParams, hamming_distance, sample_template
from .space import coupon_bracket  # noqa: F401 -- wrapped by name in perfbench


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    q: int
    n: int
    epsilon: int
    attack: str                       # fixes the leakage mode: one attack per scenario
    trials: int = 100
    master_seed: int = 0
    strategy: str = "fixing"          # minimal-leak search phase
    alpha: float | None = None        # rarest-coordinate exponent; None = uniform client
    session_shape: str = "single"
    workers: int = 1


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial: int
    seed: int
    queries: int
    sessions: int
    exact: int
    within_ball: int
    bound: float | int
    bound_ok: int
    ms: int = field(compare=False)  # measured wall time: not part of what a trial found


FORMATS = ("csv", "jsonl")
# validate_config refuses a passive experiment expected to need more sessions
MAX_EXPECTED_SESSIONS = 2**32
# validate_config refuses an accept search of more queries in the worst case
MAX_ACCEPT_SEARCH = 2**32
# validate_config refuses a larger alphabet: sample_template draws secrets
# with rng.integers, whose int64 range ends there
MAX_Q = 2**63
# the settings only some attacks read; each ATTACKS row names those it reads
_ATTACK_SETTINGS = tuple(
    f for f in fields(ExperimentConfig) if any(f.name in spec.reads for spec in ATTACKS.values())
)


def validate_config(config: ExperimentConfig, taps: bool = False) -> SpaceParams:
    """Resolve and sanity-check a configuration before any trial runs;
    ``taps`` says whether audit taps will watch the trials."""
    spec = ATTACKS.get(config.attack)
    if spec is None:
        known = ", ".join(sorted(ATTACKS))
        raise UsageError(f"unknown attack {config.attack!r}; expected one of: {known}")
    params = SpaceParams(config.q, config.n, config.epsilon)
    if params.q > MAX_Q:
        raise UsageError(f"alphabet size q={params.q} is above the limit of {MAX_Q}")
    for setting in _ATTACK_SETTINGS:
        value = getattr(config, setting.name)
        if value != setting.default and setting.name not in spec.reads:
            raise UsageError(f"attack {config.attack!r} does not read {setting.name} (got {value!r})")
    spec.check(params)
    if config.trials < 1:
        raise UsageError("trials must be >= 1")
    if config.master_seed < 0:
        raise UsageError(f"master seed must be >= 0 (got {config.master_seed})")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")
    if taps and config.workers > 1:
        raise UsageError("audit taps require workers = 1")
    _check_choice("strategy", config.strategy, SearchStrategy)
    _check_choice("session shape", config.session_shape, SessionShape)
    if spec.counter == "queries" and (spec.mode.scope is Scope.BELOW_ONLY or spec.mode.payload is Payload.NONE):
        searched = _accept_search(params, config)  # these attacks open with an accept search
        if searched > MAX_ACCEPT_SEARCH:
            raise UsageError(
                f"attack {config.attack!r} opens with an accept search of up to 2^{math.log2(searched):g} "
                f"queries per trial, above the limit of 2^{math.log2(MAX_ACCEPT_SEARCH):g}"
            )
    if spec.bracket is not None:
        lo = spec.bracket(params, config)[0]  # a lower bound on the expected sessions
        if lo > MAX_EXPECTED_SESSIONS:
            raise UsageError(
                f"attack {config.attack!r} expects at least {lo:.3g} sessions per trial, "
                f"above the limit of {MAX_EXPECTED_SESSIONS}"
            )
    return params


def _check_choice(what: str, value: str, enum: type[Enum]) -> None:
    try:
        enum(value)
    except ValueError:
        choices = " or ".join(repr(member.value) for member in enum)
        raise UsageError(f"{what} must be {choices}") from None


def attack_bound(config: ExperimentConfig, params: SpaceParams) -> float | int:
    """Per-trial bound checked by the harness, from the attack's registry row:
    worst-case queries for active attacks, sessions for passive ones.  For
    accumulation it is the upper end of the expected-session bracket; the
    meaningful check there is the summary-level mean, so per-trial bound_ok
    is informational only."""
    return ATTACKS[config.attack].bound(params, config)


def trial_seed(master_seed: int, trial: int) -> int:
    """Stable 64-bit seed for one trial, derived from the master seed."""
    ss = np.random.SeedSequence([master_seed, trial])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _verify_outcome(oracle: Oracle, outcome: AttackOutcome, params: SpaceParams) -> tuple[int, int]:
    """Check the outcome against the sealed secret (the only audit read).

    Returns (exact, within_ball) as verified facts; a false claim aborts the
    run with a diagnostic rather than producing a polluted record.
    """
    secret = oracle.audit_secret()
    recovered = outcome.recovered
    if isinstance(recovered, PartialTemplate):
        for i, c in enumerate(recovered.coords):
            if c is not None and c != secret[i]:
                raise InternalError(
                    f"verification failed: recovered coordinate {i + 1} is {c}, secret has {secret[i]}"
                )
        exact = int(recovered.known_count() == params.n)
        guess = outcome.ball_guess
        within = int(guess is not None and hamming_distance(guess, secret) <= params.epsilon)
    else:
        exact = int(tuple(recovered) == secret)
        within = int(exact or hamming_distance(recovered, secret) <= params.epsilon)
    if outcome.exact_recovery and not exact:
        raise InternalError("verification failed: attack claimed exact recovery but missed")
    if outcome.within_ball and not within:
        raise InternalError("verification failed: attack claimed a within-ball recovery but missed")
    return exact, within


def run_trial(
    config: ExperimentConfig,
    trial: int,
    params: SpaceParams,
    bound: float | int,
    tap: Callable | None = None,
) -> TrialRecord:
    """One seeded trial of a configuration ``validate_config`` accepted,
    with its space and ``attack_bound``.  The record's ``queries`` and
    ``sessions`` are the oracle's counters once the attack returns; the
    attack's outcome says only what it found."""
    spec = ATTACKS[config.attack]
    seed = trial_seed(config.master_seed, trial)
    rng = np.random.default_rng(seed)
    secret = sample_template(params, rng)
    oracle = Oracle(secret, params, spec.mode, tap=tap)
    t0 = time.perf_counter_ns()
    outcome = spec.run(oracle, config, rng)
    ms = (time.perf_counter_ns() - t0) // 1_000_000
    if oracle.audit_count != 0:
        raise InternalError("attack read the secret outside the query interface")
    exact, within = _verify_outcome(oracle, outcome, params)
    queries, sessions = oracle.query_count, oracle.session_count
    spent = sessions if spec.counter == "sessions" else queries
    # a bracketed bound applies to the mean, which the summary checks
    bound_ok = int(spec.bracket is not None or spent <= bound)
    return TrialRecord(
        trial=trial,
        seed=seed,
        queries=queries,
        sessions=sessions,
        exact=exact,
        within_ball=within,
        bound=bound,
        bound_ok=bound_ok,
        ms=int(ms),
    )


def run_experiment(
    config: ExperimentConfig,
    tap: Callable | None = None,
) -> tuple[list[TrialRecord], dict]:
    """Run all trials and summarize.

    Records come back in trial order, and are identical for a fixed
    configuration no matter the worker count (see the module docstring).
    An audit ``tap(submission, answer)``, as ``Oracle`` takes it, requires
    a single worker.
    Nothing is written: emit writes the records.
    """
    params = validate_config(config, taps=tap is not None)
    bound = attack_bound(config, params)
    w = min(config.workers, config.trials)
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(1, w):
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_share, args=(send, config, k, w, params, bound))
            child.start()
            send.close()
            children.append((child, recv))
        records: list = [None] * config.trials
        records[::w] = [
            run_trial(config, t, params, bound, tap) for t in range(0, config.trials, w)
        ]
        # receive before joining: a child blocks until its records are read
        for k, (child, recv) in enumerate(children, 1):
            try:
                ok, result = recv.recv()
            except EOFError:
                child.join()
                raise InternalError(
                    f"trial worker {k} exited with code {child.exitcode} before sending its records"
                ) from None
            child.join()
            if not ok:
                raise result
            records[k::w] = result
    finally:
        for child, recv in children:
            recv.close()
            child.terminate()  # a no-op once joined
            child.join()
    return records, summarize(config, params, records)


def _run_share(
    send: Connection, config: ExperimentConfig, k: int, w: int, params: SpaceParams, bound: float | int
) -> None:
    """A forked child's work: run trials k, k+w, ... and send back
    (True, records) or (False, the exception)."""
    try:
        result = (True, [run_trial(config, t, params, bound) for t in range(k, config.trials, w)])
    except Exception as exc:  # an interrupt ends the child unsent, as a crash does
        result = (False, exc)
    send.send(result)
    send.close()


def summarize(config: ExperimentConfig, params: SpaceParams, records: list[TrialRecord]) -> dict:
    queries = [r.queries for r in records]
    sessions = [r.sessions for r in records]
    summary = {
        "attack": config.attack,
        "q": params.q,
        "n": params.n,
        "epsilon": params.epsilon,
        "trials": len(records),
        "master_seed": config.master_seed,
        "queries_min": min(queries),
        "queries_mean": sum(queries) / len(records),
        "queries_max": max(queries),
        "sessions_mean": sum(sessions) / len(records),
        "sessions_max": max(sessions),
        "bound": records[0].bound,
        "violations": sum(1 for r in records if not r.bound_ok),
        "exact_failures": sum(1 for r in records if not r.exact),
        "not_within_ball": sum(1 for r in records if not r.within_ball),
    }
    spec = ATTACKS[config.attack]
    if spec.bracket is not None:
        lo, hi = spec.bracket(params, config)
        mean = summary["sessions_mean"]
        summary["bracket_lo"] = lo
        summary["bracket_hi"] = hi
        summary["bracket_ok"] = int(lo <= mean <= hi)
        # the partial template is a privacy break even when incomplete;
        # exactness is only expected when every coordinate is variable
        all_variable = len(client_for(config, params).variable_positions()) == params.n
        summary["ok"] = bool(summary["bracket_ok"] and not (all_variable and summary["exact_failures"]))
    else:
        summary["ok"] = bool(summary["violations"] == 0 and summary["exact_failures"] == 0)
    return summary


# --- record emission -----------------------------------------------------------


def _write_rows(kind: type, rows: Iterable, fmt: str, path: str | Path, what: str) -> None:
    """Write rows of dataclass ``kind`` as CSV (header first) or JSONL, one
    row per line, with one column per field.

    Values go out as Python formats them (str(float) == repr(float)), so
    output bytes are deterministic.  Files always end with a newline; no
    rows yield a header-only CSV (or an empty JSONL).
    """
    check_format(fmt)
    columns = [f.name for f in fields(kind)]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([getattr(r, c) for c in columns] for r in rows)
    else:
        for r in rows:
            buf.write(json.dumps({c: getattr(r, c) for c in columns}, separators=(",", ":")))
            buf.write("\n")
    try:
        Path(path).write_text(buf.getvalue())
    except OSError as exc:
        raise _cannot_write(what, path, exc) from exc


def check_format(fmt: str) -> None:
    """Raise UsageError unless ``fmt`` is one of FORMATS."""
    if fmt not in FORMATS:
        raise UsageError(f"unknown output format {fmt!r}; expected one of: {', '.join(FORMATS)}")


def _cannot_write(what: str, path: str | Path, exc: OSError) -> OSError:
    return OSError(f"cannot write {what} to {path}: {exc}")


def check_writable(path: str | Path, what: str) -> None:
    """Raise, before any work is done, the error that writing ``what`` to
    ``path`` would raise once the work is over: the path is a directory, or
    its directory is missing, is not a directory, or cannot be written."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _cannot_write(what, path, OSError(code, os.strerror(code), str(path)))


def emit(
    records: Iterable[TrialRecord],
    fmt: str,
    path: str | Path,
    include_timing: bool = False,
) -> None:
    """Write records as CSV or JSONL.

    Output bytes are deterministic for a fixed configuration: the measured
    per-trial wall time is replaced by 0 unless include_timing is set.
    """
    if not include_timing:
        records = (replace(r, ms=0) for r in records)
    _write_rows(TrialRecord, records, fmt, path, "records")


# --- bench table ------------------------------------------------------------------


BENCH_SCENARIOS: tuple[tuple[str, str], ...] = tuple(
    (spec.bench, spec.id) for spec in ATTACKS.values() if spec.bench is not None
)


@dataclass(frozen=True, slots=True)
class BenchRow:
    scenario: str
    attack: str
    trials: int
    bound: float | int
    max_queries: int
    mean_queries: float
    mean_sessions: float
    violations: int
    exact_failures: int
    ok: int


def bench_table(*, q: int, n: int, epsilon: int, trials: int, master_seed: int) -> list[BenchRow]:
    """Run every leakage scenario at desk scale, one row per scenario.

    Every row's configuration is validated before any runs, so parameters
    one attack rejects (the minimal-leak and accumulation rows need a binary
    alphabet) fail the whole bench up front.  All rows share the master seed
    (and therefore the same per-trial secrets).  The defaults are those of
    the ``bench`` subcommand's options.
    """
    configs = [
        ExperimentConfig(q=q, n=n, epsilon=epsilon, attack=attack, trials=trials, master_seed=master_seed)
        for _scenario, attack in BENCH_SCENARIOS
    ]
    for config in configs:
        validate_config(config)
    rows = []
    for (scenario, _attack), config in zip(BENCH_SCENARIOS, configs):
        _records, summary = run_experiment(config)
        rows.append(
            BenchRow(
                scenario=scenario,
                attack=config.attack,
                trials=summary["trials"],
                bound=summary["bound"],
                max_queries=summary["queries_max"],
                mean_queries=summary["queries_mean"],
                mean_sessions=summary["sessions_mean"],
                violations=summary["violations"],
                exact_failures=summary["exact_failures"],
                ok=int(summary["ok"]),
            )
        )
    return rows


def format_bench(rows: list[BenchRow]) -> str:
    header = f"{'scenario':<30} {'attack':<16} {'bound':>12} {'max q':>8} {'mean q':>10} {'mean s':>8} {'viol':>5} {'ok':>3}"
    lines = [header, "-" * len(header)]
    for r in rows:
        bound = f"{r.bound:.2f}" if isinstance(r.bound, float) else str(r.bound)
        lines.append(
            f"{r.scenario:<30} {r.attack:<16} {bound:>12} {r.max_queries:>8} "
            f"{r.mean_queries:>10.2f} {r.mean_sessions:>8.2f} {r.violations:>5} {r.ok:>3}"
        )
    return "\n".join(lines)


def emit_bench(rows: list[BenchRow], fmt: str, path: str | Path) -> None:
    _write_rows(BenchRow, rows, fmt, path, "bench rows")
