"""Run one workload of the matchleak benchmark and print its metrics.

    python3 perfbench/run.py --workload binary --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing but
the template capture installed, and with times scaled to a reference
machine speed (README.md says how); with ``--trace 1`` they are the
per-layer ones from a traced run, together with the tracing overhead.
Spans of the traced round are written to
``.perfbench/trace-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field, replace

import checkout
import selftest
from checks import check_bracket, check_cover, check_trials
from instrument import Capture, Tracer

# fresh processes timed from start to their first operation, and the
# bare start-up that scales them: about 0.13 s on the 2-core sandbox, where
# it read 0.11 to 0.18 s
SETUP_PROBES = 7
BASELINE_CMD = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
BASELINE_REFERENCE_S = 0.13
# no new round starts after this much wall time, whatever min_rounds asks
WALL_LIMIT_S = 120.0
# the calibration loop's length, and its time at the reference speed: on
# the 2-core sandbox its median over half-minute spells read 6 to 10 ms
CALIBRATION_LOOPS = 100_000
CALIBRATION_REFERENCE_NS = 8_000_000

PER_LAYER_UNITS = {
    "space.busy_s": "s",
    "oracle.query.calls": "count",
    "oracle.query.busy_s": "s",
    "oracle.query.ns_per_call": "ns",
    "oracle.session.calls": "count",
    "oracle.session.busy_s": "s",
    "oracle.session.ns_per_call": "ns",
    "attacks.self_s": "s",
    "attacks.search_queries": "queries/trial",
    "attacks.post_search_queries": "queries/trial",
    "covering.greedy_cover.calls": "count",
    "covering.greedy_cover.busy_s": "s",
    "covering.verify_cover.busy_s": "s",
    "covering.covering_search.self_s": "s",
    "covering.builds_per_space": "builds/space",
    "bounds.busy_s": "s",
    "harness.run_trial.calls": "count",
    "harness.trial_overhead_s": "s",
    "harness.attack_bound.busy_s": "s",
    "harness.pool.speedup": "ratio",
    "trace.overhead": "ratio",
}


def load_modules() -> types.SimpleNamespace:
    from matchleak import attacks, bounds, covering, harness, oracle, space

    return types.SimpleNamespace(
        space=space, oracle=oracle, attacks=attacks, covering=covering, bounds=bounds, harness=harness
    )


@dataclass
class Tally:
    """Operations, program time and interactions over a run."""

    attempted: int = 0
    failed: int = 0
    busy_ns: int = 0
    trials: int = 0
    interactions: int = 0
    problems: list[str] = field(default_factory=list)


def run_op(op, program, capture, clock, tally: Tally, count_interactions: bool):
    """Run one operation, check it, add it to the tally, and return a
    canonical copy of its output for comparing runs."""
    from workloads import CoverBuild  # imports matchleak, so not before checkout.load()

    if isinstance(op, CoverBuild):
        params = program.space.SpaceParams(op.q, op.n, op.epsilon)
        t0 = clock()
        cover = program.covering.greedy_cover(params)
        verified = program.covering.verify_cover(cover)
        tally.busy_ns += clock() - t0
        tally.attempted += 1
        tally.failed += 0 if verified else 1
        tally.problems += check_cover(op.q, op.n, op.epsilon, cover.centers)
        return cover.centers

    config = op.config
    verdicts = 1 if config.attack == "accumulation" else 0
    t0 = clock()
    try:
        records, summary = program.harness.run_experiment(config)
    except Exception:  # the program failed the experiment: count it, keep measuring
        tally.busy_ns += clock() - t0
        capture.take()
        traceback.print_exc()
        tally.attempted += config.trials + verdicts
        tally.failed += config.trials + verdicts
        return None
    tally.busy_ns += clock() - t0
    found = capture.take()
    tally.problems += check_trials(config, records, found)
    tally.attempted += config.trials + verdicts
    tally.failed += sum(1 for r in records if not (r.exact and r.within_ball and r.bound_ok))
    if verdicts:
        # the harness checks the session bracket on the mean, once per experiment
        tally.problems += check_bracket(config, records)
        tally.failed += 0 if summary["bracket_ok"] else 1
    if count_interactions:
        tally.trials += len(records)
        tally.interactions += sum(r.queries + r.sessions for r in records)
    return [replace(r, ms=0) for r in records]


def run_round(ops, program, capture, clock, tally: Tally, count_interactions: bool = False):
    t0 = tally.busy_ns
    outputs = [run_op(op, program, capture, clock, tally, count_interactions) for op in ops]
    return outputs, tally.busy_ns - t0


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting a process until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=checkout.ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode} before it was ready")
    return elapsed


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from their start to the
    first operation, each scaled to the reference start-up speed by a bare
    interpreter importing numpy, started just before and just after it."""
    probe = [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)]
    before = time_to_ready(BASELINE_CMD)
    scaled = []
    for _ in range(SETUP_PROBES):
        elapsed = time_to_ready(probe)
        after = time_to_ready(BASELINE_CMD)
        scaled.append(elapsed * 2 * BASELINE_REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled)


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter_ns() - t0


class Scaler:
    """Program time scaled to the reference speed.  Time is added in
    segments of at least SEGMENT_NS; each segment is scaled by the mean of
    the calibration loops just before and just after it."""

    SEGMENT_NS = 250_000_000

    def __init__(self) -> None:
        self.scaled_ns = 0.0
        self._pending_ns = 0
        self._before = calibration_ns()

    def add(self, ns: int) -> None:
        self._pending_ns += ns
        if self._pending_ns >= self.SEGMENT_NS:
            self.flush()

    def flush(self) -> None:
        if self._pending_ns:
            after = calibration_ns()
            self.scaled_ns += self._pending_ns * 2 * CALIBRATION_REFERENCE_NS / (self._before + after)
            self._pending_ns = 0
            self._before = after


def end_to_end(workload, seed: int, seconds: float, program) -> tuple[Tally, dict]:
    """Set-up probes, then whole rounds until the program has run for
    ``seconds``.  Both times are also reported at the reference speed."""
    setup_s = setup_seconds(workload.name, seed)
    tally = Tally()
    wall0 = time.monotonic()
    r = 0
    with Capture(program, checkout.OUT) as capture:
        scaler = Scaler()
        while (tally.busy_ns < seconds * 1e9 or r < workload.min_rounds) and time.monotonic() - wall0 < WALL_LIMIT_S:
            for op in workload.round(seed, r):
                t0 = tally.busy_ns
                run_op(op, program, capture, time.perf_counter_ns, tally, r < workload.min_rounds)
                scaler.add(tally.busy_ns - t0)
            r += 1
        scaler.flush()
    completed = tally.attempted - tally.failed
    sys.stderr.write(
        f"perfbench: {r} rounds, {completed / (tally.busy_ns / 1e9):.6g} ops/s before scaling "
        f"to the reference speed\n"
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "ops_per_s": (completed / (scaler.scaled_ns / 1e9), "ops/s"),
        "interactions_per_trial": (tally.interactions / tally.trials, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics


def traced(workload, seed: int, seconds: float, program) -> tuple[Tally, dict]:
    """Per-layer metrics from one traced round (round 0 of the seed, run
    first, in one process), then pairs of untraced and traced rounds for
    the overhead, and for a pooled workload one pass with its pool."""
    from workloads import Trials  # imports matchleak, so not before checkout.load()

    tally = Tally()
    pooled = workload.round(seed, 0)
    ops = [replace(op, config=replace(op.config, workers=1)) if isinstance(op, Trials) else op for op in pooled]

    tracer = Tracer(program, checkout.OUT)
    with tracer:
        reference, _ = run_round(ops, program, tracer, tracer.now, tally)
    layers = tracer.layer_metrics()
    tracer.save(checkout.OUT / f"trace-{workload.name}-{seed}.npz")
    tally.problems += tracer.problems

    plain_ns, ratios = [], []
    while True:
        with Capture(program, checkout.OUT) as capture:
            plain, t_plain = run_round(ops, program, capture, time.perf_counter_ns, tally)
        warm = Tracer(program, checkout.OUT)
        with warm:
            again, t_traced = run_round(ops, program, warm, warm.now, tally)
        tally.problems += warm.problems
        if plain != reference or again != reference:
            tally.problems.append("a repeated round gave different records")
        plain_ns.append(t_plain)
        ratios.append(t_traced / t_plain)
        if tally.busy_ns >= seconds * 1e9:
            break

    speedup = 0.0
    if pooled != ops:
        with Capture(program, checkout.OUT) as capture:
            pool_out, t_pool = run_round(pooled, program, capture, time.perf_counter_ns, tally)
        if pool_out != reference:
            tally.problems.append("records differ between one worker and the pool")
        speedup = statistics.median(plain_ns) / t_pool

    metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in layers.items()}
    metrics["harness.pool.speedup"] = (speedup, PER_LAYER_UNITS["harness.pool.speedup"])
    metrics["trace.overhead"] = (statistics.median(ratios) - 1.0, PER_LAYER_UNITS["trace.overhead"])
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    checkout.load()
    program = load_modules()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        workload.round(args.seed, 0)
        print("ready", flush=True)
        return 0

    checkout.OUT.mkdir(exist_ok=True)
    for stale in checkout.OUT.glob("capture-*.json"):
        stale.unlink()
    wrong = selftest.run()
    if wrong:
        sys.stderr.write("perfbench: the checks' self-test failed:\n" + "\n".join(wrong) + "\n")
        return 3

    measure = traced if args.trace else end_to_end
    tally, metrics = measure(workload, args.seed, args.seconds, program)
    for problem in tally.problems:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
