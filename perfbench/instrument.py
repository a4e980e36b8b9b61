"""Observe the program from outside, by wrapping its functions at the points
where one module calls another.

Modules import each other's functions by name, so a wrapper must replace the
name in every module that uses it: ``oracle`` and ``attacks`` hold their own
``as_template``, ``attacks`` and ``harness`` their own ``greedy_cover``, and
``harness`` reaches the attacks through ``attacks.attack_*``.

* ``Capture`` records the template each trial's attack returned, which the
  program does not put in its records.  It costs two calls per trial and
  runs in every run.  Under a forking process pool each worker keeps its
  own captures and writes them to a file when it exits.
* ``Tracer`` records one span per call at every layer boundary (name,
  start, end, parent span, trial id) in memory, and checks every oracle
  answer against a recomputation.  Checks run on a paused clock, so no span
  and no traced wall time includes them.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from multiprocessing import util
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ATTACK_ENTRY_POINTS = (
    "attack_below_distance",
    "attack_below_positions",
    "attack_below_positions_values",
    "attack_minimal_binary",
    "attack_both_distance",
    "attack_both_positions",
    "attack_both_positions_values",
    "accumulation_collect",
    "fault_controlled_collect",
)

# attack spans whose trials open with an accept search
_ACCEPT_SEARCH_SPANS = (
    "attacks.attack_below_distance",
    "attacks.attack_below_positions",
    "attacks.attack_below_positions_values",
    "attacks.attack_minimal_binary",
)


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class Capture:
    """Recovered template of every trial, keyed by trial index."""

    def __init__(self, program, out_dir: Path) -> None:
        self.program = program
        self.out_dir = out_dir
        self.found: dict[int, tuple] = {}
        self.trial = -1
        self._owner = os.getpid()
        self._patcher = Patcher()

    def __enter__(self) -> "Capture":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def install(self) -> None:
        p = self._patcher
        p.replace(self.program.harness, "run_trial", self._wrap_trial)
        for name in ATTACK_ENTRY_POINTS:
            p.replace(self.program.attacks, name, self._wrap_attack)

    def _wrap_trial(self, run_trial: Callable) -> Callable:
        def captured_trial(config, trial, *args, **kwargs):
            self.trial = trial
            return run_trial(config, trial, *args, **kwargs)

        return captured_trial

    def _wrap_attack(self, attack: Callable) -> Callable:
        def captured_attack(*args, **kwargs):
            outcome = attack(*args, **kwargs)
            self.store(outcome)
            return outcome

        return captured_attack

    def store(self, outcome) -> None:
        if os.getpid() != self._owner:
            # first trial in a forked pool worker: start empty, write at exit
            self._owner = os.getpid()
            self.found = {}
            util.Finalize(None, self._dump, exitpriority=10)
        recovered = outcome.recovered
        self.found[self.trial] = tuple(getattr(recovered, "coords", recovered))

    def _dump(self) -> None:
        path = self.out_dir / f"capture-{os.getpid()}.json"
        path.write_text(json.dumps(list(self.found.items())))

    def take(self) -> dict[int, tuple]:
        """Captures since the last call, pool workers' files included."""
        found, self.found = self.found, {}
        for path in sorted(self.out_dir.glob("capture-*.json")):
            for trial, coords in json.loads(path.read_text()):
                found[trial] = tuple(coords)
            path.unlink()
        return found


class Tracer(Capture):
    """Spans at every layer boundary, plus the captures and response checks."""

    def __init__(self, program, out_dir: Path) -> None:
        super().__init__(program, out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial_col = array("q")
        self.flag = array("b")  # 1 on an accepted oracle response
        self._stack: list[int] = []
        self.trial_id = -1
        self._trials_seen = 0
        self.paused = 0
        self.cover_spaces: list[tuple[int, int, int]] = []
        self.problems: list[str] = []
        self._context = None

    def now(self) -> int:
        """Nanoseconds on the clock that skips checking time."""
        return time.perf_counter_ns() - self.paused

    def install(self) -> None:
        m = self.program
        space, oracle, attacks, covering, bounds, harness = (
            m.space, m.oracle, m.attacks, m.covering, m.bounds, m.harness,
        )
        span, p = self._span, self._patcher
        for owner, name in (
            (oracle, "as_template"),
            (attacks, "as_template"),
            (harness, "sample_template"),
            (harness, "hamming_distance"),
            (harness, "SpaceParams"),
            (covering, "ball_volume"),
            (covering, "template_index"),
            (covering, "template_from_index"),
            (bounds, "ball_volume"),
            (bounds, "harmonic_number_exact"),
            (bounds, "q_ary_entropy"),
        ):
            p.replace(owner, name, span(f"space.{name}"))
        p.replace(harness, "Oracle", span("oracle.Oracle"))
        p.replace(oracle.Oracle, "query", span("oracle.query", after=self._check_query))
        p.replace(oracle.Oracle, "genuine_session", span("oracle.genuine_session", after=self._check_genuine))
        p.replace(oracle.Oracle, "faulted_session", span("oracle.faulted_session", after=self._check_faulted))
        for name in ATTACK_ENTRY_POINTS:
            p.replace(attacks, name, span(f"attacks.{name}", after=self._after_attack))
        for owner in (covering, attacks, harness):
            p.replace(owner, "greedy_cover", span("covering.greedy_cover", after=self._after_cover))
        p.replace(attacks, "covering_search", span("covering.covering_search"))
        p.replace(covering, "verify_cover", span("covering.verify_cover"))
        p.replace(harness, "worst_case_queries", span("bounds.worst_case_queries"))
        p.replace(harness, "coupon_bracket", span("bounds.coupon_bracket"))
        p.replace(harness, "run_trial", span("harness.run_trial", before=self._begin_trial, after=self._end_trial))
        p.replace(harness, "attack_bound", span("harness.attack_bound"))
        p.replace(harness, "run_experiment", span("harness.run_experiment"))

    def _span(self, name: str, before=None, after=None) -> Callable[[Callable], Callable]:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns
        names, starts, ends = self.name_col, self.start, self.end
        parents, trials, flags, stack = self.parent, self.trial_col, self.flag, self._stack

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                if before is not None:
                    t = clock()
                    before(args)
                    self.paused += clock() - t
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                trials.append(self.trial_id)
                flags.append(0)
                ends.append(0)
                stack.append(idx)
                starts.append(clock() - self.paused)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock() - self.paused
                    stack.pop()
                if after is not None:
                    t = clock()
                    if after(args, result):
                        flags[idx] = 1
                    self.paused += clock() - t
                return result

            return traced

        return make

    # -- hooks: all run on the paused clock ----------------------------------

    def _report(self, problems: list[str]) -> None:
        if problems and len(self.problems) < 20:
            self.problems.extend(problems)

    def _begin_trial(self, args) -> None:
        config, trial = args[0], args[1]
        self.trial = trial
        self.trial_id = self._trials_seen
        self._trials_seen += 1
        seed = checks.trial_seed(config.master_seed, trial)
        scope, payload = checks.MODES[config.attack]
        self._context = (
            checks.secret_from_seed(config.q, config.n, seed),
            config.q,
            config.epsilon,
            scope,
            payload,
            config.session_shape == "multi",
        )

    def _end_trial(self, args, record) -> None:
        self.trial_id = -1
        self._context = None

    def _after_attack(self, args, outcome) -> None:
        self.store(outcome)

    def _check_query(self, args, resp) -> bool:
        if self._context is None:
            self._report(["oracle query outside a trial"])
        else:
            secret, _q, eps, scope, payload, _multi = self._context
            self._report(checks.check_response(secret, eps, scope, payload, args[1], resp))
        return bool(resp.accepted)

    def _check_genuine(self, args, obs) -> None:
        secret, q, eps, _scope, _payload, multi = self._context
        self._report(checks.check_genuine(secret, q, eps, multi, obs))

    def _check_faulted(self, args, obs) -> None:
        secret, q, _eps, _scope, _payload, _multi = self._context
        self._report(checks.check_faulted(secret, q, args[1], obs))

    def _after_cover(self, args, cover) -> None:
        params = args[0]
        self.cover_spaces.append((params.q, params.n, params.epsilon))
        self._report(checks.check_cover(params.q, params.n, params.epsilon, cover.centers))

    # -- results ---------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.uint16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trial": np.frombuffer(self.trial_col, dtype=np.int64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        col = self.columns()
        name, parent, trial = col["name"], col["parent"], col["trial"]
        dur = (col["end_ns"] - col["start_ns"]).astype(float) / 1e9
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)

        def named(pred: Callable[[str], bool]) -> np.ndarray:
            return np.isin(name, [i for i, s in enumerate(self.names) if pred(s)])

        def child_time(of: np.ndarray) -> np.ndarray:
            sel = has_parent & of
            return np.bincount(parent[sel], weights=dur[sel], minlength=len(dur))

        def busy(mask: np.ndarray) -> float:
            """Time covered by the spans in mask: those with no ancestor in mask."""
            inside = np.zeros(len(dur), dtype=bool)
            for _ in range(64):
                nxt = has_parent & (mask[up] | inside[up])
                if np.array_equal(nxt, inside):
                    break
                inside = nxt
            return float(dur[mask & ~inside].sum())

        self_time = dur - child_time(np.ones(len(dur), dtype=bool))
        query = named(lambda s: s == "oracle.query")
        session = named(lambda s: s in ("oracle.genuine_session", "oracle.faulted_session"))
        attack = named(lambda s: s.startswith("attacks."))
        run_trial = named(lambda s: s == "harness.run_trial")
        greedy = named(lambda s: s == "covering.greedy_cover")

        def per_call_ns(mask: np.ndarray) -> float:
            calls = int(mask.sum())
            return float(dur[mask].sum()) * 1e9 / calls if calls else 0.0

        search, post = [], []
        q_trial, q_flag = trial[query], col["flag"][query]
        for a in np.nonzero(named(lambda s: s in _ACCEPT_SEARCH_SPANS))[0]:
            flags = q_flag[q_trial == trial[a]]
            first = int(np.argmax(flags)) + 1 if flags.any() else len(flags)
            search.append(first)
            post.append(len(flags) - first)
        spaces = len(set(self.cover_spaces))
        return {
            "space.busy_s": busy(named(lambda s: s.startswith("space."))),
            "oracle.query.calls": int(query.sum()),
            "oracle.query.busy_s": float(dur[query].sum()),
            "oracle.query.ns_per_call": per_call_ns(query),
            "oracle.session.calls": int(session.sum()),
            "oracle.session.busy_s": float(dur[session].sum()),
            "oracle.session.ns_per_call": per_call_ns(session),
            "attacks.self_s": float(self_time[attack].sum()),
            "attacks.search_queries": float(np.mean(search)) if search else 0.0,
            "attacks.post_search_queries": float(np.mean(post)) if post else 0.0,
            "covering.greedy_cover.calls": int(greedy.sum()),
            "covering.greedy_cover.busy_s": busy(greedy),
            "covering.verify_cover.busy_s": busy(named(lambda s: s == "covering.verify_cover")),
            "covering.covering_search.self_s": float(
                self_time[named(lambda s: s == "covering.covering_search")].sum()
            ),
            "covering.builds_per_space": len(self.cover_spaces) / spaces if spaces else 0.0,
            "bounds.busy_s": busy(named(lambda s: s.startswith("bounds."))),
            "harness.run_trial.calls": int(run_trial.sum()),
            "harness.trial_overhead_s": float((dur - child_time(attack))[run_trial].sum()),
            "harness.attack_bound.busy_s": busy(named(lambda s: s == "harness.attack_bound")),
        }
