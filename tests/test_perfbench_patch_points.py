"""perfbench wraps program functions by name (perfbench/instrument.py).

Installing its Capture and Tracer against this tree fails here, with an
AttributeError, when a refactor drops or renames a name they wrap, instead
of in a traced benchmark run.  So does a refactor that answers sessions
past the oracle methods the Tracer wraps, or finds an attack's accepted
point past the accept search it wraps, or counts an interaction past
``Oracle._charge``, the one name a tracer needs to see them all.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from matchleak import attacks, bounds, covering, harness, oracle, space

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (space, oracle, attacks, covering, bounds, harness, oracle.Oracle)


def snapshot() -> list[dict]:
    return [dict(vars(m)) for m in MODULES]


@pytest.mark.parametrize("kind", ["Capture", "Tracer"])
def test_install_and_restore(kind, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument

    program = types.SimpleNamespace(
        space=space, oracle=oracle, attacks=attacks, covering=covering, bounds=bounds, harness=harness
    )
    before = snapshot()
    tool = getattr(instrument, kind)(program, tmp_path)
    try:
        tool.install()
        assert snapshot() != before
    finally:
        # a failed install leaves the patches it already made
        tool.__exit__(None, None, None)
    assert snapshot() == before


@pytest.mark.parametrize("attack", ["accumulation_multi", "fault_control"])
def test_every_session_reaches_the_wrapped_methods(attack, monkeypatch):
    # Tracer.install wraps these two on the class; an attack that answers
    # its sessions on a private path would leave them out of a trace
    calls = []
    for name in ("genuine_session", "faulted_session"):
        method = getattr(oracle.Oracle, name)

        def wrapped(self, *args, _method=method, **kwargs):
            calls.append(1)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(oracle.Oracle, name, wrapped)
    params = space.SpaceParams(2, 16, 3)
    rng = np.random.default_rng(5)
    mode = oracle.LeakageMode.parse("below", "posvalues")
    o = oracle.Oracle(space.sample_template(params, rng), params, mode)
    if attack == "fault_control":
        attacks.fault_controlled_collect(o)
    else:
        attacks.accumulation_collect(o, oracle.ClientModel.uniform(16, oracle.SessionShape.MULTI_ERROR), rng)
    assert len(calls) == o.session_count > 0


@pytest.mark.parametrize(
    "attack,strategy",
    [(attack, None) for attack, spec in attacks.ATTACKS.items() if "strategy" not in spec.reads]
    + [("minimal", "fixing"), ("minimal", "greedy")],
)
def test_every_accept_search_reaches_the_wrapped_search(attack, strategy, monkeypatch):
    # Tracer.install wraps attacks.covering_search; an attack that found its
    # accepted point on another path would leave its search out of a trace,
    # and one its registry row does not say opens with a search would be
    # priced without it
    calls = []
    search = attacks.covering_search

    def wrapped(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(attacks, "covering_search", wrapped)
    spec = attacks.ATTACKS[attack]
    params = space.SpaceParams(2, 9, 2)
    rng = np.random.default_rng(7)
    o = oracle.Oracle(space.sample_template(params, rng), params, spec.mode)
    config = types.SimpleNamespace(strategy=strategy, alpha=None, session_shape="single")
    out = spec.run(o, config, rng)
    recovered = out.recovered.coords if isinstance(out.recovered, attacks.PartialTemplate) else out.recovered
    assert recovered == o.audit_secret()
    assert len(calls) == (1 if spec.search else 0)


@pytest.mark.parametrize("attack", ["below_distance", "both_distance"])
def test_every_distance_climb_reaches_the_oracle_climb(attack, monkeypatch):
    # a tracer that wraps Oracle.climb sees every climb only if each trial
    # climbs through it, once
    calls = []
    climb = oracle.Oracle.climb

    def wrapped(self, *args, **kwargs):
        calls.append(1)
        return climb(self, *args, **kwargs)

    monkeypatch.setattr(oracle.Oracle, "climb", wrapped)
    spec = attacks.ATTACKS[attack]
    params = space.SpaceParams(3, 9, 2)
    rng = np.random.default_rng(7)
    for trial in range(1, 6):
        o = oracle.Oracle(space.sample_template(params, rng), params, spec.mode)
        out = spec.run(o, types.SimpleNamespace(), rng)
        assert out.recovered == o.audit_secret()
        assert len(calls) == trial


@pytest.mark.parametrize(
    "attack,strategy",
    [("below_distance", None), ("below_positions", None), ("below_posvalues", None), ("minimal", "fixing")],
)
def test_every_fixing_search_reaches_the_oracle_scan_fixing(attack, strategy, monkeypatch):
    # a tracer that wraps Oracle.scan_fixing sees every accept search over
    # the fixing centers only if each trial searches through it, once
    calls = []
    scan_fixing = oracle.Oracle.scan_fixing

    def wrapped(self, *args, **kwargs):
        calls.append(1)
        return scan_fixing(self, *args, **kwargs)

    monkeypatch.setattr(oracle.Oracle, "scan_fixing", wrapped)
    spec = attacks.ATTACKS[attack]
    params = space.SpaceParams(2, 9, 2)
    rng = np.random.default_rng(7)
    config = types.SimpleNamespace(strategy=strategy, alpha=None, session_shape="single")
    for trial in range(1, 6):
        o = oracle.Oracle(space.sample_template(params, rng), params, spec.mode)
        out = spec.run(o, config, rng)
        assert out.recovered == o.audit_secret()
        assert len(calls) == trial


@pytest.mark.parametrize(
    "attack,shape", [(attack, "single") for attack in attacks.ATTACKS] + [("accumulation", "multi")]
)
@pytest.mark.parametrize("tapped", [False, True])
def test_every_interaction_passes_the_hook(attack, shape, tapped, monkeypatch):
    # Oracle._charge is the one place the counters move: a tracer that
    # wraps it sees the traffic of scan, watch and climb too, and each
    # trial's record holds what the hook counted
    charged = {"queries": 0, "sessions": 0}
    charge = oracle.Oracle._charge

    def wrapped(self, k, pairs, sessions=False):
        charged["sessions" if sessions else "queries"] += k
        return charge(self, k, pairs, sessions)

    monkeypatch.setattr(oracle.Oracle, "_charge", wrapped)
    spec = attacks.ATTACKS[attack]
    q = 2 if spec.binary else 3
    config = harness.ExperimentConfig(q, 9, 2, attack=attack, session_shape=shape)
    params = harness.validate_config(config)
    bound = harness.attack_bound(config, params)
    tap = (lambda submission, answer: None) if tapped else None
    for trial in range(3):
        before = dict(charged)
        record = harness.run_trial(config, trial, params, bound, tap)
        assert charged["queries"] - before["queries"] == record.queries
        assert charged["sessions"] - before["sessions"] == record.sessions
        assert record.queries + record.sessions > 0 and record.exact
