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
        out = attacks.fault_controlled_collect(o)
    else:
        out = attacks.accumulation_collect(o, oracle.ClientModel.uniform(16, oracle.SessionShape.MULTI_ERROR), rng)
    assert len(calls) == o.session_count == out.sessions_used > 0


@pytest.mark.parametrize(
    "attack,strategy",
    [
        ("below_distance", None),
        ("below_positions", None),
        ("below_posvalues", None),
        ("minimal", "fixing"),
        ("minimal", "greedy"),
    ],
)
def test_every_accept_search_reaches_the_wrapped_search(attack, strategy, monkeypatch):
    # Tracer.install wraps attacks.covering_search; an attack that found its
    # accepted point on another path would leave its search out of a trace
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
    out = spec.run(o, types.SimpleNamespace(strategy=strategy), rng)
    assert out.recovered == o.audit_secret()
    assert len(calls) == 1


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
    "attack,shape", [(attack, "single") for attack in attacks.ATTACKS] + [("accumulation", "multi")]
)
@pytest.mark.parametrize("tapped", [False, True])
def test_every_interaction_passes_the_hook(attack, shape, tapped, monkeypatch):
    # Oracle._charge is the one place the counters move: a tracer that
    # wraps it sees the traffic of scan, watch and climb too
    charged = {"queries": 0, "sessions": 0}
    charge = oracle.Oracle._charge

    def wrapped(self, k, pairs, sessions=False):
        charged["sessions" if sessions else "queries"] += k
        return charge(self, k, pairs, sessions)

    monkeypatch.setattr(oracle.Oracle, "_charge", wrapped)
    spec = attacks.ATTACKS[attack]
    q = 2 if spec.binary else 3
    params = space.SpaceParams(q, 9, 2)
    config = harness.ExperimentConfig(q, 9, 2, attack=attack, session_shape=shape)
    rng = np.random.default_rng(11)
    for _ in range(3):
        tap = (lambda submission, answer: None) if tapped else None
        o = oracle.Oracle(space.sample_template(params, rng), params, spec.mode, tap=tap)
        before = dict(charged)
        out = spec.run(o, config, rng)
        assert charged["queries"] - before["queries"] == o.query_count == out.queries_used
        assert charged["sessions"] - before["sessions"] == o.session_count == out.sessions_used
        assert o.query_count + o.session_count > 0
