"""perfbench wraps program functions by name (perfbench/instrument.py).

Installing its Capture and Tracer against this tree fails here, with an
AttributeError, when a refactor drops or renames a name they wrap, instead
of in a traced benchmark run.
"""

import types
from pathlib import Path

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
