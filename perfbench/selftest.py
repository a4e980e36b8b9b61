"""Self-test of the benchmark's checks: each must pass a correct output and
reject a corrupted record, a corrupted template, a corrupted oracle answer,
a corrupted session, a session mean outside its bracket and a cover that
leaves a point uncovered or is too large.

    python3 perfbench/selftest.py

prints the cases the checks got wrong and exits 1 if there are any.  The
correct outputs are built here from the paper's definitions, not by the
program, so the test says nothing about the program and needs no checkout.
The benchmark runs the same test before every measurement.
"""

from __future__ import annotations

from types import SimpleNamespace as Fake

import checks


def _hamming_7_4() -> list[tuple[int, ...]]:
    """The 16 codewords of the perfect binary Hamming code: radius-1 balls
    around them tile Z_2^7."""
    words = []
    for x in range(1 << 7):
        syndrome = 0
        for i in range(7):
            if x >> i & 1:
                syndrome ^= i + 1
        if syndrome == 0:
            words.append(tuple(x >> i & 1 for i in range(7)))
    return words


def run() -> list[str]:
    """Names of the cases the checks got wrong; empty when all behave."""
    wrong: list[str] = []

    def expect(case: str, problems: list[str], rejected: bool) -> None:
        if bool(problems) != rejected:
            wrong.append(f"{case}: {'accepted' if rejected else 'rejected'} ({problems})")

    # records and recovered templates
    config = Fake(q=2, n=12, epsilon=3, attack="below_positions", strategy="fixing", trials=3, master_seed=11)
    _, _, limit = checks.cost_rule(config.attack, config.q, config.n, config.epsilon)
    seeds = [checks.trial_seed(config.master_seed, t) for t in range(config.trials)]
    records = [Fake(trial=t, seed=s, queries=limit - t, sessions=0) for t, s in enumerate(seeds)]
    found = {t: checks.secret_from_seed(config.q, config.n, s) for t, s in enumerate(seeds)}
    expect("clean records", checks.check_trials(config, records, found), False)
    bad_seed = [Fake(**{**vars(records[0]), "seed": seeds[0] ^ 1})] + records[1:]
    expect("record with a wrong seed", checks.check_trials(config, bad_seed, found), True)
    over = records[:2] + [Fake(**{**vars(records[2]), "queries": limit + 1})]
    expect("record over the query bound", checks.check_trials(config, over, found), True)
    sessions = records[:2] + [Fake(**{**vars(records[2]), "sessions": 1})]
    expect("active record with sessions", checks.check_trials(config, sessions, found), True)
    expect("records out of order", checks.check_trials(config, records[::-1], found), True)
    flipped = {**found, 1: (1 - found[1][0],) + found[1][1:]}
    expect("wrong recovered template", checks.check_trials(config, records, flipped), True)
    expect("missing recovered template", checks.check_trials(config, records, {0: found[0]}), True)

    # oracle answers, for every payload and both scopes
    secret, eps = (0, 1, 2, 3, 0, 1), 2
    near, far = (0, 1, 2, 0, 0, 2), (3, 3, 3, 3, 3, 3)
    for scope in ("below", "both"):
        for payload in ("none", "distance", "positions", "posvalues"):
            for label, y in (("accepted", near), ("rejected", far)):
                case = f"{scope}/{payload} {label} response"
                accepted, distance, positions, values = checks.expected_response(secret, y, eps, scope, payload)
                resp = Fake(accepted=accepted, distance=distance, error_positions=positions, error_values=values)
                expect(case, checks.check_response(secret, eps, scope, payload, y, resp), False)
                if distance is not None:
                    bad = Fake(**{**vars(resp), "distance": distance + 1})
                elif positions is not None:
                    bad = Fake(**{**vars(resp), "error_positions": positions - {min(positions)}})
                else:
                    bad = Fake(**{**vars(resp), "accepted": not accepted})
                expect(f"corrupted {case}", checks.check_response(secret, eps, scope, payload, y, bad), True)
                leaky = Fake(**{**vars(resp), "distance": 6}) if distance is None else None
                if leaky is not None:
                    expect(f"{case} leaking a distance", checks.check_response(secret, eps, scope, payload, y, leaky), True)

    # sessions
    bits = (1, 0, 1, 1, 0, 0, 1, 0)
    fault = Fake(errors={2: -1, 3: 1})
    expect("faulted session", checks.check_faulted(bits, 2, [2, 3], fault), False)
    expect("corrupted faulted session", checks.check_faulted(bits, 2, [2, 3], Fake(errors={2: -1})), True)
    expect("genuine session", checks.check_genuine(bits, 2, 2, True, fault), False)
    expect("impossible genuine session", checks.check_genuine(bits, 2, 2, True, Fake(errors={1: -1})), True)
    expect("two errors in a single-error session", checks.check_genuine(bits, 2, 2, False, fault), True)

    # accumulation bracket: uniform single-error client at n=16 expects 16 H(16) = 54.1
    acc = Fake(n=16, epsilon=3, alpha=None, session_shape="single")
    expect("accumulation mean in the bracket", checks.check_bracket(acc, [Fake(sessions=54)] * 2), False)
    expect("accumulation mean below the bracket", checks.check_bracket(acc, [Fake(sessions=1)] * 2), True)

    # covers
    code = _hamming_7_4()
    expect("perfect code cover", checks.check_cover(2, 7, 1, code), False)
    expect("cover missing a center", checks.check_cover(2, 7, 1, code[:-1]), True)
    everything = [tuple(x >> i & 1 for i in range(7)) for x in range(1 << 7)]
    expect("oversized cover", checks.check_cover(2, 7, 1, everything), True)
    return wrong


def main() -> int:
    wrong = run()
    for case in wrong:
        print(f"FAIL {case}")
    print("self-test passed" if not wrong else f"self-test failed: {len(wrong)} case(s)")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
