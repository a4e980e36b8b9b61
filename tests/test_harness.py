import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from matchleak import attacks, cli, harness
from matchleak.bounds import theoretical_bounds, worst_case_queries
from matchleak.cli import main
from matchleak.errors import CapacityError, InternalError, UsageError
from matchleak.harness import (
    BENCH_SCENARIOS,
    ExperimentConfig,
    attack_bound,
    bench_table,
    emit,
    emit_bench,
    format_bench,
    run_experiment,
    validate_config,
)
from matchleak.oracle import LeakageMode, Payload, Scope
from matchleak.space import SpaceParams, ball_volume, coupon_bracket, harmonic_number_exact, q_ary_entropy


class TestBoundReport:
    def test_below_distance_example(self):
        params = SpaceParams(2, 8, 2)
        report = theoretical_bounds(params, LeakageMode(Scope.BELOW_ONLY, Payload.DISTANCE))
        assert report.naive_search == 64
        assert report.worst_case_queries == 64 + 2

    def test_everything_accepted(self):
        report = theoretical_bounds(
            SpaceParams(2, 8, 8), LeakageMode(Scope.ALWAYS, Payload.NONE)
        )
        assert report.naive_search == 1

    def test_greedy_cover_bound_rational(self):
        params = SpaceParams(2, 10, 2)
        report = theoretical_bounds(params, LeakageMode(Scope.ALWAYS, Payload.NONE))
        assert ball_volume(params) == 56
        assert report.greedy_cover_bound == Fraction(1024) * harmonic_number_exact(10) / 56

    def test_entropy_approx_flagged_when_undefined(self):
        # eps/n beyond 1 - 1/q has no entropy estimate; field is None not 0
        report = theoretical_bounds(
            SpaceParams(2, 8, 6), LeakageMode(Scope.ALWAYS, Payload.DISTANCE)
        )
        assert report.entropy_approx is None
        ok = theoretical_bounds(SpaceParams(2, 8, 2), LeakageMode(Scope.ALWAYS, Payload.DISTANCE))
        assert ok.entropy_approx == pytest.approx(2 ** (8 * (1 - 0.8112781244591328)), rel=1e-9)

    def test_per_mode_bounds(self):
        params = SpaceParams(4, 6, 2)
        table = {
            (Scope.BELOW_ONLY, Payload.DISTANCE): 4**4 + 6,
            (Scope.BELOW_ONLY, Payload.POSITIONS): 4**4 + 3,
            (Scope.BELOW_ONLY, Payload.POSITIONS_VALUES): 4**4 + 1,
            (Scope.ALWAYS, Payload.DISTANCE): 19,
            (Scope.ALWAYS, Payload.POSITIONS): 3,
            (Scope.ALWAYS, Payload.POSITIONS_VALUES): 1,
        }
        for (scope, payload), expected in table.items():
            assert worst_case_queries(params, LeakageMode(scope, payload)) == expected
        # the accept-bit-only scenario has no bound off the binary alphabet
        assert worst_case_queries(params, LeakageMode(Scope.ALWAYS, Payload.NONE)) is None
        assert worst_case_queries(SpaceParams(2, 6, 2), LeakageMode(Scope.ALWAYS, Payload.NONE)) == 16 + 6 + 5

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("attack", sorted(a for a, spec in attacks.ATTACKS.items() if spec.counter == "queries"))
    def test_worst_case_only_where_the_attack_runs(self, attack, q):
        # the report states a cost exactly where the attack would run, and
        # then the one the harness checks trials against
        n = 6
        for eps in (0, n - 1, n):
            config = ExperimentConfig(q, n, eps, attack=attack)
            stated = worst_case_queries(SpaceParams(q, n, eps), attacks.ATTACKS[attack].mode)
            try:
                params = validate_config(config)
            except UsageError:
                assert stated is None, (q, eps)
            else:
                assert stated == attack_bound(config, params), (q, eps)

    def test_coupon_bracket(self):
        lo, hi = coupon_bracket(16, 16**-1.5)
        assert lo == pytest.approx(64.0)
        assert hi == pytest.approx((math.log(16) + 1) * 64.0)
        with pytest.raises(UsageError):
            coupon_bracket(4, 0.0)


class TestConfigValidation:
    def test_unknown_attack(self):
        with pytest.raises(UsageError):
            validate_config(ExperimentConfig(2, 8, 2, attack="quantum"))

    def test_binary_only_attacks(self):
        with pytest.raises(UsageError):
            validate_config(ExperimentConfig(3, 8, 2, attack="minimal"))

    def test_threshold_constraints(self):
        with pytest.raises(UsageError):
            validate_config(ExperimentConfig(2, 8, 8, attack="below_positions"))
        with pytest.raises(UsageError):
            validate_config(ExperimentConfig(2, 8, 0, attack="fault_control"))

    def test_hopeless_accumulation_refused(self):
        # coordinate 1 errs with chance 16**-40: a trial expects at least
        # 16**40, about 1.5e48, sessions
        cfg = ExperimentConfig(2, 16, 3, attack="accumulation", trials=1, alpha=40.0)
        with pytest.raises(UsageError, match=r"at least 1.46e\+48 sessions .* limit of 4294967296"):
            validate_config(cfg)
        # the limit's own lower end, 16**8 = 2**32, still runs, as do the
        # passive benchmark's runs, whose lower end is 64
        validate_config(replace(cfg, alpha=8.0))
        for shape in ("single", "multi"):
            validate_config(replace(cfg, alpha=1.5, session_shape=shape))

    def test_greedy_strategy_bound(self):
        cfg = ExperimentConfig(2, 8, 1, attack="minimal", strategy="greedy")
        params = validate_config(cfg)
        bound = attack_bound(cfg, params)
        assert bound <= math.ceil(256 * float(harmonic_number_exact(8)) / 9) + 8 + 2 + 1


class TestRunExperiment:
    def test_deterministic_records(self):
        cfg = ExperimentConfig(2, 9, 2, attack="minimal", trials=40, master_seed=11)
        a, sa = run_experiment(cfg)
        b, sb = run_experiment(cfg)
        assert a == b
        assert sa == sb
        assert sa["violations"] == 0 and sa["exact_failures"] == 0

    def test_workers_match_sequential(self):
        base = ExperimentConfig(3, 6, 2, attack="both_distance", trials=12, master_seed=3)
        seq, _ = run_experiment(base)
        par, _ = run_experiment(
            ExperimentConfig(3, 6, 2, attack="both_distance", trials=12, master_seed=3, workers=3)
        )
        strip = lambda rs: [(r.trial, r.seed, r.queries, r.exact, r.bound_ok) for r in rs]
        assert strip(seq) == strip(par)

    @pytest.mark.parametrize(
        "attack, extra",
        [
            ("accumulation", {"alpha": 1.5}),
            ("accumulation", {"alpha": 1.5, "session_shape": "multi"}),
            ("fault_control", {}),
        ],
    )
    def test_passive_workers_match_sequential(self, attack, extra):
        # 13 trials over two workers come back in uneven chunks
        cfg = ExperimentConfig(2, 16, 3, attack=attack, trials=13, master_seed=5, **extra)
        seq, seq_summary = run_experiment(cfg)
        par, par_summary = run_experiment(replace(cfg, workers=2))
        assert seq == par
        assert seq_summary == par_summary

    def test_accumulation_summary_bracket(self):
        cfg = ExperimentConfig(2, 10, 2, attack="accumulation", trials=150, master_seed=4)
        _, summary = run_experiment(cfg)
        assert summary["bracket_lo"] == pytest.approx(10.0)
        assert summary["bracket_ok"] == 1
        assert summary["ok"]

    def test_multi_error_accumulation_bracket(self):
        # the bracket sits at the chance that a multi-error session observes
        # the rarest coordinate, not at that coordinate's error probability
        cfg = ExperimentConfig(
            2, 16, 3, attack="accumulation", trials=200, master_seed=0, alpha=1.5, session_shape="multi"
        )
        _, summary = run_experiment(cfg)
        assert summary["bracket_lo"] == pytest.approx(30.86, abs=0.01)
        assert summary["bracket_hi"] == pytest.approx(116.43, abs=0.01)
        assert summary["bracket_ok"] == 1
        assert summary["ok"]

    def test_fault_control_sessions(self):
        cfg = ExperimentConfig(2, 11, 4, attack="fault_control", trials=10, master_seed=1)
        records, summary = run_experiment(cfg)
        assert all(r.sessions == 3 for r in records)
        assert summary["ok"]


class TestForkShare:
    """run_experiment with several workers: the caller runs trials 0, w,
    2w, ... and each of w-1 forked children runs its own stride."""

    FAULTS = ExperimentConfig(2, 11, 4, attack="fault_control", trials=6, workers=3)

    @pytest.fixture(autouse=True)
    def _no_child_left(self):
        yield
        assert multiprocessing.active_children() == []

    @staticmethod
    def _patch_faults(monkeypatch, in_caller=None, in_child=None):
        """Make the fault-control attack call in_caller() first in the
        calling process and in_child() first in a forked child; a fork
        inherits the patch, so the pid tells the two apart."""
        caller, real = os.getpid(), attacks.fault_controlled_collect

        def patched(*args, **kwargs):
            act = in_caller if os.getpid() == caller else in_child
            if act is not None:
                act()
            return real(*args, **kwargs)

        monkeypatch.setattr(attacks, "fault_controlled_collect", patched)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_records_match_one_worker(self, workers, trials, monkeypatch):
        fork = multiprocessing.get_context("fork")
        started = []

        class Counted(fork.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(fork, "Process", Counted)
        cfg = ExperimentConfig(2, 16, 3, attack="accumulation", trials=trials, master_seed=9, alpha=1.5)
        records, summary = run_experiment(cfg)
        assert started == []
        assert run_experiment(replace(cfg, workers=workers)) == (records, summary)
        # one child per share but the caller's, and none for a single trial
        assert len(started) == min(workers, trials) - 1

    @pytest.mark.parametrize("kind", [InternalError, CapacityError])
    def test_child_error_reaches_the_caller(self, kind, monkeypatch):
        def fail():
            raise kind("broken in a child")

        self._patch_faults(monkeypatch, in_child=fail)
        with pytest.raises(kind, match="^broken in a child$"):
            run_experiment(self.FAULTS)

    def test_child_that_dies_names_its_exit_code(self, monkeypatch):
        self._patch_faults(monkeypatch, in_child=lambda: os._exit(3))
        with pytest.raises(InternalError, match="exited with code 3 before sending its records"):
            run_experiment(self.FAULTS)

    def test_caller_error_stops_every_child(self, monkeypatch):
        def fail():
            raise InternalError("broken in the caller")

        # the children would sleep far longer than the test may take
        self._patch_faults(monkeypatch, in_caller=fail, in_child=lambda: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(InternalError, match="broken in the caller"):
            run_experiment(self.FAULTS)
        assert time.monotonic() - t0 < 30


class TestEmit:
    CFG = ExperimentConfig(4, 5, 2, attack="both_positions", trials=25, master_seed=7)
    COLUMNS = ["trial", "seed", "queries", "sessions", "exact", "within_ball", "bound", "bound_ok", "ms"]

    def test_csv_columns_and_roundtrip(self, tmp_path):
        records, _ = run_experiment(self.CFG)
        path = tmp_path / "r.csv"
        emit(records, "csv", path)
        text = path.read_text()
        assert text.endswith("\n")
        header, *rows = csv.reader(text.splitlines())
        assert header == self.COLUMNS
        # canonical output hides timing
        assert rows == [[str(v) for v in asdict(replace(r, ms=0)).values()] for r in records]

    def test_jsonl_roundtrip_with_timing(self, tmp_path):
        records, _ = run_experiment(self.CFG)
        path = tmp_path / "r.jsonl"
        emit(records, "jsonl", path, include_timing=True)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(doc) for doc in docs] == [self.COLUMNS] * len(records)
        assert docs == [asdict(r) for r in records]  # timing included, unlike record equality

    def test_byte_determinism(self, tmp_path):
        records, _ = run_experiment(self.CFG)
        again, _ = run_experiment(self.CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(records, "csv", p1)
        emit(again, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text() == ",".join(self.COLUMNS) + "\n"
        jpath = tmp_path / "empty.jsonl"
        emit([], "jsonl", jpath)
        assert jpath.read_text() == ""

    def test_unwritable_path_reports_target(self, tmp_path):
        records, _ = run_experiment(self.CFG)
        bad = tmp_path / "missing" / "r.csv"
        with pytest.raises(OSError, match="missing"):
            emit(records, "csv", bad)


class TestBench:
    def test_rows_and_determinism(self, tmp_path):
        rows = bench_table(q=2, n=12, epsilon=3, trials=25, master_seed=2)
        assert [r.scenario for r in rows] == [s for s, _ in BENCH_SCENARIOS]
        assert len(rows) == 8
        assert all(r.ok for r in rows)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_bench(rows, "csv", p1)
        emit_bench(bench_table(q=2, n=12, epsilon=3, trials=25, master_seed=2), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()
        table = format_bench(rows)
        assert "both/posvalues" in table

    def test_requires_binary(self):
        with pytest.raises(UsageError):
            bench_table(q=3, n=12, epsilon=3, trials=25, master_seed=2)


class TestCli:
    def test_attack_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        code = main([
            "attack", "--attack", "both_posvalues", "--q", "5", "--n", "20",
            "--epsilon", "4", "--trials", "30", "--seed", "12", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "queries_max: 1" in printed

    @pytest.mark.parametrize("timing", [[], ["--timing"]])
    def test_unwritable_out_fails_before_any_trial(self, timing, tmp_path, monkeypatch, capsys):
        real, ran = harness.run_trial, []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a) or real(*a, **kw))
        bad = tmp_path / "missing" / "r.csv"
        code = main(["attack", "--attack", "fault_control", "--n", "8", "--trials", "5", "--out", str(bad), *timing])
        assert code == 2
        assert ran == []
        assert f"error: cannot write records to {bad}: [Errno 2]" in capsys.readouterr().err

    def test_timing_records_match_canonical_but_ms(self, tmp_path):
        argv = ["attack", "--attack", "both_distance", "--q", "3", "--n", "6", "--epsilon", "2",
                "--trials", "20", "--seed", "4", "--format", "jsonl"]
        canonical, timed = tmp_path / "canonical.jsonl", tmp_path / "timed.jsonl"
        assert main([*argv, "--out", str(canonical)]) == 0
        assert main([*argv, "--timing", "--out", str(timed)]) == 0
        docs = lambda p: [json.loads(line) for line in p.read_text().splitlines()]
        a, b = docs(canonical), docs(timed)
        assert len(a) == len(b) == 20
        assert all(doc["ms"] == 0 for doc in a)
        assert [{**d, "ms": 0} for d in b] == a

    def test_config_file_bad_format_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack=both_positions\nq=4\nn=5\nepsilon=2\nformat=xml\n")
        assert main(["attack", "--config", str(cfg), "--trials", "5"]) == 2
        assert ran == []
        assert "error:" in capsys.readouterr().err

    def test_unwritable_bench_out_fails_before_any_row(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: ran.append(a))
        assert main(["bench", "--trials", "5", "--out", str(tmp_path)]) == 2
        assert ran == []
        assert f"error: cannot write bench rows to {tmp_path}: [Errno 21]" in capsys.readouterr().err

    def test_config_file_bad_bench_format_fails_before_any_row(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: ran.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(cfg), "--trials", "5", "--out", str(out)]) == 2
        assert ran == []
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unknown output format 'xml'" in captured.err

    def test_unwritable_cover_out_fails_before_the_build(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "greedy_cover", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "coordinate_fixing_cover", lambda *a: built.append(a))
        bad = tmp_path / "missing" / "cover.txt"
        for method in ("greedy", "fixing"):
            argv = ["cover", "--n", "6", "--epsilon", "1", "--method", method, "--out", str(bad)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: cannot write cover to {bad}: [Errno 2]" in captured.err
        assert built == []

    def test_cover_export_limit_fails_before_the_build(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "greedy_cover", lambda *a: built.append(a))
        out = tmp_path / "c.txt"
        assert main(["cover", "--q", "37", "--n", "2", "--epsilon", "1", "--out", str(out)]) == 2
        assert built == []
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: export supports q <= 36" in captured.err

    @pytest.mark.parametrize("method", ["fixing", "greedy"])
    def test_cover_verification_limit_fails_before_the_build(self, method, monkeypatch, capsys):
        # 2^25 points exceed verify_cover's guard; the fixing cover alone
        # would hold 2^18 centers
        built = []
        monkeypatch.setattr(cli, "greedy_cover", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "coordinate_fixing_cover", lambda *a: built.append(a))
        argv = ["cover", "--q", "2", "--n", "25", "--epsilon", "7", "--method", method]
        assert main(argv) == 2
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cover verification needs 33554432 points materialized (guard 16777216)" in captured.err

    def test_cover_export_at_the_alphabet_limit(self, tmp_path):
        out = tmp_path / "c.txt"
        assert main(["cover", "--q", "36", "--n", "1", "--epsilon", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == list("0123456789abcdefghijklmnopqrstuvwxyz")

    def test_unwritable_bounds_out_fails_before_the_report(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "theoretical_bounds", lambda *a: ran.append(a))
        assert main(["bounds", "--n", "10", "--epsilon", "2", "--out", str(tmp_path)]) == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write report to {tmp_path}: [Errno 21]" in captured.err

    @pytest.mark.parametrize("flag", [["--workers", "7"], ["--timing"]])
    def test_bench_rejects_flags_it_does_not_use(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--trials", "5", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, timed",
        [("1", True), ("TRUE", True), ("yes", True), ("0", False), ("false", False), ("No", False)],
    )
    def test_config_file_booleans(self, text, timed, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"timing={text}\n")
        assert cli._load_config_file(str(cfg), "attack") == {"timing": timed}

    def test_attack_takes_no_mode_flags(self, capsys):
        # the attack fixes the mode, so even the matching one is not an option
        with pytest.raises(SystemExit) as exc:
            main([
                "attack", "--attack", "both_positions", "--scope", "both",
                "--payload", "positions", "--q", "4", "--n", "5", "--epsilon", "2",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scope both --payload positions" in capsys.readouterr().err

    def test_bounds_command(self, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        code = main([
            "bounds", "--q", "2", "--n", "10", "--epsilon", "2",
            "--scope", "below", "--payload", "distance", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["naive_search"] == 256
        assert doc["worst_case_queries"] == 258
        assert doc["ball_volume"] == 56

    @pytest.mark.parametrize(
        "argv",
        [
            ["--q", "16", "--n", "1024", "--epsilon", "8", "--payload", "posvalues"],
            ["--q", "3", "--n", "700", "--epsilon", "2"],
            ["--q", "2", "--n", "1100", "--epsilon", "1"],
        ],
    )
    def test_bounds_beyond_float_range(self, argv, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", *argv, "--out", str(out)]) == 0
        printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        q, n, eps = (int(v) for v in argv[1:6:2])
        params = SpaceParams(q, n, eps)

        def near(text, exact):
            mantissa, exponent = text.split("e+")
            assert 1 <= float(mantissa) < 10
            assert abs(Fraction(mantissa) * 10 ** int(exponent) / exact - 1) < Fraction(1, 10**15)

        exact = Fraction(params.space_size()) * harmonic_number_exact(n) / ball_volume(params)
        near(doc["greedy_cover_bound"], exact)
        assert doc["greedy_cover_bound_exact"] == f"{exact.numerator}/{exact.denominator}"
        near(doc["naive_search"], q ** (n - eps))
        mantissa, exponent = doc["entropy_approx"].split("e+")
        log10 = n * (1 - q_ary_entropy(q, eps / n)) * math.log10(q)
        assert int(exponent) + math.log10(float(mantissa)) == pytest.approx(log10, rel=1e-12)
        for key, value in doc.items():
            assert printed[key] == ("undefined" if value is None else str(value))

    def test_cover_command(self, tmp_path, capsys):
        out = tmp_path / "cover.txt"
        code = main(["cover", "--q", "2", "--n", "6", "--epsilon", "1", "--method", "greedy", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# q=2 n=6 epsilon=1")

    def test_bench_command_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--n", "8", "--epsilon", "2", "--trials", "15", "--seed", "5", "--out", str(a)]) == 0
        assert main(["bench", "--n", "8", "--epsilon", "2", "--trials", "15", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_accumulate_command(self, capsys):
        code = main([
            "accumulate", "--q", "2", "--n", "12", "--epsilon", "3",
            "--trials", "40", "--seed", "8", "--alpha", "1.0",
        ])
        assert code == 0
        assert "bracket_ok: 1" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack=both_positions\nq=4\nn=5\nepsilon=2\ntrials=99\nseed=3\n")
        code = main(["attack", "--config", str(cfg), "--trials", "7"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "trials: 7" in printed  # flag wins over file
        assert "q: 4" in printed

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attacc=both_positions\n")
        assert main(["attack", "--config", str(cfg)]) == 2

    def test_config_file_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack=both_positions\nq=abc\n")
        assert main(["attack", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"{cfg}:2" in err

    @pytest.mark.parametrize(
        "command, key",
        [
            ("bench", "workers=3"),
            ("bench", "timing=1"),
            ("bench", "alpha=2"),
            ("bench", "attack=minimal"),
            ("bounds", "trials=5"),
            ("cover", "seed=1"),
            ("cover", "format=jsonl"),
            ("accumulate", "attack=minimal"),
            ("accumulate", "strategy=greedy"),
            # the attack fixes the mode; only bounds takes it as an input
            ("attack", "scope=below"),
            ("attack", "payload=none"),
        ],
    )
    def test_config_file_key_without_an_option_is_config_error(self, command, key, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(cli, "greedy_cover", lambda *a: ran.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=6\n{key}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        name = key.split("=")[0]
        assert f"error: {cfg}:2: key {name!r} is not an option of this subcommand" in captured.err

    def test_config_file_keys_of_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=2\nn=8\nepsilon=2\ntrials=5\nseed=1\nformat=csv\n")
        assert main(["bench", "--config", str(cfg)]) == 0
        cfg.write_text("q=2\nn=8\nepsilon=1\nmethod=fixing\n")
        assert main(["cover", "--config", str(cfg)]) == 0
        assert "method: fixing" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["ture", "2", "on", ""])
    def test_config_file_bad_boolean_is_config_error(self, text, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"attack=both_positions\ntiming={text}\n")
        assert main(["attack", "--config", str(cfg)]) == 2
        assert ran == []
        assert f"{cfg}:2: bad value for timing: {text!r}" in capsys.readouterr().err

    def test_audit_stream_schema(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        code = main([
            "attack", "--attack", "both_posvalues", "--q", "4", "--n", "6",
            "--epsilon", "2", "--trials", "3", "--audit", str(audit),
        ])
        assert code == 0
        lines = audit.read_text().splitlines()
        assert len(lines) == 3  # one query per trial
        for line in lines:
            doc = json.loads(line)
            assert set(doc) <= {"accepted", "distance", "positions", "values"}
            assert doc["accepted"] in (0, 1)
