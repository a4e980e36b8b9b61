"""The CLI's one declaration of each option: defaults, types and choices live
in argparse, and a config file goes through the same actions as the flags."""

import re
from dataclasses import MISSING, fields, replace

import pytest

from matchleak import ExperimentConfig, UsageError, cli, harness
from matchleak.attacks import ATTACKS
from matchleak.cli import main
from matchleak.harness import validate_config

COMMANDS = ("attack", "accumulate", "bench", "bounds", "cover")
# the subcommands whose options describe an experiment
EXPERIMENT_COMMANDS = ("attack", "accumulate", "bench")


def _options(command: str) -> dict:
    """The subcommand's config-file keys and their argparse actions."""
    return cli._file_options(cli._subcommands(cli.build_parser())[command])


def _printed_defaults(text: str) -> dict[str, str]:
    """Each option's printed default in a --help text, by its first flag."""
    found = {}
    for block in re.split(r"\n  (?=-)", text)[1:]:
        match = re.search(r"\(default: ([^)]*)\)", " ".join(block.split()))
        if match:
            found[block.split()[0].rstrip(",")] = match.group(1)
    return found


@pytest.mark.parametrize("command", COMMANDS)
def test_help_prints_every_default_once(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    printed = _printed_defaults(capsys.readouterr().out)
    actions = {a.option_strings[0]: a for a in _options(command).values()}
    assert set(actions) <= set(printed)
    if command in EXPERIMENT_COMMANDS:
        experiment = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
        compared = [flag for flag, a in actions.items() if a.dest in experiment]
        assert "--trials" in compared and "--seed" in compared
        for flag in compared:
            assert printed[flag] == str(experiment[actions[flag].dest]), flag


# each case sets its keys once from a file and once by flags; together the
# cases of a subcommand set every one of its options
FLAG_FILE_CASES = [
    ("attack", {
        "attack": "minimal", "q": "2", "n": "7", "epsilon": "2", "trials": "4", "seed": "9",
        "format": "jsonl", "out": "r.jsonl", "timing": "1", "scope": "both", "payload": "none",
        "strategy": "greedy", "audit": "a.jsonl",
    }),
    ("attack", {"attack": "accumulation", "n": "8", "workers": "2", "alpha": "1.5", "session_shape": "multi"}),
    ("accumulate", {
        "q": "2", "n": "8", "epsilon": "2", "trials": "4", "seed": "9", "format": "jsonl",
        "out": "r.jsonl", "workers": "2", "timing": "yes", "alpha": "1.5", "session_shape": "multi",
    }),
]


@pytest.mark.parametrize("command", ["attack", "accumulate"])
def test_flag_file_cases_set_every_option(command):
    keys = set().union(*(values for c, values in FLAG_FILE_CASES if c == command))
    assert keys == set(_options(command))


class _Stop(Exception):
    pass


def _parsed(argv: list[str], monkeypatch) -> tuple[dict, ExperimentConfig]:
    """The parsed options and the experiment main builds from argv."""
    seen = []
    real = cli._experiment_config

    def stop(config, **taps):
        seen.append(config)
        raise _Stop

    with monkeypatch.context() as m:
        m.setattr(cli, "_experiment_config", lambda args: seen.append(dict(vars(args))) or real(args))
        m.setattr(cli, "run_experiment", stop)
        with pytest.raises(_Stop):
            main(argv)
    settings, config = seen
    del settings["config"]
    return settings, config


@pytest.mark.parametrize("command, values", FLAG_FILE_CASES)
def test_config_file_and_flags_build_the_same_experiment(command, values, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    options = _options(command)
    flags = []
    for key, text in values.items():
        action = options[key]
        if action.nargs == 0:
            assert cli._BOOL_VALUES[text]
            flags.append(action.option_strings[0])
        else:
            flags += [action.option_strings[0], text]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={text}\n" for key, text in values.items()))
    from_flags = _parsed([command, *flags], monkeypatch)
    from_file = _parsed([command, "--config", str(cfg)], monkeypatch)
    assert from_file == from_flags
    settings, config = from_file
    assert config.n == settings["n"] == int(values["n"])


@pytest.mark.parametrize(
    "command, key",
    [
        ("attack", "scope"),
        ("attack", "payload"),
        ("attack", "strategy"),
        ("attack", "session_shape"),
        ("accumulate", "session_shape"),
        ("bounds", "scope"),
        ("bounds", "payload"),
        ("cover", "method"),
    ],
)
def test_config_file_bad_choice_is_config_error(command, key, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: ran.append(a))
    monkeypatch.setattr(cli, "theoretical_bounds", lambda *a: ran.append(a))
    monkeypatch.setattr(cli, "greedy_cover", lambda *a: ran.append(a))
    monkeypatch.setattr(cli, "coordinate_fixing_cover", lambda *a: ran.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=6\n{key}=gredy\n")
    assert main([command, "--config", str(cfg), *(["--attack", "minimal"] if command == "attack" else [])]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {cfg}:2: bad value for {key}: 'gredy'" in captured.err


@pytest.mark.parametrize("command", ["attack", "accumulate", "bench"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_bad_format_is_the_harness_message(command, source, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **kw: ran.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\n")
    argv = [command, "--n", "6", "--epsilon", "2", "--trials", "3"]
    argv += ["--config", str(cfg)] if source == "file" else ["--format", "xml"]
    if command == "attack":
        argv += ["--attack", "both_positions"]
    assert main(argv) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unknown output format 'xml'; expected one of: csv, jsonl" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [(["--trials", "0"], "trials must be >= 1"), (["--workers", "2"], "audit taps require workers = 1")],
)
def test_audit_file_survives_a_config_error(flags, message, tmp_path, capsys):
    audit = tmp_path / "keep.jsonl"
    audit.write_text('{"accepted":1}\n')
    argv = ["attack", "--attack", "both_positions", "--q", "4", "--n", "5", "--epsilon", "2"]
    assert main([*argv, *flags, "--audit", str(audit)]) == 2
    assert audit.read_text() == '{"accepted":1}\n'
    assert f"error: {message}" in capsys.readouterr().err


def test_taps_need_one_worker():
    cfg = ExperimentConfig(4, 5, 2, attack="both_positions", trials=3, workers=2)
    with pytest.raises(UsageError, match="audit taps require workers = 1"):
        harness.run_experiment(cfg, on_response=print)
    with pytest.raises(UsageError, match="audit taps require workers = 1"):
        validate_config(cfg, taps=True)
    validate_config(cfg)


def test_unwritable_audit_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: ran.append(a))
    bad = tmp_path / "missing" / "audit.jsonl"
    argv = ["attack", "--attack", "both_positions", "--q", "4", "--n", "5", "--epsilon", "2", "--audit", str(bad)]
    assert main(argv) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write audit to {bad}: [Errno 2]" in captured.err


# the settings only some attacks read, each with a value away from its
# default, and the attacks that read them
UNREAD_VALUES = {"strategy": "greedy", "alpha": 3.0, "session_shape": "multi"}
READERS = {"strategy": {"minimal"}, "alpha": {"accumulation"}, "session_shape": {"accumulation"}}


class TestUnreadSettings:
    @pytest.mark.parametrize(
        "attack, setting",
        [(a, s) for a in sorted(ATTACKS) for s in UNREAD_VALUES if a not in READERS[s]],
    )
    def test_setting_the_attack_does_not_read_is_config_error(self, attack, setting):
        cfg = ExperimentConfig(2, 8, 2, attack=attack, **{setting: UNREAD_VALUES[setting]})
        with pytest.raises(UsageError, match=f"does not read {setting}"):
            validate_config(cfg)
        validate_config(replace(cfg, **{setting: getattr(ExperimentConfig(2, 8, 2, attack=attack), setting)}))

    @pytest.mark.parametrize("attack, setting", [(a, s) for s, readers in READERS.items() for a in readers])
    def test_setting_the_attack_reads_is_accepted(self, attack, setting):
        validate_config(ExperimentConfig(2, 8, 2, attack=attack, **{setting: UNREAD_VALUES[setting]}))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--attack", "below_positions", "--strategy", "greedy"],
            ["--attack", "both_distance", "--alpha", "3"],
            ["--attack", "fault_control", "--session-shape", "multi"],
        ],
    )
    def test_cli_exits_before_any_trial(self, argv, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
        assert main(["attack", "--n", "8", "--epsilon", "2", *argv]) == 2
        assert ran == []
        assert "does not read" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "0.5"])
def test_alpha_below_one_or_nan_exits_before_any_trial(alpha, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
    assert main(["accumulate", "--n", "8", "--epsilon", "2", "--trials", "3", "--alpha", alpha]) == 2
    assert ran == []
    assert "alpha must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "1e308"])
def test_alpha_whose_rare_chance_is_zero_exits_before_any_trial(alpha, monkeypatch, capsys):
    # 8**-alpha is 0.0: coordinate 1 would never err, and the run would
    # report success over the other coordinates only
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
    assert main(["accumulate", "--n", "8", "--epsilon", "2", "--trials", "3", "--alpha", alpha]) == 2
    assert ran == []
    assert "error probability n**(-alpha) underflow to 0 at n=8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "--attack", "both_positions", "--q", "4", "--n", "5", "--epsilon", "2"],
        ["attack", "--attack", "both_positions", "--q", "4", "--n", "5", "--epsilon", "2", "--workers", "2"],
        ["bench"],
    ],
)
def test_negative_seed_exits_before_any_trial(argv, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
    assert main([*argv, "--seed", "-1"]) == 2
    assert ran == []
    assert "error: master seed must be >= 0 (got -1)" in capsys.readouterr().err
