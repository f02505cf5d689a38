"""EngineConfig / FleetConfig: the config.json schema, the flag defaults
and clean errors for malformed files."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import _build_parser, _config_from_args, main
from repro.fleet import FleetConfig
from repro.serve import EngineConfig

#: the config.json keys, in file order — the on-disk schema state dirs carry
ENGINE_KEYS = (
    "levels", "modules", "mapping", "policy", "traffic", "arrival_rate",
    "clients", "cycles", "workload", "queue_capacity", "admission",
    "batch_components", "deadline", "think_time", "seed", "obs", "faults",
    "repair", "retry_timeout", "max_retries", "backoff_base", "backoff_cap",
    "checkpoint_every", "events_capacity", "daemon",
)
FLEET_KEYS = (
    "shards", "router", "levels", "modules", "policy", "cycles",
    "arrival_rate", "workload", "tenants", "tenant_alpha", "quota",
    "gold_every", "gold_deadline", "gold_weight", "kill_shard_at",
    "queue_capacity", "admission", "batch_components", "seed", "faults",
    "repair", "retry_timeout", "max_retries", "obs", "restart_after",
    "restart_budget", "checkpoint_every",
)

CONFIGS = [EngineConfig, FleetConfig]
DATA = Path(__file__).parent / "data"


def test_fields_are_the_config_json_schema():
    assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == ENGINE_KEYS
    assert tuple(f.name for f in dataclasses.fields(FleetConfig)) == FLEET_KEYS


@pytest.mark.parametrize(
    "argv, cls",
    [
        (["serve"], EngineConfig),
        (["fleet"], FleetConfig),
    ],
)
def test_flag_defaults_are_the_field_defaults(argv, cls):
    args = _build_parser().parse_args(argv)
    assert _config_from_args(cls, args) == cls()


def test_daemon_flags_add_only_the_daemon_extras():
    args = _build_parser().parse_args(["daemon", "--state-dir", "d"])
    config = _config_from_args(EngineConfig, args, daemon=True)
    assert config == EngineConfig(events_capacity=65536, daemon=True)


def test_serve_json_has_no_daemon_key_and_daemon_json_ends_with_it():
    assert '"daemon"' not in EngineConfig().to_json()
    text = EngineConfig(daemon=True).to_json()
    assert text.endswith('  "daemon": true\n}\n')
    assert EngineConfig.from_json(text).daemon is True


@pytest.mark.parametrize("cls", CONFIGS)
def test_missing_keys_take_field_defaults(cls):
    assert cls.from_json('{"seed": 5}') == cls(seed=5)


@pytest.mark.parametrize("cls", CONFIGS)
def test_replace_round_trips_through_json(cls):
    config = dataclasses.replace(cls(), policy="load-aware", retry_timeout=12)
    assert cls.from_json(config.to_json()) == config


@pytest.mark.parametrize("cls", CONFIGS)
@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"levels": 9', "not valid JSON"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"levels": 9, "colour": "red"}', "unknown key 'colour'"),
        ('{"levels": "9"}', "key 'levels' must be int"),
        ('{"levels": true}', "key 'levels' must be int"),
        ('{"retry_timeout": 1.5}', "key 'retry_timeout' must be int | None"),
        ('{"arrival_rate": null}', "key 'arrival_rate' must be float"),
    ],
)
def test_malformed_json_is_a_value_error_naming_file_and_key(cls, text, needle):
    with pytest.raises(ValueError, match="^state/config.json: ") as exc:
        cls.from_json(text, source="state/config.json")
    assert needle in str(exc.value)


def test_fleet_kill_specs_must_be_a_list_of_strings():
    assert FleetConfig.from_json('{"kill_shard_at": ["1@50"]}').kill_shard_at == ["1@50"]
    with pytest.raises(ValueError, match="kill_shard_at"):
        FleetConfig.from_json('{"kill_shard_at": [150]}')


@pytest.mark.parametrize("flag", ["--state-dir", "--fleet"])
@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"levels": 9', "not valid JSON"),
        ('"levels"', "expected a JSON object"),
        ('{"levels": 9, "bogus": 1}', "unknown key 'bogus'"),
        ('{"levels": "nine"}', "key 'levels' must be int"),
    ],
)
def test_recover_reports_a_malformed_config_in_one_line(
    flag, text, needle, tmp_path, capsys
):
    (tmp_path / "config.json").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["recover", flag, str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(tmp_path / "config.json") in err
    assert needle in err


@pytest.mark.parametrize(
    "spoil, needle",
    [
        (lambda state: state.pop("run"), "KeyError('run')"),
        (
            lambda state: state["config"].update(num_modules=8),
            "engine configuration does not match",
        ),
    ],
    ids=["no-run", "num-modules"],
)
def test_recover_reports_an_unusable_snapshot_in_one_line(
    spoil, needle, tmp_path, capsys
):
    """A snapshot whose CRC checks but whose state cannot be resumed is one
    stderr line and exit 2, not a traceback."""
    from repro.io import load_snapshot, save_snapshot

    state_dir = tmp_path / "state"
    shutil.copytree(DATA / "serve_state_parent", state_dir)
    snap = state_dir / "snap-000000250.json"
    payload = load_snapshot(snap)
    spoil(payload["state"])
    save_snapshot(payload, snap)
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--state-dir", str(state_dir)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("pmtree recover: ")
    assert needle in captured.err


# -- spec-valued fields are checked when the config is built ------------------

BAD_SPECS = [
    (EngineConfig, "workload", "subtree:7=nan", "weight must be finite"),
    (EngineConfig, "workload", "path:12", "no instances in a 11-level tree"),
    (EngineConfig, "faults", "fail=zz", "bad fault term"),
    (EngineConfig, "faults", "fail=99@5:10", "unknown modules [99]"),
    (EngineConfig, "faults", "@no-such-faults.json", "No such file"),
    (EngineConfig, "policy", "nope", "pick from"),
    (EngineConfig, "traffic", "nope", "pick from"),
    (EngineConfig, "admission", "nope", "pick from"),
    (EngineConfig, "repair", "nope", "pick from"),
    (EngineConfig, "levels", 0, "num_levels must be >= 1"),
    (EngineConfig, "mapping", "no-such-mapping.npz", "No such file"),
    (EngineConfig, "modules", 2, "COLOR needs M >= 3 modules"),
    (EngineConfig, "clients", 0, "must be >= 1"),
    (EngineConfig, "cycles", 0, "must be >= 1"),
    (EngineConfig, "queue_capacity", 0, "must be >= 1"),
    (EngineConfig, "batch_components", 0, "must be >= 1"),
    (EngineConfig, "arrival_rate", -1.0, "must be >= 0"),
    (EngineConfig, "arrival_rate", float("inf"), "must be finite"),
    (FleetConfig, "workload", "subtree:7=nan", "weight must be finite"),
    (FleetConfig, "faults", "fail=zz", "bad fault term"),
    (FleetConfig, "policy", "nope", "pick from"),
    (FleetConfig, "router", "nope", "pick from"),
    (FleetConfig, "kill_shard_at", ["9@10"], "fleet has 4 shards"),
    (FleetConfig, "kill_shard_at", ["1@x"], "bad kill spec"),
    (FleetConfig, "kill_shard_at", ["1@5", "1@6"], "killed twice"),
    (FleetConfig, "cycles", 0, "must be >= 1"),
    (FleetConfig, "queue_capacity", 0, "must be >= 1"),
    (FleetConfig, "batch_components", 0, "must be >= 1"),
    (FleetConfig, "arrival_rate", -1.0, "must be >= 0"),
]


@pytest.mark.parametrize(
    "cls, field, value, needle",
    BAD_SPECS,
    ids=[f"{cls.__name__}-{field}-{value}" for cls, field, value, _ in BAD_SPECS],
)
def test_a_bad_spec_value_is_a_config_error_naming_the_field(cls, field, value, needle):
    from repro.serve.config import ConfigError

    with pytest.raises(ConfigError) as exc:
        cls(**{field: value})
    assert exc.value.field == field
    assert str(exc.value).startswith(f"{field} {value!r}: ")
    assert needle in str(exc.value)
    # a daemon's /policy and every other dataclasses.replace are checked too
    with pytest.raises(ConfigError):
        dataclasses.replace(cls(), **{field: value})


#: hand edits that used to crash `pmtree recover` (a ZeroDivisionError or
#: ValueError traceback for the numeric ones) or blame the snapshot, plus the
#: other spec fields
RECOVER_ROWS = [
    ("--state-dir", "workload", "subtree:7=nan"),
    ("--state-dir", "faults", "fail=zz"),
    ("--state-dir", "policy", "nope"),
    ("--state-dir", "traffic", "nope"),
    ("--state-dir", "admission", "nope"),
    ("--state-dir", "clients", 0),
    ("--state-dir", "cycles", 0),
    ("--state-dir", "queue_capacity", 0),
    ("--state-dir", "batch_components", 0),
    ("--state-dir", "arrival_rate", -1),
    ("--fleet", "router", "nope"),
    ("--fleet", "kill_shard_at", ["7@300"]),
    ("--fleet", "workload", "subtree:7=nan"),
    ("--fleet", "cycles", 0),
    ("--fleet", "queue_capacity", 0),
    ("--fleet", "batch_components", 0),
    ("--fleet", "arrival_rate", -1),
]


@pytest.mark.parametrize(
    "flag, field, value", RECOVER_ROWS, ids=[f"{f}-{k}" for f, k, _ in RECOVER_ROWS]
)
def test_recover_reports_a_bad_spec_value_in_one_line(
    flag, field, value, tmp_path, capsys
):
    """A hand-edited ``config.json`` with a value no run can use is one
    stderr line naming the file and the field, exit 2 — not a traceback
    from inside the build, nor a misleading complaint about the snapshot."""
    state_dir = tmp_path / "state"
    if flag == "--state-dir":
        shutil.copytree(DATA / "serve_state_parent", state_dir)
    else:
        state_dir.mkdir()
        shutil.copy(DATA / "config_fleet.json", state_dir / "config.json")
    path = state_dir / "config.json"
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["recover", flag, str(state_dir)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"pmtree recover: {path}: {field} {value!r}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["serve", "--cycles", "20", "--faults", "fail=zz"], "--faults 'fail=zz'"),
        (["serve", "--cycles", "20", "--faults", "fail=99@5:10"], "--faults 'fail=99@5:10'"),
        (["serve", "--cycles", "20", "--levels", "0"], "--levels 0"),
        (["fleet", "--cycles", "20", "--kill-shard-at", "9@10"], "--kill-shard-at ['9@10']"),
        (["fleet", "--cycles", "20", "--kill-shard-at", "1@x"], "--kill-shard-at ['1@x']"),
    ],
)
def test_a_bad_flag_value_is_one_line_naming_the_flag(argv, prefix, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"pmtree: {prefix}: ")
    assert "Traceback" not in captured.err
