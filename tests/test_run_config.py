"""EngineConfig / FleetConfig: the config.json schema, the flag defaults
and clean errors for malformed files."""

import dataclasses
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
