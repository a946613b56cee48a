"""``python -m repro sanitize`` and ``serve --sanitize``: exit codes,
diagnostics, report artifacts, and the COMMANDS-tuple lockstep."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import COMMANDS, build_parser, main


def test_sanitize_is_a_registered_subcommand():
    # main() routes by COMMANDS; the parser must know every entry.
    parser = build_parser()
    args = parser.parse_args(["sanitize", "--check"])
    assert args.check is True
    assert "sanitize" in COMMANDS


def test_check_runs_clean(capsys):
    assert main(["sanitize", "--check"]) == 0
    out = capsys.readouterr().out
    assert "teesan lifecycle: clean" in out
    assert "teesan shard-transfer: clean" in out
    assert "in lockstep" in out


def test_check_writes_the_report_artifact(tmp_path, capsys):
    path = tmp_path / "teesan.json"
    assert main(["sanitize", "--check", "--report", str(path)]) == 0
    document = json.loads(path.read_text())
    assert document["schema"] == "hypertee.teesan.run/2"
    assert document["ok"] is True
    assert set(document["scenarios"]) == {"lifecycle", "shard-transfer"}
    for scenario in document["scenarios"].values():
        assert scenario["schema"] == "hypertee.teesan/1"
        assert scenario["violations"] == []
    assert document["det"]["ok"] is True


def test_check_json_output(capsys):
    assert main(["sanitize", "--check", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True


@pytest.mark.parametrize("name,needle", [
    ("secret", "ERROR: TeeSan SECRET-LEAK"),
    ("own", "ERROR: TeeSan DOUBLE-GRANT"),
    ("det", "ERROR: TeeSan LOCKSTEP-DIVERGENCE"),
])
def test_seeded_violations_exit_1_with_diagnostic(name, needle, capsys):
    assert main(["sanitize", "--seed-violation", name]) == 1
    assert needle in capsys.readouterr().out


def _neutralise_leak(monkeypatch):
    # The seeded leak writes the sealing key raw; make it write zeros.
    from repro.ems.key_mgmt import KeyManager

    monkeypatch.setattr(KeyManager, "sealing_key",
                        lambda self, measurement: bytes(32))


def _neutralise_double_grant(monkeypatch):
    # Only the first table to claim a frame records it, so the second
    # shard's claim of shard 0's frame never lands.
    from repro.ems.ownership import PageOwnershipTable

    real_claim = PageOwnershipTable.claim
    first_table: dict[int, object] = {}

    def first_claim_only(table, frame, owner):
        if first_table.setdefault(frame, table) is table:
            real_claim(table, frame, owner)

    monkeypatch.setattr(PageOwnershipTable, "claim", first_claim_only)


def _neutralise_perturbation(monkeypatch):
    # Replay without skewing the second trail.
    from repro.sanitize import det

    real_lockstep = det.run_lockstep
    monkeypatch.setattr(det, "run_lockstep",
                        lambda seed, perturb_event=None: real_lockstep(seed))


@pytest.mark.parametrize("name,neutralise", [
    ("secret", _neutralise_leak),
    ("own", _neutralise_double_grant),
    ("det", _neutralise_perturbation),
], ids=("secret", "own", "det"))
def test_undetected_seeded_violation_exits_0(name, neutralise, monkeypatch,
                                             capsys):
    """A self-check whose seeded fault is gone reports a miss: exit 0.

    The exit code is the ordinary violation status, so a detector that
    stopped firing makes the CI loop (which demands exit 1) fail.
    """
    neutralise(monkeypatch)
    assert main(["sanitize", "--seed-violation", name]) == 0
    assert "went undetected" in capsys.readouterr().err


def test_sanitizer_subset_selection(capsys):
    assert main(["sanitize", "--check", "--sanitize", "secret"]) == 0
    out = capsys.readouterr().out
    assert "lifecycle: clean" in out
    assert "lockstep" not in out  # det was not selected


def test_bad_sanitizer_name_is_rejected(capsys):
    assert main(["sanitize", "--check", "--sanitize", "bogus"]) == 2
    assert "unknown sanitizer" in capsys.readouterr().err


def test_serve_with_sanitizers_attached(capsys):
    assert main(["serve", "--ops", "40", "--shards", "2",
                 "--workers", "2", "--sanitize", "secret,own",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["sanitize"] == ["secret", "own"]
    assert report["sanitize"]["ok"] is True
    assert report["sanitize"]["stats"]["events"] > 0


def test_serve_without_sanitizers_has_no_section(capsys):
    assert main(["serve", "--ops", "24", "--shards", "1",
                 "--workers", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "sanitize" not in report


def test_serve_rejects_bad_sanitizer_list(capsys):
    assert main(["serve", "--ops", "8", "--sanitize", "nope"]) == 2
    assert "unknown sanitizer" in capsys.readouterr().err


