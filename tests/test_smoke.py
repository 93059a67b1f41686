"""Tests for the campaign smoke gate (``scripts/smoke.py``).

Each leg runs on its own against the serial reference of the committed
8-task spec and must pass its own check, leave its summary sidecar
current and reproduce the reference digest.  The gate itself must fail
when a leg's check fails, when a leg leaves its sidecar behind its log,
or when a leg's store drifts from the reference digest.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

from repro.runtime import CampaignSpec, open_store, run_campaign
from repro.runtime.faults import CHAOS_ENV_VAR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "smoke.py"


def _load_script():
    module_spec = importlib.util.spec_from_file_location("smoke_gate", SCRIPT)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


smoke = _load_script()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The committed spec, its serial store and that store's digest."""
    spec = CampaignSpec.from_json(smoke.SPEC_PATH.read_text(encoding="utf-8"))
    serial_dir = tmp_path_factory.mktemp("smoke-reference") / "serial"
    assert run_campaign(spec, serial_dir).failed == 0
    assert smoke.sidecar_is_current(serial_dir)
    full, incremental = smoke.digests(spec, serial_dir)
    assert full == incremental
    return spec, serial_dir, full


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Point the script's scratch directory at a temporary one."""
    directory = tmp_path / "smoke"
    monkeypatch.setattr(smoke, "SCRATCH", directory)
    # main() opens the chaos gate itself; setting it here first lets
    # monkeypatch close it again after the test.
    monkeypatch.setenv(CHAOS_ENV_VAR, "1")
    return directory


@pytest.mark.parametrize("leg", [leg for _, leg in smoke.LEGS], ids=lambda leg: leg.__name__)
def test_leg_passes_its_check_and_matches_the_serial_digest(reference, scratch, leg):
    spec, serial_dir, expected = reference
    directory, detail = leg(spec, serial_dir)
    assert Path(directory).parent == scratch
    assert smoke.sidecar_is_current(directory), detail
    assert smoke.digests(spec, directory) == (expected, expected), detail


def test_gate_passes_when_every_leg_matches(scratch, monkeypatch, capsys):
    monkeypatch.setattr(smoke, "LEGS", (("compacted", smoke.compacted),))
    assert smoke.main() == 0
    assert "smoke: OK (serial ≡ compacted)" in capsys.readouterr().out


def test_gate_fails_when_a_leg_check_fails(scratch, monkeypatch, capsys):
    def broken(spec, serial_dir):
        raise smoke.SmokeFailure("planted failure")

    monkeypatch.setattr(smoke, "LEGS", (("broken", broken),))
    assert smoke.main() == 1
    assert "smoke: FAIL — broken: planted failure" in capsys.readouterr().out


def test_gate_fails_when_a_leg_leaves_the_sidecar_behind(scratch, monkeypatch, capsys):
    def behind(spec, serial_dir):
        # A duplicate row appended by a store that never read its summaries:
        # the digest holds, but the next reader has a row to parse.
        directory = smoke.SCRATCH / "behind"
        shutil.copytree(serial_dir, directory)
        store = open_store(directory)
        store.append(store.rows()[0])
        return directory, "one row past the sidecar"

    monkeypatch.setattr(smoke, "LEGS", (("behind", behind),))
    assert smoke.main() == 1
    assert "smoke: FAIL — behind: the leg left its summary sidecar" in capsys.readouterr().out


def test_gate_fails_when_a_leg_drifts_from_the_reference(scratch, monkeypatch, capsys):
    def lossy(spec, serial_dir):
        # A store that silently lost its last row and never re-ran it.
        directory = smoke.SCRATCH / "lossy"
        shutil.copytree(serial_dir, directory)
        results = open_store(directory).results_path
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        results.write_text("".join(lines[:-1]), encoding="utf-8")
        return directory, f"{len(lines) - 1} rows"

    monkeypatch.setattr(smoke, "LEGS", (("lossy", lossy),))
    assert smoke.main() == 1
    assert "smoke: FAIL — lossy: full" in capsys.readouterr().out
