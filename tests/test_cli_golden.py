"""Byte-for-byte golden files for the CLI's deterministic output.

Each command runs in a subprocess at the default seed (2013) and its
stdout is compared with ``tests/golden/cli/<name>.txt``. To regenerate
after an intentional output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_cli_golden.py

then review the diff of ``tests/golden/cli/`` like any other code
change. ``stats --service`` is left out: it observes wall-clock time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli"

COMMANDS = {
    "detect": ["detect", "--records", "300", "--species", "80"],
    "provenance_stats": ["provenance", "stats", "--json"],
    "provenance_lineage": ["provenance", "lineage", "--chain"],
    "vault_migrate": ["vault", "migrate", "--records", "60"],
    "vault_status": ["vault", "status", "--records", "60"],
    "stream_status": ["stream", "status"],
    "decay": ["decay"],
    "crossref": ["crossref"],
}


def _run(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=REPO, env=env,
        capture_output=True, text=True, check=True, timeout=120)
    return completed.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    rendered = _run(COMMANDS[name])
    golden = GOLDEN / f"{name}.txt"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered, encoding="utf-8")
        pytest.skip("golden file regenerated; review the diff and rerun")
    assert golden.exists(), (
        f"missing golden file {golden}; run with REPRO_REGEN_GOLDEN=1 to "
        "create it"
    )
    assert rendered == golden.read_text(encoding="utf-8"), (
        f"`repro {' '.join(COMMANDS[name])}` drifted from its golden file; "
        "if intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit "
        "the diff"
    )
