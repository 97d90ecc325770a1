"""Dataset outputs stay byte-identical to the digests in golden_datasets.json.

The digests were captured from the scalar unit-circle engine before the
vectorized one replaced it: ``table1 --all``, ``search --m 2..7`` and
``open1``/``open2 --m 2..8``. Each key is a command line; the test writes
its output to a file and compares the sha256 of the bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nihoperm import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_datasets.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_dataset_matches_golden_digest(tmp_path, command):
    out = tmp_path / "out"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


def test_golden_covers_the_dataset_commands():
    assert {c.split()[0] for c in GOLDEN} == {"table1", "search", "open1", "open2"}
    assert len(GOLDEN) == 3 + 6 * 2 + 2 * 7 * 2
