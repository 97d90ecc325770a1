"""Dataset outputs stay byte-identical to the digests in golden_datasets.json.

The dataset digests were captured from the scalar unit-circle engine before
the vectorized one replaced it: ``table1 --all``, ``search --m 2..7`` and
``open1``/``open2 --m 2..8``. ``search --m 8`` was captured before the
array orbit labels replaced the scalar orbit closure. The ``lemmas`` digests were captured from the
scalar subfield scans before the array root scan replaced them: ``eq4`` and
``eq6`` at even m = 2..8, ``eq8`` at m in {3, 4, 5, 7, 8}, ``lemma1 --m 2..8``
and ``lemma2 --n 4..10``, all in json. ``table1 --m 9..11`` in json, csv and
text were captured before the table1 writers moved from per-row dicts to one
flat row of cells. Each key is a command line; the test writes its output to
a file and compares the sha256 of the bytes.

``golden_caps.json`` holds the digests of ``table1`` at its cap
(``TABLE1_MAX_M = 14``) in every format, captured at the same time, of
every ``lemmas`` check at its cap in ``cli._LEMMAS`` (eq4/eq6/eq8/lemma1 at
m = 16, lemma2 at n = 16), captured before lemma2's brute force moved from
one pass per a to blocks of a compared in element order, and of the sweeps
at their caps: ``search --m 11`` (``SURVEY_MAX_M``) in csv and
``open1``/``open2 --m 16`` (the tower bound ``DEGREE_MAX // 2``) in json,
captured before the F3 and F7 hypotheses moved onto the tower's subfield
log, and ``search --m 11`` in json, captured before the exhaustive
engine's witness scan moved onto the strands of f. Those take up to about 20 s each, so CI compares them in a step of its
own; here a test only checks that the file names every command at its cap.

``golden_verify.json`` holds the JSON report of ``verify --m 14 --pair 3,5``,
the witness scan at the exhaustive cap (n = 28), without the reports'
``elapsed_ms``, and its exit code, captured before the exhaustive engine's
verdict and witness shared one set of strand tables. CI runs it in a step of
its own; here a test checks that it names a failing pair at that cap.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nihoperm import cli, field, permcheck, survey

GOLDEN = json.loads((Path(__file__).parent / "golden_datasets.json").read_text())
CAPS = json.loads((Path(__file__).parent / "golden_caps.json").read_text())
VERIFY = json.loads((Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_dataset_matches_golden_digest(tmp_path, command):
    out = tmp_path / "out"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


def test_golden_covers_the_dataset_commands():
    assert {c.split()[0] for c in GOLDEN} == {"table1", "search", "open1", "open2", "lemmas"}
    lemmas = [c.split()[2] for c in GOLDEN if c.startswith("lemmas")]
    assert {w: lemmas.count(w) for w in set(lemmas)} == {
        "eq4": 4, "eq6": 4, "eq8": 5, "lemma1": 7, "lemma2": 7,
    }
    assert len(GOLDEN) == 3 + 9 + 7 * 2 + 2 * 7 * 2 + 27


def test_golden_caps_name_table1_and_lemmas_at_their_caps():
    # raising a cap without a digest at the new one fails here
    table1 = {f"table1 --m {cli.TABLE1_MAX_M} --format {fmt}" for fmt in ("json", "csv", "text")}
    lemmas = {f"lemmas --which {which} --n {n} --format json" if check is cli._quadratic_check
              else f"lemmas --which {which} --m {n // 2} --format json"
              for which, (n, check) in cli._LEMMAS.items()}
    sweeps = {*(f"search --m {survey.SURVEY_MAX_M} --format {fmt}" for fmt in ("csv", "json")),
              *(f"{line} --m {field.DEGREE_MAX // 2} --format json" for line in ("open1", "open2"))}
    assert set(CAPS) == table1 | lemmas | sweeps
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in CAPS.values())


def test_golden_verify_names_a_witness_at_the_exhaustive_cap():
    [(command, record)] = VERIFY.items()
    assert command.startswith("verify --m ") and 2 * int(command.split()[2]) == permcheck.EXHAUSTIVE_MAX_N
    assert record["exit"] == 1 and [r["method"] for r in record["output"]["reports"]] == [
        "unit_circle", "exhaustive"]
    assert not any("elapsed_ms" in r or r["is_permutation"] for r in record["output"]["reports"])
