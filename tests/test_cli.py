"""CLI contract: commands, exit codes, formats, determinism."""

import csv
import hashlib
import io
import json

import pytest

from nihoperm import _kernels, cli, niho, permcheck, survey
from nihoperm import tower as tw
from nihoperm.niho import NihoPair


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_new_pair_true(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--pair", "-1/3,4/3")
    assert code == 0
    assert "PERMUTATION" in out
    assert "unit_circle" in out and "exhaustive" in out


def test_verify_reports_through_one_unit_circle_check(capsys, monkeypatch):
    # verify's unit-circle report is the one-pair entry, called once, at the
    # tower's m, above the exhaustive cap as below it
    calls = []
    check = permcheck.unit_circle_check

    def counted(tower, pair):
        calls.append((tower.m, pair))
        return check(tower, pair)

    monkeypatch.setattr(permcheck, "unit_circle_check", counted)
    for m in (4, 15):
        calls.clear()
        assert run(capsys, "verify", "--m", str(m), "--pair", "2,-1")[0] == 0
        assert calls == [(m, NihoPair(m, 2, -1))]


def test_verify_degenerate_identity(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--pair", "0,0")
    assert code == 0


def test_verify_condition_mismatch_still_runs_engine(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--pair", "3,-1")
    assert code == 1  # engine verdict: not a permutation at odd m
    assert "condition" in out  # the mismatch note is printed
    assert "NOT a permutation" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--pair", "3,-1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["is_permutation"] is True
    assert data["pair"] == {"m": 4, "s": 3, "t": 16}
    methods = {r["method"] for r in data["reports"]}
    assert methods == {"unit_circle", "exhaustive"}


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--m", "2", "--pair", "1/5,4/5")
    assert code == 2 and "gcd" in err
    code, _, err = run(capsys, "verify", "--m", "4", "--pair", "bogus")
    assert code == 2
    code, _, err = run(capsys, "verify", "--n", "7", "--pair", "1,2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--pair", "1,2")
    assert code == 2


@pytest.mark.parametrize("argv, m", [("--m 17", 17), ("--n 34", 17), ("--m 0", 0)])
def test_verify_past_the_tower_bound_names_m(capsys, argv, m):
    # the bound is on m (1 <= m <= 16), not on the field degree 2m
    code, out, err = run(capsys, "verify", *argv.split(), "--pair", "2,-1")
    assert code == 2 and out == ""
    assert err == f"error: tower degree m must be in [1, 16], got m={m}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--pair", "2,-1", "--m", "3", "--n", "6"],
    ["verify", "--pair", "2,-1", "--m", "3", "--n", "8"],
    ["search", "--m", "2", "--n", "4"],
    ["table1", "--m", "3", "--n", "6"],
    ["open1", "--n", "6", "--m", "3"],
    ["lemmas", "--which", "lemma2", "--m", "3", "--n", "10"],
])
def test_m_and_n_together_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "not both" in err
    assert out == ""


def test_verify_modulus_override(capsys):
    # permutation status is representation independent
    code, _, _ = run(capsys, "verify", "--m", "2", "--modulus", "0x1f",
                     "--pair", "-1/3,4/3")
    assert code == 0
    code, _, err = run(capsys, "verify", "--m", "2", "--modulus", "0x15",
                       "--pair", "2,-1")
    assert code == 2  # x^4+x^2+1 is reducible


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def test_family_f8(capsys):
    code, out, _ = run(capsys, "family", "--family", "F8", "--m", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["is_permutation"] is True
    assert [t["exp"] for t in data["trinomial"]["terms"]] == [1, 16, 121]


def test_family_with_params(capsys):
    code, out, _ = run(capsys, "family", "--family", "F4", "--m", "4",
                       "--param", "k=2")
    assert code == 0
    assert "is_permutation=True" in out


def test_family_condition_violation_exits_2(capsys):
    code, _, err = run(capsys, "family", "--family", "F9", "--m", "4")
    assert code == 2
    assert "odd m" in err


def test_family_unknown_id(capsys):
    code, _, _ = run(capsys, "family", "--family", "F12", "--m", "4")
    assert code == 2


@pytest.mark.parametrize("argv, missing", [
    ("--family F1 --m 4", "k, a"),
    ("--family C1 --m 4", "k"),
    ("--family F3 --m 2 --param r=1", "a, b, c"),
])
def test_family_missing_params_exit_2(capsys, argv, missing):
    code, out, err = run(capsys, "family", *argv.split())
    assert code == 2 and out == ""
    assert f"missing parameters {missing}" in err


@pytest.mark.parametrize("argv, extra", [
    ("--family F1 --m 3 --param k=2 --param a=2 --param b=7", "b"),
    ("--family F8 --m 4 --param k=1 --param v=2", "k, v"),
])
def test_family_unknown_params_exit_2(capsys, argv, extra):
    # a parameter the family does not read is refused, not echoed in params
    code, out, err = run(capsys, "family", *argv.split(), "--format", "json")
    assert code == 2 and out == ""
    assert err == f"error: family {argv.split()[1]} does not take parameters {extra}\n"


@pytest.mark.parametrize("argv", [
    "--family C1 --m 4 --param k=1 --param k=3",  # k=1 alone exits 2, k=3 alone 0
    "--family C1 --m 4 --param k=3 --param k=3",
])
def test_family_repeated_param_exits_2(capsys, argv):
    # argparse keeps every --param; a key given twice is refused, not overwritten
    code, out, err = run(capsys, "family", *argv.split())
    assert code == 2 and out == ""
    assert err == "error: --param k is given more than once\n"


@pytest.mark.parametrize("param", ["=3", " =3", "k3"])
def test_family_param_not_key_value_exits_2(capsys, param):
    # an empty key names no parameter and an item without "=" gives no
    # value: both are refused as they stand
    code, out, err = run(capsys, "family", "--family", "F9", "--m", "3", "--param", param)
    assert code == 2 and out == ""
    assert err == f"error: --param expects KEY=VALUE, got {param!r}\n"


@pytest.mark.parametrize("value", ["x", ""])
def test_family_param_not_an_integer_exits_2(capsys, value):
    # the refusal names the parameter and its value, not int()'s message
    code, out, err = run(capsys, "family", "--family", "F4", "--m", "4", "--param", f"k={value}")
    assert code == 2 and out == ""
    assert err == f"error: --param k expects an integer, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    "F1 --m 9 --param k=6 --param a=2",
    "F2 --m 9 --param k=6 --param v=1",
    "F3 --m 10 --param r=1 --param a=1 --param b=2 --param c=7",
    "F5 --m 10 --param a=1584",
    "F7 --m 10 --param a=170475 --param b=2",
])
def test_family_builds_no_exp_log_tables(monkeypatch, capsys, argv):
    # admissible instances whose hypotheses take scalar field operations
    def no_tables(*args):
        raise AssertionError("family built the exp/log tables")

    monkeypatch.setattr(_kernels, "exp_table", no_tables)
    code, out, _ = run(capsys, "family", "--family", *argv.split(), "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["is_permutation"] is True


@pytest.mark.parametrize("argv, message", [
    ("family --family F1 --m 3 --param k=2 --param a=-2",
     "family F1 parameter a=-2 is not an element of GF(2^6)"),
    ("family --family F1 --m 3 --param k=2 --param a=0x41",
     "family F1 parameter a=65 is not an element of GF(2^6)"),
    ("verify --m 2 --modulus=-0x13 --pair 2,-1",
     "modulus -0x13 is negative"),
])
def test_out_of_range_field_inputs_exit_2(capsys, argv, message):
    # a negative int never ends scalar multiplication or the irreducibility
    # test, and an element past 2^n indexes past the engine's tables
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert message in err


def test_family_above_exhaustive_cap_exits_2(capsys):
    # above the cap the engine refuses an admissible instance; an instance
    # whose hypothesis fails is refused with that hypothesis first
    m = permcheck.EXHAUSTIVE_MAX_N // 2 + 1
    assert m == 15
    code, out, err = run(capsys, "family", "--family", "F9", "--m", str(m))
    assert (code, out) == (2, "")
    assert err == f"error: exhaustive check capped at n={permcheck.EXHAUSTIVE_MAX_N}, got n={2 * m}\n"
    code, out, err = run(capsys, "family", "--family", "F9", "--m", str(m + 1))
    assert (code, out) == (2, "")
    assert err == f"error: F9 needs odd m, got m={m + 1}\n"


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_m4_json(capsys):
    code, out, _ = run(capsys, "table1", "--m", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 16 + 6
    for r in rows:
        if r["condition_ok"] and r["s"] is not None:
            assert r["is_pp"] is True
            for e in r["equivalents"]:
                if e["s"] is not None:
                    assert e["is_pp"] is True


def test_table1_verdicts_agree_with_verify_pairs(capsys):
    towers = [tw.make_tower(m) for m in range(2, 9)]
    code, out, _ = run(capsys, "table1", "--all", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    checked = 0
    for r in rows:
        tower = towers[r["m"] - 2]
        for item in (r, *r["equivalents"]):
            if item["s"] is None:
                assert item["is_pp"] is None
                continue
            pair = NihoPair(r["m"], item["s"], item["t"])
            assert item["is_pp"] is permcheck.unit_circle_check(tower, pair).is_permutation
            checked += 1
    assert checked > len(rows)


@pytest.mark.parametrize("argv", [["--m", "9"], ["--m", "10"], ["--m", "5", "--modulus", "0x409"]])
def test_table1_json_is_the_indented_dump(capsys, argv):
    # the template emitter writes what json.dumps(indent=2) writes of the
    # same rows, also under a modulus no golden digest covers
    code, out, _ = run(capsys, "table1", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("m, source, label, code", [
    (4, "3,-1", "1/3,4/3", 1),
    (3, "1,-1/2", None, 0),
], ids=["equivalent-of-a-holding-row", "pair-of-a-failing-row"])
def test_table1_exit_code_counts_rows_whose_condition_holds(capsys, monkeypatch,
                                                             m, source, label, code):
    # flip the verdict of one pair: an equivalent of a row whose condition
    # holds (exit code 1), or the pair of a row whose condition fails and
    # that no holding row names (exit code 0)
    row = next(r for r in niho.known_pairs_table1(m) if r.source == source)
    target = row.pair if label is None else dict(row.equivalents)[label]
    verdicts = permcheck.pair_verdicts

    def flipped(tower, s, t):
        return verdicts(tower, s, t) ^ [(a, b) == (target.s, target.t) for a, b in zip(s, t)]

    def cell(out):
        r = next(r for r in json.loads(out)["rows"] if r["source"] == source)
        return r["is_pp"] if label is None else next(
            e["is_pp"] for e in r["equivalents"] if e["label"] == label)

    argv = ("table1", "--m", str(m), "--format", "json")
    code0, out0, _ = run(capsys, *argv)
    monkeypatch.setattr(permcheck, "pair_verdicts", flipped)
    got, out, _ = run(capsys, *argv)
    assert code0 == 0 and got == code
    assert cell(out) is (not cell(out0))


def test_table1_m6_undefined_equivalent_rendered(capsys):
    code, out, _ = run(capsys, "table1", "--m", "6")
    assert code == 0
    line = next(l for l in out.splitlines() if " 3,-1 " in f" {l} ")
    assert "3/5,4/5->(undef,undef)" in line


def test_table1_csv_header(capsys):
    code, out, _ = run(capsys, "table1", "--m", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["m", "source", "condition_ok", "s", "t", "is_pp"]
    assert len(rows) == 1 + 4 + 6


def test_table1_default_sweep_is_m2_to_8(capsys):
    code, out, _ = run(capsys, "table1", "--all", "--format", "json")
    assert code == 0
    ms = {r["m"] for r in json.loads(out)["rows"]}
    assert ms == set(range(2, 9))


def test_table1_n_selects_one_m(capsys):
    code, by_n, _ = run(capsys, "table1", "--n", "6", "--format", "json")
    assert code == 0
    assert {r["m"] for r in json.loads(by_n)["rows"]} == {3}
    assert run(capsys, "table1", "--m", "3", "--format", "json")[1] == by_n
    code, _, err = run(capsys, "table1", "--n", "7")
    assert code == 2 and "even n" in err


def test_table1_modulus_checked(capsys):
    code, _, err = run(capsys, "table1", "--m", "5", "--modulus", "0x13")
    assert code == 2 and "degree 4" in err
    code, _, err = run(capsys, "table1", "--m", "2", "--modulus", "0x15")
    assert code == 2  # x^4+x^2+1 is reducible


@pytest.mark.parametrize("argv, message", [
    ("search --m 12", "capped at m=11"),
    ("table1 --m 15", "capped at m=14"),
    ("open1 --m 17", "got m=17"),
    ("open2 --m 17", "got m=17"),
    ("lemmas --which eq4 --m 17", "capped at n=32"),
    ("lemmas --which eq6 --m 17", "capped at n=32"),
    ("lemmas --which eq8 --m 17", "capped at n=32"),
    ("lemmas --which lemma1 --m 17", "capped at n=32"),
    ("lemmas --which lemma2 --n 17", "capped at n=16"),
], ids=["search", "table1", "open1", "open2", "eq4", "eq6", "eq8", "lemma1", "lemma2"])
def test_sweeps_past_their_cap_exit_2(capsys, argv, message):
    # line scans run at every m the tower supports (m <= 16)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and message in err
    assert out == ""


@pytest.mark.parametrize("argv", [["--all", "--m", "5"], ["--all", "--n", "6"]])
def test_table1_all_takes_no_single_m(capsys, argv):
    code, out, err = run(capsys, "table1", *argv)
    assert code == 2 and "--all" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["--all"], [], ["--all", "--m", "3"]])
def test_table1_modulus_needs_single_m(capsys, argv):
    code, out, err = run(capsys, "table1", *argv, "--modulus", "0x13")
    assert code == 2 and "--modulus" in err
    assert out == ""


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def test_lemmas_eq4(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "eq4", "--m", "4")
    assert code == 0
    assert "all_pass=True" in out and "certified=True" in out


def test_lemmas_eq4_bad_m(capsys):
    code, _, err = run(capsys, "lemmas", "--which", "eq4", "--m", "3")
    assert code == 2


def test_lemmas_parametrization(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "lemma1", "--m", "3")
    assert code == 0
    assert "8 = 2^m values" in out


def test_lemmas_quadratic_criterion(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "lemma2", "--n", "8")
    assert code == 0
    assert "0 disagreements" in out


def test_lemmas_unknown(capsys):
    code, _, _ = run(capsys, "lemmas", "--which", "nope", "--m", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# search / open problems
# ---------------------------------------------------------------------------

def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--m", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "s", "t", "orbit_size", "is_pp", "covered_by",
                       "flagged_new", "degenerate"]
    assert sum(int(r[3]) for r in rows[1:]) == 15  # orbit sizes partition


def test_open1_json(capsys):
    code, out, _ = run(capsys, "open1", "--m", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert 7 in data["s"] and 11 in data["s"]


def test_open2_includes_k1(capsys):
    code, out, _ = run(capsys, "open2", "--m", "2", "--format", "json")
    assert code == 0
    assert 1 in json.loads(out)["k"]


def test_open_csv(capsys):
    code, out, _ = run(capsys, "open2", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,k"


# ---------------------------------------------------------------------------
# determinism and file output
# ---------------------------------------------------------------------------

def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "table1", "--m", "3", "--format", "json",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["rows"]


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "4", "--pair", "1,2"],
    ["search", "--m", "2"],
    ["table1", "--m", "3"],
])
@pytest.mark.parametrize("target, reason", [
    ("missing/report.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target, reason):
    # exit 1 is a verdict (not a permutation), so a failed write is a usage error
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno ") and f"{reason}: '{path}'" in err


def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    # --out is opened first, as a shell redirect is, so a bad path costs no sweep
    def no_work(*args, **kwargs):
        raise AssertionError("ran the work before opening --out")

    monkeypatch.setattr(survey, "search_pairs", no_work)
    monkeypatch.setattr(permcheck, "unit_circle_check", no_work)
    path = tmp_path / "missing" / "x"
    for argv in (["search", "--m", "11", "--format", "csv"],
                 ["verify", "--m", "4", "--pair", "1,2"]):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_refusal_after_out_is_opened_leaves_it_empty(tmp_path, capsys):
    path = tmp_path / "x"
    path.write_text("stale")
    code, out, err = run(capsys, "table1", "--m", "15", "--out", str(path))
    assert code == 2 and out == "" and "capped at m=14" in err
    assert path.read_bytes() == b""


#: the text outputs outside golden_datasets.json, captured before the CLI
#: wrote to one stream opened ahead of the work
_TEXT_OUTPUTS = {
    "lemmas --which eq4 --m 4":
        "quartic family eq4 (pair 3,-1) at m=4: checked=16 all_pass=True certified=True\n",
    "lemmas --which eq6 --m 4":
        "quartic family eq6 (pair -2/3,5/3) at m=4: checked=16 all_pass=True certified=True\n",
    "lemmas --which eq8 --m 4":
        "quartic family eq8 (pair 1/5,4/5) at m=4: checked=16 all_pass=True certified=True\n",
    "lemmas --which lemma1 --m 4":
        "parametrization with gamma=0x2: bijection confirmed, 16 = 2^m values "
        "cover the unit circle minus 1\n",
    "lemmas --which lemma2 --n 8":
        "quadratic trace criterion over n=8: 0 disagreements in 65280 (a,b) cases\n",
    "open1 --m 5 --format text":
        "m=5 s hits: 0 1 2 4 6 9 14 15 17 19 20 25 28 30 32\n",
    "open2 --m 5 --format text":
        "m=5 k hits: 0 1 2 6 7 9 10 11 12 15 17 18 20 21 22 23 24 27 30 31\n",
    "family --family F8 --m 4":
        "family F8 over n=8: 0x1*x^1 + 0x1*x^16 + 0x1*x^121\n"
        "is_permutation=True evaluations=256\n",
}

#: sha256 of the table1 --m 3 forms that golden_datasets.json does not cover
_TABLE1_M3_DIGESTS = {
    "csv": "d8383ddb5957afce76e3ee4ebe114e1f764a70781c41458eb05a27a1fbca35c0",
    "text": "62ea4310499a24feb4ae2959b90b97bce1b5f7a2cabcacf47b41e9e9272a1637",
}


@pytest.mark.parametrize("command", sorted(_TEXT_OUTPUTS))
def test_text_output_bytes(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert out.read_text() == _TEXT_OUTPUTS[command]
    assert run(capsys, *command.split()) == (0, _TEXT_OUTPUTS[command], "")


@pytest.mark.parametrize("fmt", sorted(_TABLE1_M3_DIGESTS))
def test_table1_m3_bytes(capsys, fmt):
    code, out, _ = run(capsys, "table1", "--m", "3", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE1_M3_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_outputs_byte_identical_across_runs_and_moduli(tmp_path, capsys, fmt):
    # repeated runs, then a second irreducible modulus: verdicts, and so the
    # dataset bytes, do not depend on the field representation
    for argv, other in ((("table1", "--m", "5"), "0x40f"),
                        (("search", "--m", "3"), "0x49")):
        blobs = []
        for extra in ([], [], ["--modulus", other]):
            p = tmp_path / f"{argv[0]}{len(blobs)}.{fmt}"
            code, _, _ = run(capsys, *argv, "--format", fmt, *extra,
                             "--out", str(p))
            assert code == 0
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("cmd", ["search", "table1"])
def test_threads_option_is_gone(capsys, cmd):
    assert cli.main([cmd, "--m", "3", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "3", "--pair", "2,-1"],
    ["family", "--family", "F8", "--m", "4"],
    ["lemmas", "--which", "eq4", "--m", "4"],
])
def test_single_result_commands_refuse_csv(capsys, argv):
    # only the dataset commands write CSV; the others take text or json
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert "invalid choice: 'csv'" in err
    assert run(capsys, *argv, "--format", "json")[0] == 0


@pytest.mark.parametrize("argv, code", [
    (["verify", "--m", "3"], 2),  # --pair is required
    (["verify", "--m", "3", "--pair", "2,-1", "--bogus"], 2),
    (["nosuchcommand"], 2),
    ([], 2),
    (["search", "--help"], 0),
])
def test_argparse_exit_codes_are_returned(capsys, argv, code):
    assert cli.main(argv) == code


def test_help_lists_all_commands(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("verify", "family", "table1", "lemmas", "search", "open1", "open2"):
        assert cmd in out


def test_main_builds_one_parser_per_process(capsys):
    # a usage error and a run in between must not leave state behind
    assert run(capsys, "verify", "--m", "3", "--bogus")[0] == 2
    assert run(capsys, "search", "--m", "2", "--format", "csv")[0] == 0
    assert run(capsys, "verify", "--m", "3", "--pair", "2,-1")[0] == 0
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()
