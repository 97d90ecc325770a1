"""Command-line front end.

Commands:
    verify   check a Niho pair with both engines
    family   build a named trinomial family instance and verify it
    table1   machine-checked reproduction of the known-pair table
    lemmas   batch verifications (quartic families, parametrization
             bijection, quadratic trace criterion)
    search   full (s, t) sweep with orbit classification
    open1    sweep the line s + t = 1
    open2    sweep the family (s, t) = (2k, -k)

Exit codes: 0 verified-true / dataset written, 1 verified-false,
2 usage or precondition error. Dataset outputs (table1, search, open1,
open2) carry no timing fields, so reruns are byte-identical. ``--out`` is
opened before the work, as a shell redirect is: an unwritable path exits 2
at once, and a refusal after it is opened leaves the file empty.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import sys

from . import field as gf
from . import loweq, niho, permcheck, survey
from . import tower as tw
from .errors import NihopermError

#: largest single m for table1: at even m every (k,-k) row is a permutation
#: pair, so the table costs about 3 * 4^m points (README cost row `table1 --m 14`)
TABLE1_MAX_M = 14


def _degree_from(args) -> int:
    """The field degree n: --n, or 2m for --m."""
    if args.m is not None and args.n is not None:
        raise NihopermError("give one of --m / --n, not both")
    if args.m is not None:
        return 2 * args.m
    if args.n is None:
        raise NihopermError("one of --m / --n is required")
    return args.n


def _modulus_from(args) -> int | None:
    """The --modulus override, read as hex, or None."""
    return int(args.modulus, 16) if args.modulus else None


def _tower_from(args) -> tw.TowerCtx:
    n = _degree_from(args)
    if n % 2 != 0:
        raise NihopermError(f"tower commands need even n, got {n}")
    return tw.make_tower(n // 2, _modulus_from(args))


def cmd_verify(args, out) -> int:
    tower = _tower_from(args)
    pair = niho.parse_pair(args.pair, tower.m)
    reports = [permcheck.unit_circle_check(tower, pair)]
    if tower.field.n <= permcheck.EXHAUSTIVE_MAX_N:
        ex = permcheck.is_permutation_exhaustive(
            tower.field, niho.pair_to_trinomial(tower, pair)
        )
        reports.append(dataclasses.replace(ex, pair=pair))
    is_pp = all(r.is_permutation for r in reports)
    notes = niho.known_row_notes(pair)
    if args.format == "json":
        payload = {
            "m": tower.m,
            "modulus": tower.field.to_hex(),
            "pair": pair.to_json_dict(),
            "is_permutation": is_pp,
            "reports": [r.to_json_dict() for r in reports],
            "notes": notes,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [
            f"pair ({pair.label()})  m={tower.m}  modulus={tower.field.to_hex()}"
        ]
        lines += [f"note: {n}" for n in notes]
        for r in reports:
            lines.append(
                f"  {r.method:<12} is_permutation={r.is_permutation} "
                f"evaluations={r.evaluations} elapsed_ms={r.elapsed*1000:.3f}"
            )
        lines.append(f"verdict: {'PERMUTATION' if is_pp else 'NOT a permutation'}")
        out.write("\n".join(lines) + "\n")
    return 0 if is_pp else 1


def cmd_family(args, out) -> int:
    tower = _tower_from(args)
    params = {}
    for item in args.param or []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise NihopermError(f"--param expects KEY=VALUE, got {item!r}")
        if key in params:
            raise NihopermError(f"--param {key} is given more than once")
        try:
            params[key] = int(value, 0)
        except ValueError:
            raise NihopermError(f"--param {key} expects an integer, got {value!r}") from None
    spec = niho.family_trinomial(tower, args.family, params)
    report = permcheck.is_permutation_exhaustive(tower.field, spec)
    if args.format == "json":
        payload = {
            "family": args.family.upper(),
            "params": {k: v for k, v in sorted(params.items())},
            "trinomial": spec.to_json_dict(),
            "report": report.to_json_dict(),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        terms = " + ".join(f"{hex(c)}*x^{e}" for c, e in spec.terms)
        out.write(
            f"family {args.family.upper()} over n={tower.field.n}: {terms}\n"
            f"is_permutation={report.is_permutation} "
            f"evaluations={report.evaluations}\n"
        )
    return 0 if report.is_permutation else 1


def _table1_rows(towers: list[tw.TowerCtx]) -> list[tuple]:
    """One flat tuple of cells per known-pair row: m, source, condition,
    condition_ok, the pair's s, t and is_pp, then the label, s, t and is_pp
    of each of its two equivalents, with None where a pair is undefined."""
    out_rows = []
    for tower in towers:
        rows = niho.known_pairs_table1(tower.m)
        pairs = {p for row in rows for p in (row.pair, *(p for _, p in row.equivalents))}
        pairs.discard(None)
        pairs = list(pairs)
        pp = permcheck.pair_verdicts(tower, [p.s for p in pairs], [p.t for p in pairs])
        cells = {p: (p.s, p.t, is_pp) for p, is_pp in zip(pairs, pp.tolist())}
        cells[None] = (None, None, None)
        for row in rows:
            # every row has two equivalents; another count raises, not a ragged table
            (l1, p1), (l2, p2) = row.equivalents
            out_rows.append((tower.m, row.source, row.condition, row.condition_ok,
                             *cells[row.pair], l1, *cells[p1], l2, *cells[p2]))
    return out_rows


def _cell(v, undef: str = "undef") -> str:
    """A table1 cell as text: bools in lower case, None as ``undef``."""
    if v is None:
        return undef
    return str(v).lower() if isinstance(v, bool) else str(v)


#: a table1 row as json.dumps({"rows": rows}, indent=2) lays it out
_TABLE1_ROW = """    {
      "m": %s,
      "source": %s,
      "condition": %s,
      "condition_ok": %s,
      "s": %s,
      "t": %s,
      "is_pp": %s,
      "equivalents": [
        {
          "label": %s,
          "s": %s,
          "t": %s,
          "is_pp": %s
        },
        {
          "label": %s,
          "s": %s,
          "t": %s,
          "is_pp": %s
        }
      ]
    }"""
#: a table1 row as text, from the cells csv writes
_TABLE1_TEXT = ("m={:<2} {:<14} cond={:<5} pair=({},{}) is_pp={:<5} "
                "equiv: {}->({},{}):{}  {}->({},{}):{}")


def cmd_table1(args, out) -> int:
    if args.all or (args.m is None and args.n is None):
        if args.modulus:
            raise NihopermError("--modulus needs one --m or --n, not the m=2..8 sweep")
        if args.m is not None or args.n is not None:
            raise NihopermError("--all is the m=2..8 sweep; it takes no --m or --n")
        towers = [tw.make_tower(m) for m in range(2, 9)]
    else:
        towers = [_tower_from(args)]
        if towers[0].m > TABLE1_MAX_M:
            raise NihopermError(f"table capped at m={TABLE1_MAX_M}")
    rows = _table1_rows(towers)
    if args.format == "json":
        # json.dumps writes the strings; the other cells are numbers, bools or null
        json_rows = (_TABLE1_ROW % tuple(json.dumps(v) if isinstance(v, str) else _cell(v, "null")
                                         for v in r) for r in rows)
        # three writes: one string of the whole table would be copied twice
        out.write('{\n  "rows": [\n')
        out.write(",\n".join(json_rows))
        out.write("\n  ]\n}\n")
    else:
        # csv and text write every cell but the condition
        cells = [[_cell(v) for v in r[:2] + r[3:]] for r in rows]
        if args.format == "csv":
            w = csv.writer(out, lineterminator="\n")
            w.writerow([
                "m", "source", "condition_ok", "s", "t", "is_pp",
                "equiv1_label", "equiv1_s", "equiv1_t", "equiv1_is_pp",
                "equiv2_label", "equiv2_s", "equiv2_t", "equiv2_is_pp",
            ])
            w.writerows(cells)
        else:
            out.write("\n".join(_TABLE1_TEXT.format(*c) for c in cells) + "\n")
    # exit code 1: a row whose condition holds has a pair or an equivalent that fails
    return 1 if any(r[3] and False in r[6::4] for r in rows) else 0


def _quartic_check(args):
    which = args.which.lower()
    report = loweq.verify_lemma_quartics(_tower_from(args), which)
    text = (f"quartic family {which} (pair {loweq.QUARTIC_FAMILY_PAIRS[which]}) "
            f"at m={report.m}: checked={report.checked} "
            f"all_pass={report.all_pass} certified={report.certified}")
    return report.all_pass and report.certified, dataclasses.asdict(report), text


def _parametrization_check(args):
    tower = _tower_from(args)
    gamma = tw.CANONICAL_GAMMA
    ok = tw.cayley_is_bijection(tower, gamma)
    count = tower.subfield_order
    payload = {"check": "unit_circle_parametrization", "m": tower.m,
               "gamma": hex(gamma), "bijection": ok, "values": count}
    text = (f"parametrization with gamma={hex(gamma)}: bijection "
            f"{'confirmed' if ok else 'FAILED'}, {count} = 2^m values "
            "cover the unit circle minus 1")
    return ok, payload, text


def _quadratic_check(args):
    ctx = gf.make_field(_degree_from(args), _modulus_from(args))
    bad = loweq.quadratic_criterion_disagreements(ctx)
    total = ctx.group_order * (1 << ctx.n)
    payload = {"check": "quadratic_trace_criterion", "n": ctx.n,
               "disagreements": bad, "cases": total}
    text = (f"quadratic trace criterion over n={ctx.n}: {bad} disagreements "
            f"in {total} (a,b) cases")
    return bad == 0, payload, text


#: lemmas check -> (largest field degree n, n = 2m for the tower checks;
#: the check, which returns (passed, json payload, text line)). The caps are
#: the last sizes that ran within a minute in a fresh process (README); the
#: tower checks all reach the tower bound m = 16
_LEMMAS = {
    "eq4": (32, _quartic_check),
    "eq6": (32, _quartic_check),
    "eq8": (32, _quartic_check),
    "lemma1": (32, _parametrization_check),
    "lemma2": (16, _quadratic_check),
}


def cmd_lemmas(args, out) -> int:
    which = args.which.lower()
    if which not in _LEMMAS:
        raise NihopermError(f"unknown check {args.which!r}")
    max_n, check = _LEMMAS[which]
    if _degree_from(args) > max_n:
        raise NihopermError(f"lemmas {which} capped at n={max_n}")
    ok, payload, text = check(args)
    out.write((json.dumps(payload) if args.format == "json" else text) + "\n")
    return 0 if ok else 1


def cmd_search(args, out) -> int:
    # --format text writes the CSV; both formats go out in row chunks
    tower = _tower_from(args)
    rows = survey.search_pairs(tower)
    emit = survey.rows_to_json if args.format == "json" else survey.rows_to_csv
    for lo in range(0, len(rows), survey.EMIT_ROWS):
        out.write(emit(rows, lo, lo + survey.EMIT_ROWS))
    if args.format == "json":
        out.write("\n")
    return 0


def _cmd_open(args, out, scan, key: str) -> int:
    tower = _tower_from(args)
    hits = scan(tower)
    if args.format == "json":
        out.write(json.dumps({"m": tower.m, key: hits}) + "\n")
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["m", key])
        w.writerows([tower.m, h] for h in hits)
    else:
        out.write(f"m={tower.m} {key} hits: {' '.join(map(str, hits))}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser; :func:`main` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="nihoperm",
        description="Permutation trinomials from Niho exponents over GF(2^n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plain, tabular = ("text", "json"), ("text", "json", "csv")

    def common(p, formats):
        p.add_argument("--m", type=int, help="tower parameter m (field degree n=2m)")
        p.add_argument("--n", type=int, help="field degree n (must be even)")
        p.add_argument("--modulus", type=str, help="modulus override, hex (e.g. 0x13)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", type=str, help="write output to this path")

    p = sub.add_parser("verify", help="verify a Niho pair with both engines")
    common(p, plain)
    p.add_argument("--pair", required=True,
                   help="pair 'S,T'; components may be fractions like -1/3")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("family", help="build and verify a trinomial family instance")
    common(p, plain)
    p.add_argument("--family", required=True,
                   help="one of F1..F9, T3..T6, C1..C4")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="family parameter (repeatable); values parse as int, 0x.. ok")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("table1", help="reproduce the known-pair table")
    common(p, tabular)
    p.add_argument("--all", action="store_true", help="sweep m = 2..8 (default)")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("lemmas", help="run a batch verification")
    common(p, plain)
    p.add_argument("--which", required=True,
                   help="eq4 | eq6 | eq8 | lemma1 | lemma2")
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser("search", help="full (s,t) sweep with classification")
    common(p, tabular)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("open1", help="sweep the line s+t=1")
    common(p, tabular)
    p.set_defaults(fn=lambda a, out: _cmd_open(a, out, survey.scan_open_problem_1, "s"))

    p = sub.add_parser("open2", help="sweep the family (2k,-k)")
    common(p, tabular)
    p.set_defaults(fn=lambda a, out: _cmd_open(a, out, survey.scan_open_problem_2, "k"))

    return parser


def _fix_argv(argv: list[str]) -> list[str]:
    # join "--pair -1/3,4/3" into "--pair=-1/3,4/3" so argparse does not
    # mistake the value for an option
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--pair" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--pair={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    try:
        args = parser.parse_args(_fix_argv(list(argv)))
    except SystemExit as exc:  # --help, or a usage error already printed
        return exc.code
    try:
        # open --out before the work, as a shell redirect does
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            return args.fn(args, out)
    except (ValueError, OSError) as exc:  # a refusal, a bad int, an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
