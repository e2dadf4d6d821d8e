"""Command-line front end.

Every subcommand prints text, JSON, or CSV to stdout (or --out FILE).
Exit codes: 0 success, 1 reference-row mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .errors import BudgetExceeded, RegoriError


def _positive_int(text) -> int:
    """An argparse type: an int of at least 1, else a usage error naming
    the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_positive_int.__name__ = "int"  # argparse's message for text that is no int


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a subcommand from clobbering flags given before it
    parser.add_argument(
        "--output", choices=("text", "json", "csv"), default=argparse.SUPPRESS
    )
    parser.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS,
                        help="write to FILE instead of stdout")
    parser.add_argument("--closure-budget", type=_positive_int, default=argparse.SUPPRESS)
    parser.add_argument("--enum-budget", type=_positive_int, default=argparse.SUPPRESS)
    parser.add_argument("--sl2-cap", type=_positive_int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="regori", description=__doc__)
    _add_common_flags(top)
    top.set_defaults(
        output="text",
        out=None,
        closure_budget=100_000,
        # None: `enumerate` reads enumerator.DEFAULT_ENUM_BUDGET and
        # `psl-pair` sl2.DEFAULT_SL2_CAP, so building the parser imports
        # neither module
        enum_budget=None,
        sl2_cap=None,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common_flags(p)
        return p

    p = add_command("stratum-exists", help="decide a stratum")
    p.add_argument("stratum", help="e.g. 'H(10^5)' or 'H(1,2)'")

    p = add_command("t-of-g", help="maximal translation count in genus g")
    p.add_argument("g", type=int)

    p = add_command("one-cylinder", help="the 2(g-1)-translation origami")
    p.add_argument("g", type=int)

    p = add_command("regular-origami", help="origami from a group descriptor")
    p.add_argument("--group", required=True, help="witness descriptor, e.g. sd(11,5,3)")
    p.add_argument("--gens", help="element indices 'a,b' overriding the canonical pair")

    p = add_command("psl-pair", help="generating pair with prescribed commutator order")
    p.add_argument("p", type=int)
    p.add_argument("d", type=int)

    p = add_command("progression", help="residue system for singularity order m")
    p.add_argument("m", type=int)

    p = add_command("semidirect-exists", help="cyclic-by-cyclic witness for commutator order u, index l")
    p.add_argument("u", type=int)
    p.add_argument("l", type=int)

    p = add_command("enumerate", help="all regular pairs on n squares")
    p.add_argument("n", type=int)

    p = add_command("table", help="reference-row reports")
    p.add_argument("which", choices=("appendix-a", "summary-gm"))
    p.add_argument("--rows", help="comma-separated genera (appendix-a)")
    p.add_argument("--m-max", type=int, default=25, help="largest order (summary-gm)")

    p = add_command("verify-appendix-b", help="criterion vs brute force over a grid")
    p.add_argument("umax", type=int)
    p.add_argument("lmax", type=int)
    return top


def _emit(args, payload: dict, rows=None, row_header=None) -> None:
    """payload: JSON object; rows/row_header: tabular view for csv and text."""
    if args.output == "json":
        text = json.dumps(payload)
    elif args.output == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        if rows is None:
            writer.writerow(list(payload))
            writer.writerow([_csv_cell(v) for v in payload.values()])
        else:
            writer.writerow(row_header)
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row])
        text = buf.getvalue().rstrip("\n")
    else:
        if rows is None:
            text = "\n".join(f"{k}: {_csv_cell(v)}" for k, v in payload.items())
        else:
            widths = [max(len(str(h)), *(len(str(_csv_cell(r[i]))) for r in rows)) if rows else len(str(h)) for i, h in enumerate(row_header)]
            lines = ["  ".join(str(h).ljust(w) for h, w in zip(row_header, widths))]
            for row in rows:
                lines.append("  ".join(str(_csv_cell(v)).ljust(w) for v, w in zip(row, widths)))
            text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        print(text)


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    if v is None:
        return ""
    return v


def _cmd_stratum_exists(args) -> int:
    from . import oracle, witnesses
    from .strata import parse_stratum

    stratum = parse_stratum(args.stratum)
    verdict = oracle.decide(stratum)
    payload = {"stratum": str(stratum), "status": verdict.status}
    if verdict.status == oracle.EXISTS:
        witnesses.certify(verdict.witness, *stratum.uniform())
        payload["witness"] = verdict.witness
        payload["generators"] = witnesses.generator_coords(verdict.witness)
    elif verdict.status == oracle.NOT_EXISTS:
        payload["reason"] = verdict.reason
    _emit(args, payload)
    return 0


def _cmd_t_of_g(args) -> int:
    from . import search

    bound = search.t_of_g(args.g)
    if bound.exact:
        payload = {
            "g": bound.g,
            "status": "exact",
            "t": bound.lower,
            "m": bound.m if bound.m is not None else "inf",
            "witness": bound.witness,
        }
    else:
        payload = {
            "g": bound.g,
            "status": "interval",
            "lower": bound.lower,
            "upper": bound.upper,
            "m": bound.m,
            "witness": bound.witness,
            "first_unknown_m": bound.first_unknown_m,
        }
    _emit(args, payload)
    return 0


def _cmd_one_cylinder(args) -> int:
    from .origami import one_cylinder, stratum_of, translation_order

    squares = 4 * args.g - 4
    if squares > args.closure_budget:
        raise BudgetExceeded(f"square count {squares} beyond --closure-budget {args.closure_budget}")
    o = one_cylinder(args.g)
    payload = {
        "g": args.g,
        "origami": o.serialize(),
        "stratum": str(stratum_of(o)),
        "translations": translation_order(o),
    }
    _emit(args, payload)
    return 0


def _cmd_regular_origami(args) -> int:
    from . import witnesses
    from .origami import genus_of, regular_origami, stratum_of, translation_order

    if witnesses.descriptor_order(args.group) > args.closure_budget:
        raise BudgetExceeded(
            f"group order {witnesses.descriptor_order(args.group)} beyond "
            f"--closure-budget {args.closure_budget}"
        )
    G, x, y = witnesses.materialize(args.group)
    if args.gens is not None:
        try:
            x, y = (int(v) for v in args.gens.split(","))
        except ValueError:
            raise ValueError(
                f"--gens takes two comma-separated element indices x,y, got {args.gens!r}"
            ) from None
        if not (0 <= x < G.order and 0 <= y < G.order):
            raise ValueError(f"--gens indices must lie in 0..{G.order - 1}, got {args.gens}")
    o = regular_origami(G, x, y)
    payload = {
        "group": args.group,
        "order": G.order,
        "generators": [G.coords(x), G.coords(y)],
        "origami": o.serialize(),
        "stratum": str(stratum_of(o)),
        "genus": genus_of(o),
        "translations": translation_order(o),
    }
    _emit(args, payload)
    return 0


def _cmd_psl_pair(args) -> int:
    from . import sl2

    cap = sl2.DEFAULT_SL2_CAP if args.sl2_cap is None else args.sl2_cap
    A, B = sl2.build_generating_pair(args.p, args.d)
    comm = sl2.commutator(A, B)
    payload = {
        "p": args.p,
        "d": args.d,
        "A": str(A),
        "B": str(B),
        "commutator_order": sl2.mat_order(comm),
        "closure_order": sl2.closure_order(args.p, A, B, cap=cap),
    }
    _emit(args, payload)
    return 0


def _cmd_progression(args) -> int:
    from . import numtheory

    system = numtheory.progression_for_m(args.m)
    payload = {"modulus": system.modulus, "residues": list(system.residues)}
    _emit(args, payload)
    return 0


def _cmd_semidirect_exists(args) -> int:
    from . import numtheory

    w = numtheory.semidirect_exists(args.u, args.l)
    payload = {"u": args.u, "l": args.l}
    if w is None:
        payload["status"] = "not_exists"
    else:
        payload["status"] = "exists"
        payload["witness"] = {"m": w.m, "n": w.n, "d": w.d}
    _emit(args, payload)
    return 0


def _cmd_enumerate(args) -> int:
    from . import enumerator

    budget = enumerator.DEFAULT_ENUM_BUDGET if args.enum_budget is None else args.enum_budget
    found = enumerator.enumerate_regular(args.n, budget=budget)
    rows = [
        (str(w.stratum), w.group_order, w.commutator_order, w.origami.serialize())
        for w in found
    ]
    payload = {
        "n": args.n,
        "count": len(found),
        "witnesses": [
            {
                "stratum": r[0],
                "group_order": r[1],
                "commutator_order": r[2],
                "origami": r[3],
            }
            for r in rows
        ],
    }
    _emit(args, payload, rows=rows, row_header=("stratum", "group_order", "commutator_order", "origami"))
    return 0


def _cmd_table(args) -> int:
    from . import tables

    if args.which == "appendix-a":
        keys = [int(v) for v in args.rows.split(",")] if args.rows is not None else None
        reports = tables.report_small_genus(rows=keys)
        header = ("g", "expected", "computed", "match", "note")
    else:
        if args.m_max < 1:
            raise ValueError(f"--m-max must be at least 1, got {args.m_max}")
        reports = tables.report_summary(args.m_max)
        header = ("m", "expected", "computed", "match", "note")
    rows = [
        (r.key, list(r.expected), list(r.computed), r.match, r.note) for r in reports
    ]
    payload = {
        "rows": [
            {
                "key": r.key,
                "expected": list(r.expected),
                "computed": list(r.computed),
                "match": r.match,
                "note": r.note,
            }
            for r in reports
        ],
        "all_match": all(r.match for r in reports),
    }
    _emit(args, payload, rows=rows, row_header=header)
    return 0 if all(r.match for r in reports) else 1


def _cmd_verify_appendix_b(args) -> int:
    from . import numtheory

    if args.umax < 3 or args.lmax < 1:
        raise ValueError(f"need umax >= 3 and lmax >= 1, got {args.umax} and {args.lmax}")
    mismatches = []
    checked = 0
    for u in range(3, args.umax + 1, 2):
        for l in range(1, args.lmax + 1):
            checked += 1
            fast = numtheory.semidirect_exists(u, l)
            slow = numtheory.semidirect_exists_bruteforce(u, l)
            if (fast is None) != (slow is None):
                mismatches.append({"u": u, "l": l})
    payload = {
        "u_max": args.umax,
        "l_max": args.lmax,
        "checked": checked,
        "mismatches": mismatches,
    }
    _emit(args, payload)
    return 0 if not mismatches else 1


_COMMANDS = {
    "stratum-exists": _cmd_stratum_exists,
    "t-of-g": _cmd_t_of_g,
    "one-cylinder": _cmd_one_cylinder,
    "regular-origami": _cmd_regular_origami,
    "psl-pair": _cmd_psl_pair,
    "progression": _cmd_progression,
    "semidirect-exists": _cmd_semidirect_exists,
    "enumerate": _cmd_enumerate,
    "table": _cmd_table,
    "verify-appendix-b": _cmd_verify_appendix_b,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RegoriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
