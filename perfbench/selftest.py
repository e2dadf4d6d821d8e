"""Show that no check passes vacuously: each accepts the library's real
answer and rejects the same answer corrupted.

    python3 perfbench/selftest.py

Corruptions: t off by one, a dropped enumerator witness, a wrong stratum,
a wrong translation count, a flipped verdict, a wrong closure order. Exits
1 if a real answer is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import paper  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(label: str, fn, should_pass: bool) -> None:
    try:
        fn()
        passed, why = True, ""
    except checks.CheckFailed as exc:
        passed, why = False, str(exc)
    ok = passed == should_pass
    if not ok:
        failures.append(label)
    verdict = "accepted" if passed else f"rejected ({why})"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")


def tg_cases() -> None:
    from regori.search import t_of_g

    sg, plain = 11, 13  # 2*11+1 = 23 is prime, 2*13+1 = 27 is not
    cases = [
        (sg * sg + 1, ((2 * sg + 1) * sg, 2 * sg)),
        (plain * plain + 1, (2 * plain * plain, None)),
        (7 * 11 + 1, (2 * 77, None)),
        (paper.progression_genus(5, 11), (660, 5)),
        (126, None),  # an interval answer
        (1376, None),
    ]
    for g, want in cases:
        b = t_of_g(g)
        expect(f"tg-scan g={g} real", lambda: checks.check_t_of_g(g, b, want), True)
        off = dataclasses.replace(b, lower=b.lower + 1, upper=max(b.upper, b.lower + 1))
        expect(f"tg-scan g={g} t off by one", lambda: checks.check_t_of_g(g, off, want), False)


def enum_cases() -> None:
    wl = workloads.EnumSweep(0)
    wl.prepare()
    for n in (18, 24):
        found = [(w.origami.serialize(), w.stratum.zeros) for w in wl.call(n)]
        expect(f"enum-sweep n={n} real",
               lambda: checks.check_enumeration(n, found, wl._status_of), True)
        for i, (text, zeros) in enumerate(found):
            alone = sum(z == zeros for _, z in found) == 1
            if zeros and len(set(zeros)) == 1 and alone:
                dropped = found[:i] + found[i + 1:]
                expect(f"enum-sweep n={n} dropped the witness in {zeros[:1]}^{len(zeros)}",
                       lambda: checks.check_enumeration(n, dropped, wl._status_of), False)
        text, zeros = found[-1]
        wrong = found[:-1] + [(text, (zeros[0] + 1,) + zeros[1:])]
        expect(f"enum-sweep n={n} wrong stratum",
               lambda: checks.check_enumeration(n, wrong, wl._status_of), False)


def corrupt(out: str, **changes) -> str:
    payload = json.loads(out)
    payload.update(changes)
    return json.dumps(payload)


def cli_cases() -> None:
    wl = workloads.CliWitness(0, str(HERE.parent / "src"), in_process=True)
    wl.prepare()
    by_kind = {}
    for op in wl.ops:
        by_kind.setdefault(op["kind"], []).append(op)
    def smallest(kind, key):
        return min(by_kind[kind], key=lambda op: op[key])

    ops_to_try = [smallest("regular-origami", "t"), smallest("progression", "p"),
                  smallest("psl-pair", "p")]
    for kind in ("pair-stratum", "twist-stratum"):
        for want in (True, False):
            ops_to_try += [op for op in by_kind[kind] if op["exists"] == want][:1]
    for op in ops_to_try:
        rc, out = wl.call(op)[:2]
        label = "cli-witness " + " ".join(op["argv"])
        expect(f"{label} real", lambda: checks.check_cli(op, rc, out), True)
        expect(f"{label} exit code 2", lambda: checks.check_cli(op, 2, out), False)
        payload = json.loads(out)
        if op["kind"] == "regular-origami":
            bad = corrupt(out, translations=payload["translations"] + 1)
            expect(f"{label} wrong translation count", lambda: checks.check_cli(op, rc, bad), False)
            bad = corrupt(out, genus=payload["genus"] + 1)
            expect(f"{label} wrong genus", lambda: checks.check_cli(op, rc, bad), False)
        elif op["kind"] == "psl-pair":
            bad = corrupt(out, closure_order=payload["closure_order"] // 2)
            expect(f"{label} wrong closure order", lambda: checks.check_cli(op, rc, bad), False)
            bad = corrupt(out, commutator_order=payload["commutator_order"] + 1)
            expect(f"{label} wrong commutator order", lambda: checks.check_cli(op, rc, bad), False)
        else:
            flipped = "not_exists" if payload["status"] == "exists" else "exists"
            bad = corrupt(out, status=flipped, reason="flipped", witness="c(1)",
                          generators=[0, 0])
            expect(f"{label} flipped verdict", lambda: checks.check_cli(op, rc, bad), False)
            if payload["status"] == "exists" and op["kind"] == "progression":
                a, b = payload["generators"]
                bad = corrupt(out, generators=[a, [2 * x % op["p"] for x in b]])
                expect(f"{label} generator of determinant 4",
                       lambda: checks.check_cli(op, rc, bad), False)
                bad = corrupt(out, generators=[a, a])
                expect(f"{label} commuting generators", lambda: checks.check_cli(op, rc, bad), False)


def main() -> int:
    tg_cases()
    enum_cases()
    cli_cases()
    print(f"{len(failures)} self-test failures" if failures else "every check behaves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
