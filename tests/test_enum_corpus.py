"""Identical enumerator output for every square count up to 64.

`enum_corpus.json` holds, for each n, the sha256 of the witnesses that
`enumerate_regular(n)` keeps: their serialized origamis, strata, group
orders and commutator orders, in order. Which origami stands for each
isomorphism class depends on the order in which the pair search meets
them, so a change to the search order or to its pruning shows here even
when the classes stay the same. A deliberate change regenerates the file
with

    PYTHONPATH=src python tests/test_enum_corpus.py --write

and says in its change log why the witnesses moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from regori.enumerator import enumerate_regular

DATA = Path(__file__).with_name("enum_corpus.json")

SIZES = range(1, 65)


def digest(n: int) -> str:
    rows = [
        (w.origami.serialize(), list(w.stratum.zeros), w.group_order, w.commutator_order)
        for w in enumerate_regular(n, budget=n)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("n", SIZES)
def test_enumeration_unchanged(n):
    assert digest(n) == json.loads(DATA.read_text())[str(n)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_enum_corpus.py --write")
    table = {str(n): digest(n) for n in SIZES}
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} entries to {DATA}")
