"""What a regori process imports: the lazy package and per-command modules.

Each CLI run happens in a fresh interpreter, so `sys.modules` shows exactly
what the subcommand loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regori

SRC = str(Path(regori.__file__).resolve().parent.parent)

RUN_MAIN = (
    "import contextlib, io, json, sys\n"
    "from regori.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, json.loads(out.getvalue()), sorted(sys.modules)]))\n"
)

# modules no stratum verdict needs: group arithmetic and the t(g) machinery
NOT_FOR_VERDICTS = {"enumerator", "search", "tables", "groups", "constructions", "perms",
                    "origami"}


def run_in_fresh_process(*argv) -> tuple:
    """(exit code, JSON payload, loaded module names) of `regori --output json ARGV`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, "--output", "json", *argv],
                          env=env, check=True, capture_output=True, text=True)
    code, payload, modules = json.loads(proc.stdout)
    return code, payload, set(modules)


def regori_modules(modules: set) -> set:
    return {m.split(".", 1)[1] for m in modules if m.startswith("regori.")}


@pytest.mark.parametrize("stratum, status", [
    ("H(10^20000)", "exists"),  # a dp witness
    ("H(12^7)", "not_exists"),
    ("H(5^50)", "unknown"),
])
def test_stratum_exists_loads_only_the_verdict_path(stratum, status):
    code, payload, modules = run_in_fresh_process("stratum-exists", stratum)
    assert (code, payload["status"]) == (0, status)
    loaded = regori_modules(modules)
    assert loaded <= {"cli", "errors", "strata", "oracle", "numtheory", "witnesses"}
    assert not loaded & NOT_FOR_VERDICTS
    assert "dataclasses" not in modules


def test_psl_pair_skips_the_oracle():
    code, payload, modules = run_in_fresh_process("psl-pair", "23", "12")
    assert (code, payload["commutator_order"]) == (0, 12)
    assert not regori_modules(modules) & {"oracle", "enumerator", "search", "tables"}
    assert "dataclasses" not in modules


def test_psl_pair_bounded_closure_skips_dataclasses():
    # commutator order 6 sends the trace test through the bounded closure
    code, payload, modules = run_in_fresh_process("psl-pair", "23", "6")
    assert (code, payload["commutator_order"]) == (0, 6)
    assert "groups" in regori_modules(modules)
    assert "dataclasses" not in modules


def test_stratum_exists_psl_witness_skips_dataclasses():
    code, payload, modules = run_in_fresh_process("stratum-exists", "H(5^110)")
    assert (code, payload["witness"]) == (0, "psl(11,12)")
    loaded = regori_modules(modules)
    assert "sl2" in loaded
    assert not loaded & NOT_FOR_VERDICTS
    assert "dataclasses" not in modules


@pytest.mark.parametrize("group, stratum", [("sd(11,5,3)", "H(10^5)"), ("psl(11,12)", "H(5^110)")])
def test_regular_origami_skips_dataclasses(group, stratum):
    code, payload, modules = run_in_fresh_process("regular-origami", "--group", group)
    assert (code, payload["stratum"]) == (0, stratum)
    assert "origami" in regori_modules(modules)
    assert "dataclasses" not in modules


def test_lazy_package_namespace():
    assert regori.__all__ == [
        "EnumWitness", "ExistenceVerdict", "FiniteGroup", "Origami", "Stratum", "Subgroup",
        "TransBound", "automorphism_count", "candidate_ms", "center",
        "closure_from_generators", "decide", "decide_uniform", "derived_subgroup",
        "enumerate_regular", "extend_by_cyclic", "genus_of", "is_isomorphic", "one_cylinder",
        "parse_stratum", "regular_origami", "stratum_of", "subgroup_generated", "t_of_g",
        "translation_group", "translation_order", "uniform_stratum",
    ]
    for name in regori.__all__:
        assert getattr(regori, name).__module__.startswith("regori.")
    namespace = {}
    exec("from regori import *", namespace)
    assert set(regori.__all__) <= set(namespace)
    assert set(regori.__all__) <= set(dir(regori))
    with pytest.raises(AttributeError):
        regori.no_such_name
