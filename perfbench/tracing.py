"""Spans and counters at the boundaries of regori's modules.

A wrapper replaces a public function on every regori module attribute
that is bound to it, which is where callers look it up (for example
``regori.search.decide`` as well as ``regori.oracle.decide``). Inner
kernels are never wrapped. Spans are kept in memory and written out when
the run ends; all spans of one operation share its id.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _zeros(result, args):
    return {"strata.zeros_built": len(result.zeros)}


# span name -> (module, attribute, counter of work done, from result and args)
TARGETS = {
    "search.t_of_g": ("regori.search", "t_of_g",
                      lambda r, a: {"search.candidates": len(r.blocking) + 1}),
    "oracle.decide": ("regori.oracle", "decide", None),
    "strata.uniform_stratum": ("regori.strata", "uniform_stratum", _zeros),
    "strata.parse_stratum": ("regori.strata", "parse_stratum", _zeros),
    "numtheory.divisors": ("regori.numtheory", "divisors", None),
    "numtheory.semidirect_exists": ("regori.numtheory", "semidirect_exists", None),
    "witnesses.extension_slack_ok": ("regori.witnesses", "extension_slack_ok", None),
    "witnesses.materialize": ("regori.witnesses", "materialize",
                              lambda r, a: {"witnesses.elements_materialized": r[0].order}),
    "witnesses.generator_coords": ("regori.witnesses", "generator_coords", None),
    "sl2.build_generating_pair": ("regori.sl2", "build_generating_pair", None),
    "sl2.closure_order": ("regori.sl2", "closure_order",
                          lambda r, a: {"sl2.matrices_closed": r}),
    # psl_group closes all of SL(2,p), twice the order of the quotient
    "sl2.psl_group": ("regori.sl2", "psl_group",
                      lambda r, a: {"sl2.matrices_closed": 2 * r[0].order}),
    "groups.closure_from_generators": ("regori.groups", "closure_from_generators", None),
    "groups.is_isomorphic": ("regori.groups", "is_isomorphic", None),
    "groups.subgroup_generated": ("regori.groups", "subgroup_generated", None),
    "origami.translations": ("regori.origami", "translations",
                             lambda r, a: {"origami.translation_work": a[0].n ** 2}),
    "origami.stratum_of": ("regori.origami", "stratum_of", None),
    "enumerator.enumerate_regular": ("regori.enumerator", "enumerate_regular",
                                     lambda r, a: {"enumerator.witnesses": len(r)}),
    "cli.main": ("regori.cli", "main", None),
}
for _ctor in ("cyclic", "direct_product", "semidirect_cyclic", "two_group", "dihedral",
              "quaternions", "klein_witness", "q8_witness"):
    TARGETS[f"constructions.{_ctor}"] = ("regori.constructions", _ctor, None)


class Tracer:
    def __init__(self):
        self.spans = []  # [op_id, span_id, parent_id, name, start_ns, end_ns]
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._sites = None

    def wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_id = len(spans)
            span = [self.op_id, span_id, stack[-1] if stack else None, name, 0, 0]
            spans.append(span)
            stack.append(span_id)
            span[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
            if count is not None:
                counts.update(count(result, args))
            return result

        return traced

    def _find_sites(self) -> list:
        """(module, attribute, original, wrapper) for every binding of a target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "regori" or n.startswith("regori."))]
        sites = []
        for name, (modname, attr, count) in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(orig, name, count)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is orig:
                        sites.append((mod, key, orig, wrapper))
        return sites

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._find_sites()
        for mod, key, _, wrapper in self._sites:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig, _ in self._sites or ():
            setattr(mod, key, orig)

    def self_times(self) -> tuple:
        """(self ns by span name, calls by span name)."""
        child = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for _, span_id, _, name, start, end in self.spans:
            self_ns[name] += end - start - child[span_id]
            calls[name] += 1
        return self_ns, calls

    def layer_metrics(self) -> dict:
        self_ns, calls = self.self_times()
        out = {}
        for name in TARGETS:
            if not name.startswith("constructions."):
                out[f"{name}.self_ms"] = self_ns[name] / 1e6
                out[f"{name}.calls"] = calls[name]
        out["constructions.self_ms"] = sum(
            v for k, v in self_ns.items() if k.startswith("constructions.")) / 1e6
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "span", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
