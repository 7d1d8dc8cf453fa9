"""Per-layer counters, self times and spans, taken from outside the program.

``Tracer.install`` replaces each traced function at every module binding
that holds it (``from .superspaces import multiply`` makes a second binding
in ``weyl`` that wrapping ``superspaces.multiply`` alone would miss) and each
traced method on its class; ``uninstall`` puts the originals back.

Self time comes from a call stack: a call's self time is its duration minus
the durations of the traced calls made inside it.  A traced call made while
a call of the same metric is on top of the stack (``QMode.one`` calling
``scalar`` calling ``from_laurent``; recursive ``antipode``) is folded into
the outer call.  Hot fine-grained calls keep counters only; the coarse calls
in ``SPANS`` also record a span (id, parent, operation, name, start, end),
kept in memory and written out by the caller at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric, module, attribute path, extras); extras name the ratios kept.
TARGETS = (
    ("qarith.mul", "qarith", "ScalarQ.__mul__", ()),
    ("qarith.add", "qarith", "ScalarQ.__add__", ()),
    ("qarith.inv", "qarith", "ScalarQ.inverse", ()),
    ("qarith.eq", "qarith", "ScalarQ.__eq__", ("count_only",)),
    ("qarith.const", "qarith", "QMode.one", ()),
    ("qarith.const", "qarith", "QMode.zero", ()),
    ("qarith.const", "qarith", "QMode.scalar", ()),
    ("qarith.const", "qarith", "QMode.q_power", ()),
    ("qarith.const", "qarith", "QMode.from_laurent", ()),
    ("indices.theta", "indices", "theta", ()),
    ("superspaces.monomial_product", "superspaces", "monomial_product", ("nonzero", "distinct")),
    ("superspaces.multiply", "superspaces", "multiply", ()),
    ("superspaces.basis_of_degree", "superspaces", "basis_of_degree", ("distinct",)),
    ("weyl.apply_atom", "weyl", "apply_atom", ("nonzero", "distinct")),
    ("weyl.apply_word", "weyl", "apply_word", ()),
    ("weyl.operators_equal", "weyl", "operators_equal", ()),
    ("weyl.check", "weyl", "Relation.run", ()),
    ("weyl.check", "weyl", "PairCheck.run", ()),
    ("weyl.check", "weyl", "TripleCheck.run", ()),
    ("uqrep.generator_word", "uqrep", "generator_word", ()),
    ("uqrep.component_report", "uqrep", "component_report", ()),
    ("uqrep.rowspace_add", "uqrep", "RowSpace.add", ("useful",)),
    ("hopf.build", "hopf", "build", ()),
    ("hopf.verify_hopf", "hopf", "verify_hopf", ()),
    ("hopf.mul", "hopf", "HopfPresentation.mul", ()),
    ("hopf.tensor_mul", "hopf", "HopfPresentation.tensor_mul", ()),
    ("hopf.delta_key", "hopf", "HopfPresentation.delta_key", ()),
    ("hopf.antipode", "hopf", "HopfPresentation.antipode", ()),
    ("cli.main", "cli", "main", ()),
    ("cli.build_parser", "cli", "build_parser", ()),
)

SPANS = frozenset({
    "cli.main", "weyl.check", "weyl.operators_equal", "superspaces.multiply",
    "uqrep.component_report", "hopf.build", "hopf.verify_hopf",
})

# Call-argument keys for distinct_ratio: what a memo of the call would key on.
_DISTINCT_KEY = {
    "superspaces.monomial_product": lambda a: (a[0], a[1].entries, a[2].entries),
    "superspaces.basis_of_degree": lambda a: (a[0], a[1]),
    "weyl.apply_atom": lambda a: (a[0], a[1], a[2].entries),
}


# Outcomes counted for the ratios: a term came back (nonzero_ratio), the
# vector raised the rank (useful_ratio).
_OUTCOME = {
    "nonzero": lambda result: result is not None,
    "useful": lambda result: result is True,
}


def _mul_metric(args) -> str:
    return "qarith.mul_generic" if args[0].mode.d is None else "qarith.mul_root"


class Tracer:
    """Counters, self times and spans of every TARGETS call."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # metric -> [calls, self_s, outcome hits]
        self.distinct: dict[str, set] = {}
        self.ratios: dict[str, str] = {}  # metric -> name of its outcome ratio
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.missing: dict[str, str] = {}  # metric -> a target not found
        self.op_id = 0
        self._stack: list[list] = []  # [metric, child seconds, span id]
        self._undo: list[tuple] = []

    def install(self) -> None:
        for metric, module, path, extras in TARGETS:
            names = ("qarith.mul_generic", "qarith.mul_root") if metric == "qarith.mul" else (metric,)
            for name in names:
                self.stats.setdefault(name, [0, 0.0, 0])
            if "distinct" in extras:
                self.distinct.setdefault(metric, set())
            self.ratios.update((metric, e + "_ratio") for e in extras if e in _OUTCOME)
            mod = importlib.import_module("qgrass." + module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__.get(attr) if owner_name else getattr(mod, attr, None)
            if original is None:
                self.missing[metric] = f"qgrass.{module}.{path}"
                continue
            wrapper = self._wrap(original, metric, extras)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for name, m in list(sys.modules.items()):
                if name != "qgrass" and not name.startswith("qgrass."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        if "qarith.mul" in self.missing:
            path = self.missing.pop("qarith.mul")
            self.missing.update({"qarith.mul_generic": path, "qarith.mul_root": path})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, metric: str, extras: tuple):
        if "count_only" in extras:
            stat = self.stats[metric]

            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        metric_of = _mul_metric if metric == "qarith.mul" else None
        seen = self.distinct.get(metric)
        distinct_key = _DISTINCT_KEY.get(metric)
        outcome = next((_OUTCOME[e] for e in extras if e in _OUTCOME), None)
        is_span = metric in SPANS
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            m = metric if metric_of is None else metric_of(args)
            if stack and stack[-1][0] == m:
                return fn(*args, **kwargs)
            span_id = parent = None
            if is_span:
                span_id = len(spans)
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                spans.append(None)
            frame = [m, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat = stats[m]
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if is_span:
                    spans[span_id] = (span_id, parent, self.op_id, m, t0, t1)
            if outcome is not None and outcome(result):
                stat[2] += 1
            if seen is not None:
                seen.add(distinct_key(args))
            return result

        return traced

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; wall_s is the traced
        wall of the same work, the base of qarith.share."""
        out: dict[str, float] = {}
        for metric, (calls, self_s, hits) in sorted(self.stats.items()):
            out[metric + ".calls"] = calls
            out[metric + ".self_s"] = self_s
            if metric in self.distinct:
                out[metric + ".distinct_ratio"] = len(self.distinct[metric]) / calls if calls else 0.0
            if metric in self.ratios:
                out[f"{metric}.{self.ratios[metric]}"] = hits / calls if calls else 0.0
        qarith_self = sum(s[1] for k, s in self.stats.items() if k.startswith("qarith."))
        out["qarith.share"] = qarith_self / wall_s if wall_s > 0 else 0.0
        return out
