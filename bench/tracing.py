"""Per-layer tracing from outside the program.

Wrappers rebind the names a calling module looks up at call time, e.g.
``kscreen.screening.center_and_decompose`` or ``kscreen.cli.load_csv``, so
every call ``screen`` and the CLI make into another module passes through a
span.  A span records its layer name, start, end, parent span and op id;
spans stay in memory and are written out when the run ends.  A layer's self
time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import time

# (kscreen submodule whose namespace is rebound, attribute, layer name).
# "" is the package itself, through which the benchmark calls screen and the
# simulation functions its suite replay uses.
TARGETS = (
    ("screening", "bandwidth", "kernels.bandwidth"),
    ("screening", "gram", "kernels.gram"),
    ("screening", "center_and_decompose", "kernels.center_and_decompose"),
    ("screening", "select_epsilon", "tuning.select_epsilon"),
    ("screening", "kcca_singular_value", "measures.kcca_singular_value"),
    ("screening", "hsic_score", "measures.hsic_score"),
    ("screening", "dcor_score", "measures.dcor_score"),
    ("screening", "pearson_score", "measures.pearson_score"),
    ("screening", "rank_by_score", "screening.rank_by_score"),
    ("", "screen", "screening.screen"),
    ("cli", "screen", "screening.screen"),
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "dataio.load_csv"),
    ("cli", "json_dumps", "dataio.json_dumps"),
    ("", "ar_gaussian", "simulation.generate"),
    ("", "gen_sim2", "simulation.generate"),
    ("", "min_model_size", "simulation.min_model_size"),
)

# Layers reported as calls and self time per op, or self time only.
TIMED_LAYERS = (
    ("kernels.bandwidth", True),
    ("kernels.gram", True),
    ("kernels.center_and_decompose", True),
    ("tuning.select_epsilon", True),
    ("measures.kcca_singular_value", True),
    ("measures.hsic_score", True),
    ("measures.dcor_score", True),
    ("measures.pearson_score", True),
    ("screening.screen", True),
    ("screening.rank_by_score", False),
    ("dataio.load_csv", False),
    ("dataio.json_dumps", False),
    ("cli.main", False),
    ("simulation.generate", False),
    ("simulation.min_model_size", False),
)


def _decompose_counts(counters, args, result):
    n = result.n
    counters["rank_kept_frac"] += result.rank / n
    # Symmetric eigendecomposition with vectors ~ 9 n^3 (Golub & Van Loan)
    # plus ~4 n^2 for double centering; computed from n, not counted.
    counters["decompose_flops"] += 9.0 * n ** 3 + 4.0 * n ** 2


def _tuning_counts(counters, args, result):
    counters["gcv_predictors"] += len(args[1])
    counters["gcv_skipped"] += sum(result.skipped_counts)
    counters["epsilon"] += result.epsilon


def _load_counts(counters, args, result):
    counters["load_bytes"] += os.path.getsize(args[0])


def _dump_counts(counters, args, result):
    counters["dump_bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "kernels.center_and_decompose": _decompose_counts,
    "tuning.select_epsilon": _tuning_counts,
    "dataio.load_csv": _load_counts,
    "dataio.json_dumps": _dump_counts,
}


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the op in progress."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or None, op id]
        self.counters = collections.Counter()
        self.op = None
        self._stack = []

    def wrap(self, layer, fn, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, ks):
        """Rebind every target in the imported package ``ks``; restore on exit."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = getattr(ks, module_name) if module_name else ks
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(layer, fn, HOOKS.get(layer)))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def unattributed(self, op_walls: dict) -> dict:
        """Per op id: wall time minus the self time of every span in the op."""
        covered = collections.defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            covered[span[4]] += self_s
        return {op: wall - covered[op] for op, wall in op_walls.items()}

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics, averaged per traced op, as name -> (value, unit)."""
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for span, st in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += st
        out = {}
        for layer, with_calls in TIMED_LAYERS:
            if with_calls:
                out[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
            out[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
        c = self.counters
        decompositions = calls["kernels.center_and_decompose"]
        tunings = calls["tuning.select_epsilon"]
        out["kernels.center_and_decompose.flops_computed"] = (c["decompose_flops"] / ops,
                                                              "flop/op")
        out["kernels.rank_kept_frac"] = (c["rank_kept_frac"] / max(decompositions, 1), "1")
        out["tuning.gcv_predictors"] = (c["gcv_predictors"] / max(tunings, 1), "count/call")
        out["tuning.gcv_skipped"] = (c["gcv_skipped"] / max(tunings, 1), "count/call")
        out["tuning.epsilon"] = (c["epsilon"] / max(tunings, 1), "1")
        out["dataio.load_csv.bytes"] = (c["load_bytes"] / ops, "B/op")
        out["dataio.json_dumps.bytes"] = (c["dump_bytes"] / ops, "B/op")
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
