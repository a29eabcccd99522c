"""In-memory spans around the public functions of each aspcw module.

The tracer replaces module attributes with thin wrappers, in the defining
module and in every other loaded ``aspcw`` module that imported the same
function object (``aspcw.cli`` imports most solver entry points by name).
Arguments pass through unchanged, so a traced call takes the same solver path
as an untraced one.  While a wrapped function runs, its own name in its
defining module points back at the original, so self-recursion (for example
``serialize_expression``) adds neither spans nor stack frames per level.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Per-layer time metric -> (module, public function) pairs it covers.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "program.parse_s": (("aspcw.program", "parse_program"),),
    "expression.build_s": (("aspcw.expression", "trivial_expression"),
                           ("aspcw.expression", "heuristic_expression")),
    "expression.validate_s": (("aspcw.expression", "validate_against"),),
    "expression.text_s": (("aspcw.expression", "serialize_expression"),
                          ("aspcw.expression", "parse_expression")),
    "dp_answersets.decide_s": (("aspcw.dp_answersets", "has_answer_set_dp"),),
    "dp_answersets.trace_s": (("aspcw.dp_answersets", "dp_asp"),),
    "dp_classical.decide_s": (("aspcw.dp_classical", "has_model_dp"),
                              ("aspcw.dp_classical", "dp_classical")),
    "graphs.cyclerank_s": (("aspcw.graphs", "build_dependency_graph"),
                           ("aspcw.graphs", "symmetric_closure"),
                           ("aspcw.graphs", "is_cycle_rank_at_most"),
                           ("aspcw.graphs", "homogeneous_orientations")),
    "oracle.enumerate_s": (("aspcw.oracle", "enumerate_answer_sets"),
                           ("aspcw.oracle", "enumerate_models")),
    "generators.reference_s": (("aspcw.generators", "qbf_is_valid"),
                               ("aspcw.generators", "has_partitioned_clique")),
    "generators.gen_s": (("aspcw.generators", "gen_random_program"),
                         ("aspcw.generators", "gen_random_qbf"),
                         ("aspcw.generators", "reduce_qbf_to_asp"),
                         ("aspcw.generators", "gen_pclique"),
                         ("aspcw.generators", "reduce_pclique_to_asp")),
    "cli.self_s": (("aspcw.cli", "main"),),
}

# Layers whose work happens in set-up (reference answers, instance
# generation); every other layer is measured inside operations.
SETUP_LAYERS = ("oracle.enumerate_s", "generators.reference_s",
                "generators.gen_s")

# Functions whose return value is a k-expression handed on to a solver.
EXPRESSION_MAKERS = ("trivial_expression", "heuristic_expression",
                     "parse_expression")


class Tracer:
    """Records (name, start, end, parent, op) spans; one thread only."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int | None] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.expressions: dict[int, object] = {}
        self.orientations: dict[int, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(self.op)
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children run one after another, so their durations add up)."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[index]
        return out

    def layer_seconds(self, ops: set[int] | None) -> dict[str, float]:
        """Self time per layer over set-up spans (``ops`` None) or over
        the spans of the given operations."""
        layer_of = {f"{mod}.{fn}": layer
                    for layer, fns in LAYERS.items() for mod, fn in fns}
        totals = {layer: 0.0 for layer in LAYERS}
        for name, op, own in zip(self.names, self.ops, self.self_times()):
            layer = layer_of.get(name)
            if layer is None:
                continue
            if (op is None) if ops is None else (op in ops):
                totals[layer] += own
        return totals

    def to_json(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "ops": self.ops}

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            loaded = [m for name, m in sys.modules.items()
                      if name == "aspcw" or name.startswith("aspcw.")]
            for fns in LAYERS.values():
                for mod_name, fn_name in fns:
                    home = sys.modules[mod_name]
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(home, f"{mod_name}.{fn_name}", original)
                    self._patches += [
                        (module, attr, original, wrapper)
                        for module in loaded
                        for attr, value in vars(module).items()
                        if value is original]
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, home, name: str, original):
        fn_name = original.__name__
        keeps_expression = fn_name in EXPRESSION_MAKERS
        counts_orientations = fn_name == "homogeneous_orientations"

        if inspect.isgeneratorfunction(original):
            def gen_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    span = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    if counts_orientations and self.op is not None:
                        self.orientations[self.op] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            current = getattr(home, fn_name)
            setattr(home, fn_name, original)
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
                setattr(home, fn_name, current)
            if keeps_expression and self.op is not None:
                self.expressions[self.op] = result
            return result
        return wrapper
