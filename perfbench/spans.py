"""In-memory span tracer that wraps linkbomb's public functions from outside.

The traced run installs a wrapper around each layer function listed in
`TARGETS`, in every `linkbomb` module namespace that holds a reference to
it (so `attacks.compute_pagerank` and `cli.attack_magnitude` are traced as
well as the defining module's name). Each call records a span
(name, start, end, parent, op). Hooks read counts off arguments and
results at the same boundary. Nothing under `src/` is edited; a target
that no longer exists is reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "linkbomb"
JOINT = "disguise.optimal_disguised_joint"

# Exceptions a hook may meet when a later refactor changes a result's shape.
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class Tracer:
    """Spans and counters for one traced run. Single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.provided: set[str] = set()  # metric names some installed target can produce
        self.absent: list[str] = []  # "module.attr" targets that were not found
        self._stack: list[int] = []
        self._op = None
        self._seen: set = set()  # per-op identities for repeat and build detection
        self._keep: list = []  # holds per-op objects so their ids stay unique
        self._patches: list[tuple[object, str, object]] = []

    # ---- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._seen = set()
        self._keep = []

    def end_op(self) -> None:
        self._op = None
        self._seen = set()
        self._keep = []

    def seen_before(self, key, keep) -> bool:
        """True if `key` was already recorded in this op; records it otherwise."""
        if key in self._seen:
            return True
        self._seen.add(key)
        self._keep.append(keep)
        return False

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._stack]

    # ---- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    hook(tracer, name, fn, args, kwargs, result)
                except _SHAPE_ERRORS:
                    tracer.counts[f"{name}.hook_errors"] += 1
            return result

        return traced

    def install(self, targets) -> None:
        for t in targets:
            if self._install_one(t):
                self.provided.update(f"{t.span}.{s}" for s in ("calls", "self_s"))
                self.provided.update(t.stats)
            else:
                self.absent.append(f"{t.module}.{t.attr}")

    def _install_one(self, t: "Target") -> bool:
        try:
            module = importlib.import_module(f"{PACKAGE}.{t.module}")
        except ImportError:
            return False
        owner_name, _, attr = t.attr.rpartition(".")
        if owner_name:  # a method: patch the class attribute itself
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(t.span, raw.__func__, t.hook))
            elif callable(raw):
                new = self.wrap(t.span, raw, t.hook)
            else:
                return False
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return True
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        new = self.wrap(t.span, fn, t.hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, new)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results ---------------------------------------------------------

    def layer_totals(self, speed=None) -> dict[str, float]:
        """Per span name: `calls` and `self_s`, plus every hook counter.

        `speed[op]`, when given, scales the self time of each span in that
        op (to reference speed, see run.py).
        """
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[f"{span[0]}.calls"] += 1
            totals[f"{span[0]}.self_s"] += own * (speed[span[4]] if speed and span[4] is not None else 1.0)
        for key, value in self.counts.items():
            totals[key] += value
        return totals

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    `spans` holds (name, start, end, parent index, ...) rows; parent -1 is a
    root. Overlapping children are merged, and children are clipped to the
    parent interval, so the result is never negative.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---- hooks: counts read at the layer boundary ------------------------------------


def _solve_hook(tracer, name, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    (_, graph), *rest = bound.arguments.items()
    tracer.counts[f"{name}.iterations"] += result.iterations
    tracer.counts[f"{name}.solves"] += 1
    if tracer.seen_before(("solve", id(graph), repr(rest)), graph):
        tracer.counts[f"{name}.repeats"] += 1


def _absorbing_hook(tracer, name, fn, args, kwargs, result):
    tracer.counts[f"{name}.iterations"] += result[2]


def _build_hook(tracer, name, fn, args, kwargs, result):
    # A call that hands back an operator not yet seen in this op built it.
    if not tracer.seen_before(("operator", name, id(result)), result):
        tracer.counts[f"{name}.builds"] += 1


def _candidates_hook(tracer, name, fn, args, kwargs, result):
    if JOINT in tracer.open_names():
        tracer.counts[f"{JOINT}.candidates"] += len(result)


@dataclass(frozen=True)
class Target:
    span: str  # metric prefix, "<module>.<function>"
    module: str  # submodule of linkbomb
    attr: str  # function name, or "Class.method"
    hook: Callable | None = None
    stats: tuple[str, ...] = ()  # counter metrics the hook provides


TARGETS = (
    Target("generators.generate", "generators", "generate"),
    Target("graph.from_edges", "graph", "DirectedMultigraph.from_edges"),
    Target("graph.loads_edgelist", "graph", "loads_edgelist"),
    Target("graph.dumps_edgelist", "graph", "dumps_edgelist"),
    Target("graph.remove_out_edges", "graph", "DirectedMultigraph.remove_out_edges"),
    Target("graph.distances_to", "graph", "DirectedMultigraph.distances_to"),
    Target("graph.forward_matrix", "graph", "DirectedMultigraph.forward_matrix",
           _build_hook, ("graph.forward_matrix.builds",)),
    Target("graph.transition_matrix", "graph", "DirectedMultigraph.transition_matrix",
           _build_hook, ("graph.transition_matrix.builds",)),
    Target("pagerank.compute_pagerank", "pagerank", "compute_pagerank", _solve_hook,
           ("pagerank.compute_pagerank.iterations", "pagerank.compute_pagerank.repeat_frac")),
    Target("pagerank.rank_of", "pagerank", "rank_of"),
    Target("flow.absorbing", "flow", "_absorbing_values", _absorbing_hook,
           ("flow.absorbing.iterations",)),
    Target("flow.flow_fraction", "flow", "flow_fraction"),
    Target("attacks.apply_attack", "attacks", "apply_attack"),
    Target("attacks.attack_magnitude", "attacks", "attack_magnitude"),
    Target(JOINT, "disguise", "optimal_disguised_joint"),
    Target("disguise.candidate_set", "disguise", "candidate_set", _candidates_hook,
           (f"{JOINT}.candidates",)),
    Target("disguise.forward_values", "disguise", "forward_values"),
    Target("disguise.optimal_link_farm", "disguise", "optimal_link_farm"),
    Target("experiment.run_trial", "experiment", "run_trial"),
    Target("experiment.write_csv", "experiment", "write_trials_csv"),
    Target("experiment.write_csv", "experiment", "write_summary_csv"),
    Target("cli.main", "cli", "main"),
)


def per_op_metrics(totals: dict[str, float], names, ops: int) -> dict[str, float]:
    """Per-layer metric values for `names`, normalised per traced op.

    `repeat_frac` is the share of solves that repeated an earlier solve of
    the same graph object and configuration within the same op.
    """
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat == "repeat_frac":
            solves = totals.get(f"{span}.solves", 0.0)
            out[name] = totals.get(f"{span}.repeats", 0.0) / solves if solves else 0.0
        else:
            out[name] = totals.get(name, 0.0) / ops
    return out
