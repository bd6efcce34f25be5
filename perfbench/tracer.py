"""Spans and counters recorded from outside the program.

The tracer wraps the public functions listed in ``TARGETS`` in every
``affinewalks`` module namespace that binds them (``chain``, ``harness`` and
``acceptance`` import by name), and the ``FastBarredKernel`` methods on the
class.  Each call becomes a span ``(name, start, end, parent)`` kept in
memory; the worker writes them out when the pass ends.  The three hottest
exact-layer helpers are counted only, because a span per call would cost
more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys

# (module, attribute, span name); "Class.method" attributes are wrapped on
# the class.  The sampler is split by its ``conditioned`` argument.
TARGETS = [
    ("highestweight", "character_series_oracle", "highestweight.character_series_oracle"),
    ("highestweight", "freudenthal_table", "highestweight.freudenthal_table"),
    ("highestweight", "tensor_power_table", "highestweight.tensor_power_table"),
    ("highestweight", "branching_mult", "highestweight.branching_mult"),
    ("highestweight", "decompose_product", "highestweight.decompose_product"),
    ("characters", "eval_character", "characters.eval_character"),
    ("characters", "denominator_residual", "characters.denominator_residual"),
    ("chain", "q_omega_row", "chain.q_omega_row"),
    ("chain", "pbar_power", "chain.pbar_power"),
    ("chain", "reflection_discrete_residual", "chain.reflection_discrete_residual"),
    ("chain", "FastBarredKernel.__init__", "chain.FastBarredKernel.init"),
    ("chain", "FastBarredKernel.sample", "chain.FastBarredKernel.sample"),
    ("chain", "FastBarredKernel.row", "chain.FastBarredKernel.row"),
    ("layerseries", "increment_atoms", "layerseries.increment_atoms"),
    ("diffusion", "sample_path_batch", "diffusion.sample_path_batch"),
    ("diffusion", "reflected_density", "diffusion.reflected_density"),
    ("diffusion", "survival", "diffusion.survival"),
    ("harness", "scaling_walk_experiment", "harness.scaling_walk_experiment"),
    ("harness", "scaling_chain_experiment", "harness.scaling_chain_experiment"),
    ("harness", "ks_statistic", "harness.ks_statistic"),
]

COUNTED = [
    ("algebra", "inner_product", "algebra.inner_product"),
    ("algebra", "classify_weight", "algebra.classify_weight"),
    ("weyl", "apply", "weyl.apply"),
]

# Spans and counters each workload must reach at least once; the traced run
# fails loudly when one sees no calls on its workload.
REQUIRED_CALLS = {
    "exact-rows": [
        "highestweight.character_series_oracle", "highestweight.freudenthal_table",
        "highestweight.tensor_power_table", "highestweight.branching_mult",
        "highestweight.decompose_product", "characters.eval_character",
        "characters.denominator_residual", "chain.q_omega_row", "chain.pbar_power",
        "chain.reflection_discrete_residual", "algebra.inner_product",
        "algebra.classify_weight", "weyl.apply",
        "acceptance.check_01", "acceptance.check_02", "acceptance.check_03",
        "acceptance.check_04", "acceptance.check_05"],
    "walk-scaling": [
        "layerseries.increment_atoms", "harness.scaling_walk_experiment",
        "harness.ks_statistic"],
    "chain-scaling": [
        "layerseries.increment_atoms", "chain.FastBarredKernel.init",
        "chain.FastBarredKernel.sample", "chain.FastBarredKernel.row",
        "diffusion.sample_path_batch.conditioned",
        "harness.scaling_chain_experiment", "harness.ks_statistic"],
    "survival-exit": [
        "diffusion.sample_path_batch.free", "diffusion.reflected_density",
        "diffusion.survival", "acceptance.check_06", "acceptance.check_07",
        "acceptance.check_08", "acceptance.check_09"],
}

# per-layer metric -> (unit, span or counter it is computed from, summary key)
PER_LAYER = {}


def _metric(name, unit, source, kind):
    PER_LAYER[name] = (unit, source, kind)


for _fn in ("character_series_oracle", "freudenthal_table",
            "tensor_power_table", "branching_mult"):
    _metric(f"highestweight.{_fn}.s", "s", f"highestweight.{_fn}", "s")
    _metric(f"highestweight.{_fn}.calls", "count", f"highestweight.{_fn}", "calls")
_metric("highestweight.decompose_product.s", "s", "highestweight.decompose_product", "s")
_metric("characters.eval_character.s", "s", "characters.eval_character", "s")
_metric("characters.eval_character.calls", "count", "characters.eval_character", "calls")
_metric("characters.eval_character.depth_max", "depth", "characters.eval_character", "depth_max")
_metric("characters.denominator_residual.s", "s", "characters.denominator_residual", "s")
_metric("chain.q_omega_row.s", "s", "chain.q_omega_row", "s")
_metric("chain.q_omega_row.calls", "count", "chain.q_omega_row", "calls")
_metric("chain.pbar_power.s", "s", "chain.pbar_power", "s")
_metric("chain.pbar_power.calls", "count", "chain.pbar_power", "calls")
_metric("chain.reflection_discrete_residual.s", "s", "chain.reflection_discrete_residual", "s")
for _, _, _name in COUNTED:
    _metric(f"{_name}.calls", "count", _name, "calls")
_metric("layerseries.increment_atoms.s", "s", "layerseries.increment_atoms", "s")
_metric("layerseries.increment_atoms.calls", "count", "layerseries.increment_atoms", "calls")
_metric("layerseries.increment_atoms.grid", "points", "layerseries.increment_atoms", "grid_max")
_metric("chain.FastBarredKernel.init.s", "s", "chain.FastBarredKernel.init", "s")
_metric("chain.FastBarredKernel.sample.s", "s", "chain.FastBarredKernel.sample", "s")
_metric("chain.FastBarredKernel.row.calls", "count", "chain.FastBarredKernel.row", "calls")
_metric("diffusion.sample_path_batch.conditioned.s", "s",
        "diffusion.sample_path_batch.conditioned", "s")
_metric("diffusion.sample_path_batch.conditioned.aborted_fraction", "ratio",
        "diffusion.sample_path_batch.conditioned", "aborted_fraction")
_metric("diffusion.sample_path_batch.free.s", "s", "diffusion.sample_path_batch.free", "s")
_metric("diffusion.sample_path_batch.free.exit_fraction", "ratio",
        "diffusion.sample_path_batch.free", "exit_fraction")
for _fn in ("reflected_density", "survival"):
    _metric(f"diffusion.{_fn}.s", "s", f"diffusion.{_fn}", "s")
    _metric(f"diffusion.{_fn}.calls", "count", f"diffusion.{_fn}", "calls")
_metric("harness.scaling_walk_experiment.self_s", "s", "harness.scaling_walk_experiment", "self_s")
_metric("harness.scaling_chain_experiment.self_s", "s", "harness.scaling_chain_experiment", "self_s")
_metric("harness.ks_statistic.s", "s", "harness.ks_statistic", "s")
for _k in range(1, 10):
    _metric(f"acceptance.check_{_k:02d}.s", "s", f"acceptance.check_{_k:02d}", "s")


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent, nested]
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.facts: dict[str, dict] = {}

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        nested = self.active.get(name, 0) > 0
        self.spans.append([name, self.clock(), None, parent, nested])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        self.active[name] = self.active.get(name, 0) + 1
        return sid

    def _leave(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = self.clock()
        self.stack.pop()
        self.active[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._enter(name)
        try:
            yield
        finally:
            self._leave(sid)

    def fact(self, name: str, key: str, value) -> None:
        """Accumulate a per-function fact: sums for counts, max for depths."""
        bucket = self.facts.setdefault(name, {})
        if key.endswith("_max"):
            bucket[key] = max(bucket.get(key, value), value)
        else:
            bucket[key] = bucket.get(key, 0) + value

    def wrap(self, name, fn, on_result=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            sid = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(sid)
            if on_result is not None:
                on_result(span_name, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Replace every listed function in every ``affinewalks`` namespace
        that binds it; raise if a listed name no longer exists."""
        acceptance = importlib.import_module("affinewalks.acceptance")
        hooks = {
            "characters.eval_character": self._on_eval_character,
            "layerseries.increment_atoms": self._on_increment_atoms,
            "diffusion.sample_path_batch": self._on_sample_path_batch,
        }
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(f"affinewalks.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(module, attr)
            name_of = None
            if attr == "sample_path_batch":
                name_of = _sampler_name(orig)
            self._replace(orig, self.wrap(name, orig, hooks.get(name), name_of))
        for mod_name, attr, name in COUNTED:
            orig = getattr(importlib.import_module(f"affinewalks.{mod_name}"), attr)
            self._replace(orig, self.counter(name, orig))
        for number, _, fn in acceptance.CHECKS:
            if number <= 9:
                self._replace(fn, self.wrap(f"acceptance.check_{number:02d}", fn))

    @staticmethod
    def _replace(orig, wrapper) -> None:
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "affinewalks" and not mod_name.startswith("affinewalks."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no affinewalks namespace binds {orig.__qualname__}")

    # -- result hooks --------------------------------------------------------------

    def _on_eval_character(self, name, args, kwargs, result):
        self.fact(name, "depth_max", int(result.truncation_depth))

    def _on_increment_atoms(self, name, args, kwargs, result):
        self.fact(name, "grid_max", int(result.prob.shape[0]))

    def _on_sample_path_batch(self, name, args, kwargs, result):
        paths = int(result.aborted.size)
        self.fact(name, "paths", paths)
        self.fact(name, "aborted", int(result.aborted.sum()))
        t_max = float(result.times[-1])
        kept = ~result.aborted
        self.fact(name, "exited", int((result.exit_times[kept] <= t_max).sum()))

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function totals: calls, outermost time, self time, facts."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, (name, start, end, parent, nested) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if not nested:
                row["s"] += end - start
            row["self_s"] += (end - start) - child_time[sid]
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] = calls
        for name, facts in self.facts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(facts)
        return out

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "nested"],
                "spans": self.spans, "counts": self.counts, "facts": self.facts}


def _sampler_name(fn):
    sig = inspect.signature(fn)

    def name_of(args, kwargs):
        conditioned = sig.bind(*args, **kwargs).arguments["conditioned"]
        return ("diffusion.sample_path_batch.conditioned" if conditioned
                else "diffusion.sample_path_batch.free")

    return name_of


def per_layer_metrics(summary: dict) -> dict:
    """Every per-layer metric from a pass summary (zero where unused)."""
    out = {}
    for metric, (unit, source, kind) in PER_LAYER.items():
        row = summary.get(source, {})
        if kind == "aborted_fraction":
            value = row.get("aborted", 0) / max(row.get("paths", 0), 1)
        elif kind == "exit_fraction":
            kept = row.get("paths", 0) - row.get("aborted", 0)
            value = row.get("exited", 0) / max(kept, 1)
        else:
            value = row.get(kind, 0)
        out[metric] = (value, unit)
    return out


def repeatable_counts(summary: dict) -> dict:
    """The integers that must repeat exactly for one seed: call counts,
    depth_max, grid, sampled, aborted and exited paths."""
    keys = ("calls", "depth_max", "grid_max", "paths", "aborted", "exited")
    return {f"{name}.{key}": row[key] for name, row in sorted(summary.items())
            for key in keys if key in row}
