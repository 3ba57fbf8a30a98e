"""Spans and wasted-work counters recorded around calls into inflow.

The wrappers are installed from outside the package, by replacing module and
class attributes for the length of one training trial or forecast block, and
removed afterwards; no file of inflow is edited. Every span keeps its name,
start, end, parent span and the unit of work it belongs to: a set-up, an
update step, an evaluation or a forecast request.

A step's unit also owns the `stack_windows` calls that build its batches,
since those run in the training loop just before the step function is
called. The time of a unit is the summed duration of its root spans, so the
self times of all spans in a unit add up to exactly that time.

Every run, traced or not, also logs per unit the backward passes and the
parameter group of each optimizer step, so the workloads can check that each
step unit is one whole update. A target that inflow no longer has raises
`TargetMissing`: its figures would otherwise read 0 and pass as a gain.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from inflow import autodiff, baselines, cli, data, evaluation, flow, forecasters, nn, training
from inflow import pipeline as pipeline_mod

KINDS = ("setup", "step", "eval", "request")
_STEP = KINDS.index("step")

# the autodiff ops the workloads record
OPS = ("add", "sub", "mul", "div", "neg", "exp", "tanh", "relu", "power", "matmul",
       "mean_axis", "var_axis", "mean_all", "slice_axis", "concat", "reshape",
       "flip_axis", "swap_last_axes")

# Installed in every run, traced or not, because they delimit the units that
# the end-to-end metrics time: (owner, attribute, span name, unit role). Every
# function of `training` whose name ends in `_step` is an update step too; the
# workloads check that each step unit holds one whole update.
UNIT_TARGETS = (
    (training, "stack_windows", "training.stack_windows", "feeds_step"),
    (evaluation, "evaluate", "evaluation.evaluate", "eval"),
    (pipeline_mod.ForecastPipeline, "predict", None, "count_windows"),
)

# Installed only in traced trials: one span per call into a layer.
LAYER_TARGETS = (
    (cli, "prepare_windows", "cli.prepare_windows"),
    (cli, "build_pipeline", "cli.build_pipeline"),
    (data, "generate_synthetic", "data.generate"),
    (data, "zscore_fit_apply", "data.zscore"),
    (data, "make_windows", "data.make_windows"),
    (training, "_batch_loss", "training.forward"),
    (training, "_apply_update", "training.optimizer"),
    (pipeline_mod.ForecastPipeline, "predict", "pipeline.predict"),
    (flow.FlowStack, "forward", "flow.stack.forward"),
    (flow.FlowStack, "inverse", "flow.stack.inverse"),
    (flow.InstanceNormLayer, "forward", "flow.instance_norm.forward"),
    (flow.InstanceNormLayer, "inverse", "flow.instance_norm.inverse"),
    (flow.CouplingLayer, "forward", "flow.coupling.forward"),
    (flow.CouplingLayer, "inverse", "flow.coupling.inverse"),
    (flow.PermuteLayer, "forward", "flow.permute.forward"),
    (flow.PermuteLayer, "inverse", "flow.permute.inverse"),
    (baselines.RevInTransform, "forward", "baselines.revin.forward"),
    (baselines.RevInTransform, "inverse", "baselines.revin.inverse"),
    (nn.MLP, "__call__", "nn.mlp"),
    (forecasters.MLPForecaster, "forward", "forecasters.forward"),
)

# A function is replaced wherever one of these modules binds it, so a later
# `from .x import f` still reaches the wrapper.
_MODULES = (autodiff, baselines, cli, data, evaluation, flow, forecasters, nn, training,
            pipeline_mod)


class TargetMissing(RuntimeError):
    """inflow no longer has a function or method the benchmark wraps."""


def _step_functions() -> list[str]:
    names = [name for name, fn in vars(training).items()
             if name.endswith("_step") and callable(fn)
             and getattr(fn, "__module__", None) == training.__name__]
    if not names:
        raise TargetMissing("inflow.training has no update-step function (*_step)")
    return names


def _group(opt) -> str:
    """The parameter group an optimizer updates: the prefix of its parameter names."""
    return next(iter(opt.params)).split(".", 1)[0] if opt.params else "empty"


@dataclass
class _Backward:
    """One backward pass, waiting to learn which optimizers step after it.

    It keeps uids, not the tape, so the tape is freed when the program drops it.
    """

    unit: int
    edges: list                                  # per node: (input uids, output uid)
    tape_bytes: int
    visited: list = field(default_factory=list)  # (node index, [(input uid, grad size)])
    groups: list = field(default_factory=list)   # (group name, parameter uids)


class Tracer:
    """Records spans in memory; `installed(traced=True)` adds the layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_unit = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self.unit_kind: list[int] = []
        self.unit_windows: list[int] = []
        self.unit_traced: list[bool] = []
        # per unit, in order: "backward" for each backward pass, and the group
        # of each optimizer step
        self.unit_events: dict[int, list[str]] = {}
        self._stack: list[int] = []
        self._units: list[int] = []
        self._pending_step: int | None = None
        self._backwards: list[_Backward] = []
        self._restores: list = []
        self._traced = False
        # filled only while traced
        self.visited_nodes = {"theta": 0, "phi": 0, "joint": 0}
        self.useful_nodes = {"theta": 0, "phi": 0, "joint": 0}
        self.unit_tape_nodes: dict[int, int] = {}
        self.unit_tape_bytes: dict[int, int] = {}
        self.unit_idle_elems: dict[int, int] = {}

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _new_unit(self, kind: str, windows: int) -> int:
        self.unit_kind.append(KINDS.index(kind))
        self.unit_windows.append(windows)
        self.unit_traced.append(self._traced)
        return len(self.unit_kind) - 1

    def _log(self, event: str) -> None:
        self.unit_events.setdefault(self._units[-1] if self._units else -1, []).append(event)

    def _step_unit(self) -> int:
        if self._pending_step is None:
            self._pending_step = self._new_unit("step", 0)
        return self._pending_step

    def _open(self, nid: int, unit: int) -> int:
        idx = len(self._span_name)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_unit.append(unit)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self._span_end[idx] = time.perf_counter()
        self._span_start[idx] = t0
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = self._open(nid, self._units[-1] if self._units else -1)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
        return wrapper

    def _wrap_unit(self, fn, name: str | None, role: str):
        if role == "count_windows":  # windows a step carries, from its predict calls
            def counter(pipe, x, *args, **kwargs):
                if self._units and self.unit_kind[self._units[-1]] == _STEP:
                    self.unit_windows[self._units[-1]] += x.shape[0]
                return fn(pipe, x, *args, **kwargs)
            return counter
        span = self._wrap(fn, name)
        if role == "feeds_step":  # batches built in the loop belong to the next step
            def feeder(*args, **kwargs):
                if self._units:
                    return span(*args, **kwargs)
                self._units.append(self._step_unit())
                try:
                    return span(*args, **kwargs)
                finally:
                    self._units.pop()
            return feeder

        def wrapper(*args, **kwargs):
            in_step = bool(self._units) and self.unit_kind[self._units[-1]] == _STEP
            if role == "step" and in_step:  # a step helper called by a step
                return span(*args, **kwargs)
            if role == "step":
                unit = self._step_unit()
            else:
                unit = self._new_unit(role, len(args[1]))
            self._units.append(unit)
            try:
                return span(*args, **kwargs)
            finally:
                self._units.pop()
                if role == "step":
                    self._pending_step = None
                    self._score_backwards()
        return wrapper

    @contextlib.contextmanager
    def unit(self, kind: str, name: str, windows: int = 0):
        """A unit of work that the benchmark itself performs (set-up, request)."""
        unit = self._new_unit(kind, windows)
        self._units.append(unit)
        idx = self._open(self._name_id(name), unit)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)
            self._units.pop()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        original = vars(owner)[attr]
        self._restores.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, new)

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        """Wrap a method, or a function wherever the package binds it."""
        fn = vars(owner).get(attr)
        if fn is None:
            raise TargetMissing(f"{owner.__name__}.{attr} is gone; update perfbench/tracer.py")
        wrapper = make_wrapper(fn)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, name, wrapper)

    @contextlib.contextmanager
    def installed(self, traced: bool):
        """Wrap the unit boundaries, and with `traced` every layer and op too.

        Build pipelines inside this context: an MLP keeps the activation
        function it was built with.
        """
        self._traced = traced
        try:
            targets = UNIT_TARGETS + tuple(
                (training, name, "training.step", "step") for name in _step_functions())
            for owner, attr, name, role in targets:
                self._replace(owner, attr, lambda fn: self._wrap_unit(fn, name, role))
            if traced:
                self._install_layers()
            else:
                self._replace(autodiff.Tape, "backward", self._log_backward)
                self._replace(autodiff.Adam, "step", self._log_update)
            yield
        finally:
            self._score_backwards()
            for restore in reversed(self._restores):
                restore()
            self._restores.clear()
            self._pending_step = None
            self._traced = False

    def _install_layers(self) -> None:
        for owner, attr, name in LAYER_TARGETS:
            self._replace(owner, attr, lambda fn: self._wrap(fn, name))
        for op in OPS:
            self._replace(autodiff, op, lambda fn: self._wrap(fn, f"autodiff.{op}.fwd"))
        # an MLP looks its activation up in this table when it is built
        activations = getattr(nn, "_ACTIVATIONS", {})
        for key, fn in list(activations.items()):
            wrapped = vars(autodiff).get(getattr(fn, "__name__", ""))
            if wrapped is not None and wrapped is not fn:
                self._restores.append(lambda key=key, fn=fn: activations.__setitem__(key, fn))
                activations[key] = wrapped
        self._replace(autodiff.Tape, "backward", self._wrap_tape_backward)
        self._replace(autodiff.Adam, "step", self._wrap_adam_step)

    # -- backward and optimizer: per-node spans and wasted-work counters -----

    def _log_backward(self, original):
        def run(tape, loss):
            self._log("backward")
            return original(tape, loss)
        return run

    def _log_update(self, original):
        def step(opt, grads):
            self._log(_group(opt))
            return original(opt, grads)
        return step

    def _wrap_tape_backward(self, original):
        def run(tape, loss):
            self._log("backward")
            record = _Backward(
                self._units[-1] if self._units else -1,
                [(tuple(inp.uid for inp in node.inputs), node.output.uid) for node in tape.nodes],
                sum(node.output.data.nbytes for node in tape.nodes))
            for index, node in enumerate(tape.nodes):
                node.backward = self._wrap_node(node, index, record.visited)
            self._backwards.append(record)
            return original(tape, loss)
        return self._wrap(run, "autodiff.backward")

    def _wrap_node(self, node, index: int, visited: list):
        fn = node.backward
        inputs = node.inputs  # not the node itself: node -> wrapper -> node would be a cycle
        nid = self._name_id(f"autodiff.{node.op}.bwd")
        perf = time.perf_counter

        def node_backward(g):
            idx = self._open(nid, self._units[-1] if self._units else -1)
            t0 = perf()
            try:
                grads = fn(g)
            finally:
                self._close(idx, t0)
            visited.append((index, [(inp.uid, gi.size)
                                    for inp, gi in zip(inputs, grads) if gi is not None]))
            return grads
        return node_backward

    def _wrap_adam_step(self, original):
        span = self._wrap(original, "autodiff.adam")

        def step(opt, grads):
            self._log(_group(opt))
            if self._backwards and opt.params:
                self._backwards[-1].groups.append(
                    (_group(opt), {p.uid for p in opt.params.values()}))
            return span(opt, grads)
        return step

    def _score_backwards(self) -> None:
        """Score each backward pass against the groups whose optimizers used it.

        Runs after the step's spans have closed, so it adds to no unit's time.
        A visited node is useful when its output lies downstream of an updated
        parameter. A gradient is idle when the tensor it is taken for is not
        downstream of (or equal to) an updated parameter: it can only reach
        the frozen group.
        """
        records, self._backwards = self._backwards, []
        for record in records:
            unit = record.unit
            self.unit_tape_nodes[unit] = self.unit_tape_nodes.get(unit, 0) + len(record.edges)
            self.unit_tape_bytes[unit] = self.unit_tape_bytes.get(unit, 0) + record.tape_bytes
            if not record.groups:
                continue
            kind = "joint" if len(record.groups) > 1 else record.groups[0][0]
            marked = set().union(*(uids for _, uids in record.groups))
            for input_uids, output_uid in record.edges:
                if any(uid in marked for uid in input_uids):
                    marked.add(output_uid)
            self.visited_nodes[kind] += len(record.visited)
            self.useful_nodes[kind] += sum(
                1 for index, _ in record.visited if record.edges[index][1] in marked)
            self.unit_idle_elems[unit] = self.unit_idle_elems.get(unit, 0) + sum(
                size for _, outs in record.visited for uid, size in outs if uid not in marked)

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._span_parent, dtype=np.int64).copy(),
            "unit": np.frombuffer(self._span_unit, dtype=np.int64).copy(),
            "start": np.frombuffer(self._span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._span_end, dtype=np.float64).copy(),
            "unit_kind": np.asarray(self.unit_kind, dtype=np.int64),
            "unit_windows": np.asarray(self.unit_windows, dtype=np.int64),
            "unit_traced": np.asarray(self.unit_traced, dtype=bool),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), kinds=np.asarray(KINDS), **self.arrays())


def unit_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Wall seconds per unit: the summed duration of the unit's root spans."""
    dur = a["end"] - a["start"]
    parent_unit = np.where(a["parent"] >= 0, a["unit"][np.maximum(a["parent"], 0)], -2)
    roots = (a["unit"] >= 0) & (parent_unit != a["unit"])
    return np.bincount(a["unit"][roots], weights=dur[roots], minlength=len(a["unit_kind"]))


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Seconds per span, minus the time its child spans cover."""
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child
