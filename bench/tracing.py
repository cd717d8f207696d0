"""Outside-in tracing of hrdiag for the benchmark's traced run.

The tracer times calls into each module's public functions without
touching the package: it replaces a name in the *calling* module's
namespace (for example ``hrdiag.training.backprop_gradients``) by a
wrapper that records a span and calls the original.  Spans are kept in
memory as flat arrays (name, start, end, parent span, operation) and
written out when the run ends.  Self time is a span's duration minus
the durations of its direct children; calls are single-threaded and
nested, so children never overlap.

Span names are ``<defining module>.<function>``, so the first dotted
part is the layer (a package module).
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import hrdiag.cli
import hrdiag.model_io
import hrdiag.network
import hrdiag.sweep
import hrdiag.training
from hrdiag.activations import Activation

# (namespace the call is looked up in, attribute, span name).  A function
# called from several modules is wrapped in each caller's namespace under
# one span name.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (hrdiag.cli, "main", "cli.main"),
    (hrdiag.cli, "build_parser", "cli.build_parser"),
    (hrdiag.cli, "cmd_train", "cli.cmd_train"),
    (hrdiag.cli, "cmd_sweep", "cli.cmd_sweep"),
    (hrdiag.cli, "cmd_predict", "cli.cmd_predict"),
    (hrdiag.cli, "load_csv", "data.load_csv"),
    (hrdiag.cli, "load_embedded", "data.load_embedded"),
    (hrdiag.cli, "load_questionnaire_csv", "data.load_questionnaire_csv"),
    (hrdiag.cli, "aggregate_questionnaire", "data.aggregate_questionnaire"),
    (hrdiag.cli, "assign_surrogate_targets", "data.assign_surrogate_targets"),
    (hrdiag.cli, "normalize", "data.normalize"),
    (hrdiag.cli, "as_training_batch", "data.as_training_batch"),
    (hrdiag.cli, "init_network", "network.init_network"),
    (hrdiag.cli, "train", "training.train"),
    (hrdiag.cli, "evaluate", "training.evaluate"),
    (hrdiag.cli, "load_model", "model_io.load_model"),
    (hrdiag.cli, "model_from_training", "model_io.model_from_training"),
    (hrdiag.cli, "save_model", "model_io.save_model"),
    (hrdiag.cli, "diagnose", "model_io.diagnose"),
    (hrdiag.cli, "run_sweep", "sweep.run_sweep"),
    (hrdiag.cli, "render_table", "sweep.render_table"),
    (hrdiag.cli, "render_csv", "sweep.render_csv"),
    (hrdiag.sweep, "as_training_batch", "data.as_training_batch"),
    (hrdiag.sweep, "init_network", "network.init_network"),
    (hrdiag.sweep, "train", "training.train"),
    (hrdiag.sweep, "evaluate", "training.evaluate"),
    (hrdiag.training, "train_epoch", "training.train_epoch"),
    (hrdiag.training, "evaluate", "training.evaluate"),
    (hrdiag.training, "backprop_gradients", "network.backprop_gradients"),
    (hrdiag.training, "as_batch_arrays", "network.as_batch_arrays"),
    (hrdiag.training, "zero_gradients", "network.zero_gradients"),
    (hrdiag.training, "Network", "network.Network"),
    (hrdiag.network, "as_batch_arrays", "network.as_batch_arrays"),
    (hrdiag.network, "Network", "network.Network"),
    (hrdiag.model_io, "Network", "network.Network"),
    (hrdiag.model_io, "forward", "network.forward"),
    (Activation, "apply", "activations.apply"),
    (Activation, "deriv_from_output", "activations.deriv_from_output"),
)


def _layer_sizes(config) -> list[tuple[int, int]]:
    return list(zip(config.fan_ins(), [spec.neurons for spec in config.layers]))


def flops_per_epoch(config, rows: int) -> int:
    """Computed arithmetic of one training epoch, from the shapes alone.

    An epoch runs the forward pass twice (gradient and re-scoring) and the
    backward pass once.  Forward per layer: 2*rows*in*out for the matrix
    product plus rows*out for the bias.  Backward per layer: 2*rows*out*in
    for the weight gradient, rows*out for the bias gradient and, below the
    output layer, 2*rows*out*in for the delta hand-back.  Transfer
    functions and the update are left out.
    """
    sizes = _layer_sizes(config)
    forward = sum(2 * rows * i * o + rows * o for i, o in sizes)
    backward = sum(2 * rows * o * i + rows * o for i, o in sizes)
    backward += sum(2 * rows * o * i for i, o in sizes[1:])
    return 2 * forward + backward


def bytes_per_epoch(config, rows: int) -> int:
    """Computed float64 traffic of one epoch: each pass reads every layer's
    input activations and writes its outputs (rows * (in + out) values),
    for two forward passes and one backward pass."""
    per_pass = sum(rows * (i + o) for i, o in _layer_sizes(config))
    return 8 * 3 * per_pass


class Tracer:
    """In-memory span recorder that installs itself over ``TARGETS``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.op = array("l")
        self._stack = [-1]
        self._op = [0]
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _on_train(self, args, result) -> None:
        net, batch = args[0], args[1]
        trace = result[1]
        epochs = len(trace.records)
        self.count("training.epochs", epochs)
        self.count("training.accepted", sum(r.accepted for r in trace.records))
        self.count("network.flops", epochs * flops_per_epoch(net.config, len(batch)))
        self.count("network.bytes", epochs * bytes_per_epoch(net.config, len(batch)))

    def _wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, current_op, clock = self._stack, self._op, time.perf_counter
        hook = self._on_train if span_name == "training.train" else None

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            op.append(current_op[0])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self, op_id: int) -> None:
        """Wrap every target; spans recorded until ``uninstall`` carry ``op_id``."""
        self._op[0] = op_id
        for namespace, attr, span_name in TARGETS:
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def dump(self, path: Path) -> None:
        """Write the spans as an .npz of flat columns plus the name table."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self, traced_ops: int) -> dict[str, float]:
        """Per-operation totals: ``<span>.calls``, ``<span>.s`` (busy time,
        nested same-name calls counted once), ``<span>.self_s`` and
        ``<layer>.self_s``, plus the train-boundary counters.  Spans that
        never ran are left out."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(has_parent, a["name"][np.where(has_parent, a["parent"], 0)], -1)
        outermost = parent_name != a["name"]
        calls = np.bincount(a["name"], minlength=n_names)
        busy = np.bincount(a["name"][outermost], weights=dur[outermost], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)

        out: dict[str, float] = {}
        for i, span_name in enumerate(self.names):
            if not calls[i]:
                continue
            out[f"{span_name}.calls"] = float(calls[i]) / traced_ops
            out[f"{span_name}.s"] = float(busy[i]) / traced_ops
            out[f"{span_name}.self_s"] = float(self_s[i]) / traced_ops
            layer = span_name.split(".", 1)[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + float(self_s[i]) / traced_ops
        for key, value in self.counters.items():
            out[key] = value / traced_ops
        return out
