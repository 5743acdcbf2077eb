"""Per-layer tracing of svgnet from outside its source tree.

``Tracer.install()`` swaps public functions and methods of the svgnet
modules for timing wrappers; ``Tracer.uninstall()`` puts every original
back. The wrappers pass arguments and results through unchanged, so a
traced run computes exactly what an untraced one does.

Spans nest: a span's self time is its duration minus the time of the
spans opened inside it. Backward closures recorded on the gradient tape
are wrapped as well, so their time is charged to the tensor op and the
model module (scene encoder, history encoder, decoder) that recorded
them, and is subtracted from the tape's own backward self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from svgnet import checkpoint, dataset, metrics, model, tensor, train

TENSOR_OPS = ("add", "sub", "mul", "neg", "scale", "add_const", "mul_const", "relu",
              "tsum", "tmean", "reshape", "swapaxes", "concat", "take_index", "matmul",
              "linear", "softmax", "layer_norm", "embedding_lookup",
              "scaled_dot_product_attention")
MODULES = {"scene_encoder": model.SceneEncoder, "history_encoder": model.HistoryEncoder,
           "decoder": model.Decoder}


def slot_fill(batch) -> dict[str, tuple[float, int]]:
    """Real and total slot counts of a batch: {kind: (real, slots)}."""
    return {"path": (float(batch.path_mask.sum()), batch.path_mask.size),
            "command": (float(batch.command_mask.sum()), batch.command_mask.size),
            "agent": (float(batch.agent_mask.sum()), batch.agent_mask.size)}


def batch_bytes(batch) -> int:
    return sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))


def retained_bytes(tape) -> int:
    """Bytes of the distinct buffers a tape keeps alive, parameters excluded."""
    buffers: dict[int, int] = {}
    tensors = list(tape._retained)
    for node in tape._nodes:
        tensors.extend(p for p in node.parents if not isinstance(p, tensor.Parameter))
    for t in tensors:
        arr = t.data
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    return sum(buffers.values())


class Tracer:
    """Spans and counters collected while the svgnet wrappers are installed."""

    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False
        self._stack: list[list] = []      # open spans: [name, seconds of child spans]
        self._modules: list[str] = []     # model modules currently executing
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> tuple[list, float]:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame: list, t0: float) -> float:
        dt = time.perf_counter() - t0
        self._stack.pop()
        name = frame[0]
        self.total_s[name] += dt
        self.self_s[name] += dt - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    def timed(self, name: str, fn):
        """Wrap fn so that each call is a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame, t0 = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0)
        return wrapper

    # -- specialised wrappers ------------------------------------------------

    def _matmul(self, fn):
        timed = self.timed("tensor.matmul", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = timed(a, b)
            if not tracer.paused:
                tracer.counts["matmul.flop"] += 2.0 * out.data.size * np.shape(a)[-1]
            return out
        return wrapper

    def _module(self, scope: str, fn):
        timed = self.timed(f"model.{scope}", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._modules.append(scope)
            try:
                return timed(*args, **kwargs)
            finally:
                tracer._modules.pop()
        return wrapper

    def _forward(self, fn):
        train_fwd = self.timed("train.forward", fn)
        other_fwd = self.timed("model.forward", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            under_tape = tensor.GradientTape.current() is not None
            return (train_fwd if under_tape else other_fwd)(*args, **kwargs)
        return wrapper

    def _fusion_mask(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mask = fn(*args, **kwargs)
            if not tracer.paused:
                tracer.counts["fusion.real"] += float(mask.sum())
                tracer.counts["fusion.slots"] += mask.size
                tracer.counts["fusion.samples"] += mask.shape[0]
            return mask
        return wrapper

    def _record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, out, parents, backward):
            if not tracer.paused:
                top = tracer._stack[-1][0] if tracer._stack else ""
                op = top if top.startswith("tensor.") else "tensor.other"
                module = tracer._modules[-1] if tracer._modules else None
                flop = 0.0
                if op == "tensor.matmul":
                    flop = 4.0 * out.data.size * parents[0].shape[-1]
                backward = tracer._timed_backward(op, module, flop, backward)
                tracer.counts["tape.nodes"] += 1
            return fn(tape, out, parents, backward)
        return wrapper

    def _timed_backward(self, op: str, module: str | None, flop: float, backward):
        tracer = self
        name = op + ".bwd"

        def timed_backward(g):
            frame, t0 = tracer._enter(name)
            try:
                return backward(g)
            finally:
                dt = tracer._exit(frame, t0)
                tracer.counts["matmul.flop"] += flop
                if module is not None:
                    tracer.counts[f"model.{module}.bwd_s"] += dt
        return timed_backward

    def _backward(self, fn):
        timed = self.timed("tensor.tape.backward", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, loss):
            if not tracer.paused:
                tracer.counts["tape.retained_bytes"] += retained_bytes(tape)
            return timed(tape, loss)
        return wrapper

    def _make_batch(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(samples, n_paths, n_commands, n_agents):
            batch = fn(samples, n_paths, n_commands, n_agents)
            if not tracer.paused:
                c = tracer.counts
                c["batch.samples"] += len(batch)
                c["batch.bytes"] += batch_bytes(batch)
                for kind, (real, slots) in slot_fill(batch).items():
                    c[f"{kind}.real"] += real
                    c[f"{kind}.slots"] += slots
                c["paths.dropped"] += sum(max(len(s.scene_svg.paths) - n_paths, 0)
                                          for s in samples)
            return batch
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _generator(self, name: str, fn):
        """Charge the time spent producing each item of a generator to ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = tracer.timed(name, it.__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                if not tracer.paused:
                    tracer.counts[name + ".items"] += 1
                yield item
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._patch(tensor, op, self._matmul(fn) if op == "matmul"
                        else self.timed(f"tensor.{op}", fn))
        tape = tensor.GradientTape
        self._patch(tape, "record", self._record(tape.record))
        self._patch(tape, "backward", self._backward(tape.backward))
        for scope, cls in MODULES.items():
            self._patch(cls, "__call__", self._module(scope, cls.__call__))
        self._patch(model.SvgNet, "forward", self._forward(model.SvgNet.forward))
        self._patch(model.SvgNet, "fusion_mask", self._fusion_mask(model.SvgNet.fusion_mask))

        load = self._generator("dataset.load_dataset", dataset.load_dataset)
        normalize = self.timed("dataset.normalize_sample", dataset.normalize_sample)
        make = self._make_batch(self.timed("dataset.make_batch", dataset.make_batch))
        concat = self.timed("dataset.concat_batches", dataset.concat_batches)
        self._patch(dataset, "load_dataset", load)
        self._patch(dataset, "normalize_sample", normalize)
        self._patch(dataset, "make_batch", make)
        self._patch(dataset, "concat_batches", concat)
        self._patch(dataset, "encode_command",
                    self._counted("svg.encode_command", dataset.encode_command))
        self._patch(dataset, "split_path", self.timed("svg.split_path", dataset.split_path))
        # train and metrics hold their own references to the dataset functions
        self._patch(train, "normalize_sample", normalize)
        self._patch(train, "make_batch", make)
        self._patch(train, "concat_batches", self.timed("train.batch_wait", concat))
        self._patch(metrics, "normalize_sample", self.timed("metrics.evaluate.encode", normalize))
        self._patch(metrics, "make_batch", self.timed("metrics.evaluate.encode", make))
        self._patch(metrics, "concat_batches", concat)
        self._patch(metrics, "evaluate", self.timed("metrics.evaluate", metrics.evaluate))

        self._patch(train.AdamW, "step", self.timed("train.adamw_step", train.AdamW.step))
        save = self.timed("checkpoint.save_checkpoint", checkpoint.save_checkpoint)
        self._patch(checkpoint, "save_checkpoint", save)
        self._patch(checkpoint, "load_checkpoint",
                    self.timed("checkpoint.load_checkpoint", checkpoint.load_checkpoint))
        self._patch(train, "save_checkpoint", save)
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def predictor(self, fn):
        """Wrap a predict function handed to ``metrics.evaluate``."""
        return self.timed("metrics.evaluate.predict", fn)

    # -- per-layer metrics ---------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as {name: (value, unit)}; 0 where a layer never ran.

        Model, tensor and train times are per step, where a step is one
        SvgNet.forward call (a train step, a predict call or an eval batch)
        or, for train.*, one optimizer step.
        """
        tot, own, calls, c = self.total_s, self.self_s, self.calls, self.counts

        def per(value: float, base: float) -> float:
            return value / base if base else 0.0

        steps = calls["train.forward"] + calls["model.forward"]
        train_steps = calls["train.adamw_step"]
        batched = c["batch.samples"]
        out = {
            "dataset.load_dataset.ms_per_scene":
                (1e3 * per(tot["dataset.load_dataset"], c["dataset.load_dataset.items"]), "ms"),
            "dataset.normalize_sample.ms_per_scene":
                (1e3 * per(tot["dataset.normalize_sample"], calls["dataset.normalize_sample"]),
                 "ms"),
            "dataset.make_batch.ms_per_scene": (1e3 * per(tot["dataset.make_batch"], batched), "ms"),
            "dataset.concat_batches.ms_per_batch":
                (1e3 * per(tot["dataset.concat_batches"], calls["dataset.concat_batches"]), "ms"),
            "svg.encode_command.calls": (per(c["svg.encode_command"], batched), "count/scene"),
            "svg.split_path.s": (per(tot["svg.split_path"], calls["dataset.normalize_sample"]),
                                 "s/scene"),
            "dataset.batch_bytes_per_sample": (per(c["batch.bytes"], batched), "B"),
        }
        for kind in ("path", "command", "agent"):
            out[f"dataset.{kind}_slot_fill"] = (per(c[f"{kind}.real"], c[f"{kind}.slots"]),
                                                "ratio")
            out[f"dataset.{kind}_slots"] = (per(c[f"{kind}.slots"], batched), "count/scene")
        out["dataset.paths_dropped"] = (per(c["paths.dropped"], batched), "count/scene")
        out["model.fusion_slot_fill"] = (per(c["fusion.real"], c["fusion.slots"]), "ratio")
        out["model.fusion_slots"] = (per(c["fusion.slots"], c["fusion.samples"]), "count/scene")
        for scope in MODULES:
            out[f"model.{scope}.fwd_s"] = (per(tot[f"model.{scope}"], steps), "s")
            out[f"model.{scope}.bwd_s"] = (per(c[f"model.{scope}.bwd_s"], steps), "s")
        out.update({
            "tensor.tape.backward_s": (per(own["tensor.tape.backward"], steps), "s"),
            "tensor.tape.nodes": (per(c["tape.nodes"], steps), "count"),
            "tensor.tape.retained_mb":
                (per(c["tape.retained_bytes"], calls["tensor.tape.backward"]) / 1e6, "MB"),
            "tensor.matmul.fwd_s": (per(own["tensor.matmul"], steps), "s"),
            "tensor.matmul.bwd_s": (per(own["tensor.matmul.bwd"], steps), "s"),
            "tensor.matmul.gflop": (per(c["matmul.flop"], steps) / 1e9, "GFLOP"),
            "tensor.embedding_lookup.fwd_s": (per(own["tensor.embedding_lookup"], steps), "s"),
            "tensor.embedding_lookup.bwd_s":
                (per(own["tensor.embedding_lookup.bwd"], steps), "s"),
            "tensor.scaled_dot_product_attention.fwd_s":
                (per(own["tensor.scaled_dot_product_attention"], steps), "s"),
            "train.batch_wait_s": (per(tot["train.batch_wait"], train_steps), "s"),
            "train.forward_s": (per(tot["train.forward"], train_steps), "s"),
            "train.backward_s": (per(tot["tensor.tape.backward"], train_steps), "s"),
            "train.adamw_step_s": (per(tot["train.adamw_step"], train_steps), "s"),
            "metrics.evaluate.encode_s":
                (per(tot["metrics.evaluate.encode"], calls["metrics.evaluate"]), "s"),
            "metrics.evaluate.predict_s":
                (per(tot["metrics.evaluate.predict"], calls["metrics.evaluate"]), "s"),
            "checkpoint.load_checkpoint.s":
                (per(tot["checkpoint.load_checkpoint"], calls["checkpoint.load_checkpoint"]), "s"),
            "checkpoint.save_checkpoint.s":
                (per(tot["checkpoint.save_checkpoint"], calls["checkpoint.save_checkpoint"]), "s"),
        })
        return out
