"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions of the novabert layers with
wrappers that record one span per call: name, start, end, parent span, the
benchmark operation it ran in, the batch counter, and a few counts read from
the call's arguments or result (rows, bytes, FLOPs). Nothing under ``src/``
changes; ``uninstall`` puts the original functions back. Spans are kept in
memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so the children of
a span never overlap and the subtraction is exact. Tensor-op spans
(``tensor.gelu`` and so on) cover the forward op only; the backward closures
an op records run inside ``tensor.backward``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from novabert import checkpoint, data, embedfuse, kernels, tensor, train
from novabert.model import Model
from novabert.profiler import profile_cost

# (owner, attribute, span name). Model and Adam methods are patched on the
# class, module functions on the module, so calls made through the module
# attribute (``T.gelu``, ``kernels.softmax_rows``) are all seen.
WRAPPED = (
    (data, "make_masked_batch", "data.make_masked_batch"),
    (data, "make_eval_batch", "data.make_eval_batch"),
    (data, "leave_one_out_split", "data.leave_one_out_split"),
    (embedfuse, "embed_side_features", "embedfuse.embed_side_features"),
    (embedfuse, "integrated_embeddings", "embedfuse.integrated_embeddings"),
    (Model, "encode", "model.encode"),
    (Model, "nova_layer", "model.nova_layer"),
    (Model, "invasive_layer", "model.invasive_layer"),
    (Model, "decode_scores", "model.decode_scores"),
    (Model, "masked_loss", "model.masked_loss"),
    (tensor, "backward", "tensor.backward"),
    (tensor, "gelu", "tensor.gelu"),
    (tensor, "scaled_dot_attention", "tensor.scaled_dot_attention"),
    (tensor, "layer_norm", "tensor.layer_norm"),
    (tensor, "embedding_lookup", "tensor.embedding_lookup"),
    (tensor, "cross_entropy_masked", "tensor.cross_entropy_masked"),
    (kernels, "softmax_rows", "kernels.softmax_rows"),
    (kernels, "scatter_add_rows", "kernels.scatter_add_rows"),
    (kernels, "adam_update", "kernels.adam_update"),
    (train.Adam, "step", "train.Adam.step"),
    (train, "rank_all", "train.rank_all"),
    (train, "score_pairs", "train.score_pairs"),
    (train, "ranks_from_scores", "train.ranks_from_scores"),
    (train, "train", "train.train"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
)
SPAN_NAMES = tuple(name for _, _, name in WRAPPED)
# spans that belong to set-up; reported per set-up build, not per step
SETUP_SPANS = ("data.leave_one_out_split", "checkpoint.save_checkpoint",
               "checkpoint.load_checkpoint")

PER_LAYER_EXTRA = (
    ("data.pad_ratio", "ratio"),
    ("model.decode_useful_ratio", "ratio"),
    ("model.encode.gflops", "GFLOP/s"),
    ("model.decode_scores.gflops", "GFLOP/s"),
    ("kernels.softmax_rows.bytes", "B/step"),
    ("kernels.scatter_add_rows.bytes", "B/step"),
    ("kernels.adam_update.bytes", "B/step"),
    ("checkpoint.bytes", "B/build"),
    ("profiler.flops_per_seq", "FLOP"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
)


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order.

    A step is an optimizer step, or a batch of users on ref-eval; set-up
    spans are counted per set-up build."""
    out = []
    for name in SPAN_NAMES:
        per = "build" if name in SETUP_SPANS else "step"
        out += [(name + ".s", "s/" + per), (name + ".calls", "calls/" + per)]
    return out + list(PER_LAYER_EXTRA)


def _counts(name, args, result, flops):
    """Counts read from one call's arguments or result.

    flops(model) gives the profiler's per-sequence FLOP breakdown."""
    if name in ("data.make_masked_batch", "data.make_eval_batch"):
        items = result.items
        return {"pad": int((items == data.PAD).sum()),
                "slots": int(items.size)}
    if name == "model.encode":
        model, batch = args[0], args[1]
        b = flops(model)
        # a gather does no multiply-adds, so the profiler's one-hot charge
        # for the embedding lookups is left out of the achieved rate
        return {"flops": batch.items.shape[0]
                * (b["fusion"] + b["attention"] + b["ffn"])}
    if name == "model.decode_scores":
        model, hidden = args[0], args[1]
        rows = int(np.prod(hidden.shape[:-1]))
        per_row = flops(model)["decoder"] / model.config.max_len
        return {"decoded": rows, "flops": rows * per_row}
    if name == "model.masked_loss":
        return {"useful": int((np.asarray(args[2]) != 0).sum())}
    if name == "train.score_pairs":
        # evaluation keeps one decoded row per user, the appended mask
        return {"useful": len(args[1])}
    # kernel bytes: each input read once and each output written once
    if name == "kernels.softmax_rows":
        return {"bytes": 2 * args[0].nbytes}
    if name == "kernels.scatter_add_rows":
        out, idx, grad = args[0], args[1], args[2]
        return {"bytes": idx.nbytes + grad.nbytes
                + 2 * grad.shape[0] * out.shape[1] * out.itemsize}
    if name == "kernels.adam_update":
        p, g, m, v = args[0], args[1], args[2], args[3]
        return {"bytes": p.nbytes + g.nbytes + 2 * (p.nbytes + m.nbytes
                                                    + v.nbytes)}
    if name == "checkpoint.save_checkpoint":
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    """Records spans while installed. ``op`` names the benchmark operation
    the spans belong to: -1 for set-up builds, -2 for warm-up, 0.. for the
    timed operations."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, op, batch, counts]
        self.stack = []
        self.op = -1
        self.batch = 0
        self._saved = []
        self._costs = {}

    def _flops(self, model):
        key = (id(model.schema), model.catalog.m, repr(model.config))
        if key not in self._costs:
            self._costs[key] = profile_cost(model.config, model.schema,
                                            model.catalog.m).flops_breakdown
        return self._costs[key]

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        counted = name in ("data.make_masked_batch", "data.make_eval_batch")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.op, self.batch, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counted:
                self.batch += 1
            span[6] = _counts(name, args, result, self._flops)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)
        self._saved = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "batch", "counts"],
                       "spans": self.spans}, fh)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur - child

    def layer_metrics(self, units, builds, flops_per_seq, traced_s,
                      untraced_s):
        """Per-layer metrics over the traced timed operations.

        units: steps (or batches) those operations ran, the divisor of the
        per-step figures; builds: set-up builds, the divisor of set-up spans;
        traced_s / untraced_s: per-operation wall times with tracing on/off.
        """
        selfs = self.self_times()
        tot = {n: 0.0 for n in SPAN_NAMES}
        calls = {n: 0 for n in SPAN_NAMES}
        incl = {n: 0.0 for n in SPAN_NAMES}
        sums = {}
        top_level = 0.0
        for s, st in zip(self.spans, selfs):
            name, op = s[0], s[4]
            setup = name in SETUP_SPANS
            if (op != -1) if setup else (op < 0):
                continue
            tot[name] += st
            incl[name] += s[2] - s[1]
            calls[name] += 1
            if not setup and s[3] == -1:
                top_level += s[2] - s[1]
            for k, v in (s[6] or {}).items():
                sums[(name, k)] = sums.get((name, k), 0) + v
        out = {}
        for name in SPAN_NAMES:
            div = builds if name in SETUP_SPANS else units
            out[name + ".s"] = tot[name] / div
            out[name + ".calls"] = calls[name] / div

        def ratio(a, b):
            return a / b if b else 0.0

        pad = sum(sums.get((n, "pad"), 0) for n in
                  ("data.make_masked_batch", "data.make_eval_batch"))
        slots = sum(sums.get((n, "slots"), 0) for n in
                    ("data.make_masked_batch", "data.make_eval_batch"))
        useful = (sums.get(("model.masked_loss", "useful"), 0)
                  + sums.get(("train.score_pairs", "useful"), 0))
        out["data.pad_ratio"] = ratio(pad, slots)
        out["model.decode_useful_ratio"] = ratio(
            useful, sums.get(("model.decode_scores", "decoded"), 0))
        out["model.encode.gflops"] = ratio(
            sums.get(("model.encode", "flops"), 0), incl["model.encode"]) / 1e9
        out["model.decode_scores.gflops"] = ratio(
            sums.get(("model.decode_scores", "flops"), 0),
            incl["model.decode_scores"]) / 1e9
        for k in ("softmax_rows", "scatter_add_rows", "adam_update"):
            out[f"kernels.{k}.bytes"] = sums.get(
                (f"kernels.{k}", "bytes"), 0) / units
        out["checkpoint.bytes"] = sums.get(
            ("checkpoint.save_checkpoint", "bytes"), 0) / builds
        out["profiler.flops_per_seq"] = float(flops_per_seq)
        out["trace.overhead_ratio"] = ratio(float(np.median(traced_s)),
                                            float(np.median(untraced_s)))
        out["trace.coverage_ratio"] = ratio(top_level, float(sum(traced_s)))
        return out
