"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` wraps public functions and ``forward`` methods of
querymix where their callers look them up (``loop.batch_hungarian_loss``,
not ``matching.batch_hungarian_loss``), so every call records a span with
its name, start, end, parent, thread and the benchmark unit (setup round,
train step or eval pass) it ran in. Before each backward pass it walks the
step's tape, counts nodes per op and wraps each node's ``backward_fn``;
collections are observed through ``gc.callbacks``. ``uninstall`` puts every
original back. Nothing under src/ is modified.
"""

from __future__ import annotations

import csv
import gc
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

from querymix import matching, model, nn, queries, scenes
from querymix import tensor as T
from querymix.harness import loop

# tape ops whose forward and backward time is reported per kind
OPS = ("matmul", "conv2d", "softmax", "layer_norm", "add", "transpose", "reshape",
       "linear_combination")

# (owner, attribute, span name); owners are where the callers look names up
PATCHES = [
    (loop, "training_loss", "loop.training_loss"),
    (loop, "evaluate_model", "loop.evaluate_model"),
    (loop, "extract_detections", "model.extract_detections"),
    (loop, "batch_hungarian_loss", "matching.batch_hungarian_loss"),
    (loop, "render", "scenes.render"),
    (loop, "average_precision", "scenes.average_precision"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "coeff_forward", "queries.coeff_forward"),
    (model, "modulate", "queries.modulate"),
    (model.Detector, "forward_train", "model.forward_train"),
    (model.Detector, "forward_infer", "model.forward_infer"),
    (matching, "build_cost_matrix", "matching.build_cost_matrix"),
    (matching, "hungarian", "matching.hungarian"),
    (nn, "multi_head_attention", "nn.multi_head_attention"),
    (nn, "clip_global_norm", "nn.clip_global_norm"),
    (nn.Backbone, "forward", "nn.Backbone"),
    (nn.Encoder, "forward", "nn.Encoder"),
    (nn.Adam, "step", "nn.Adam.step"),
    (scenes, "generate_dataset", "scenes.generate_dataset"),
    (scenes, "read_dataset", "scenes.read_dataset"),
    (queries, "linear_combination", "tensor.linear_combination.fwd"),
] + [(T, op, f"tensor.{op}.fwd") for op in OPS if op != "linear_combination"]

TIMED = ("step:", "pass:")  # unit prefixes of the measured loop


class Span(NamedTuple):
    id: int
    name: str
    start: float      # perf_counter seconds
    end: float
    cpu: float        # thread CPU seconds spent inside the span
    parent: int       # 0 for a root span
    thread: int
    unit: str         # "setup:0", "step:12", "pass:3", "check", ...


def _median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit = "setup:0"
        self.tape: dict[str, Counter] = defaultdict(Counter)
        self._ids = itertools.count(1)
        self._main: list[int] = []          # open spans of the main thread
        self._local = threading.local()
        self._saved: list = []
        self._pending_basic: list = []      # output nodes of basic decodes this step

    # ------------------------------------------------------------------
    # spans

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self):
        stack = self._stack()
        # a pool thread's first span is caused by the main thread's open span
        parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter(), time.thread_time()

    def _close(self, name, sid, parent, start, cpu) -> None:
        end, cpu_end = time.perf_counter(), time.thread_time()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, cpu_end - cpu, parent,
                               threading.get_ident(), self.unit))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            token = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, *token)
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # hooks that need more than a span

    def _decoder_forward(self, fn):
        branches = {b: self.wrap(f"nn.Decoder.{b}", fn) for b in ("main", "basic")}

        def forward(decoder, memory, queries_):
            return branches[getattr(self._local, "branch", "main")](decoder, memory, queries_)
        return forward

    def _decode(self, fn):
        """Detector._decode names the branch the Decoder span belongs to and
        hands back the basic branch's outputs for the useful-decode ratio."""
        def decode(detector, queries_, memory, branch):
            self._local.branch = "basic" if branch == "decoder_basic" else "main"
            try:
                sets = fn(detector, queries_, memory, branch)
            finally:
                self._local.branch = "main"
            if branch == "decoder_basic":
                self._pending_basic.append(
                    [t.node for d in sets for t in (d.boxes, d.logits) if t.node is not None])
            return sets
        return decode

    def _backward(self, fn):
        timed = self.wrap("tensor.backward", fn)

        def backward(loss, params=None):
            counts = self.tape[self.unit]
            nodes = T.GradientTape.from_output(loss).nodes
            reachable = {id(n) for n in nodes}
            counts["nodes"] += len(nodes)
            counts["bytes"] += sum(n.out.data.nbytes for n in nodes)
            for n in nodes:
                if n.op in OPS:
                    counts[n.op] += 1
                    n.backward_fn = self.wrap(f"tensor.{n.op}.bwd", n.backward_fn)
            for outs in self._pending_basic:
                counts["basic_run"] += 1
                counts["basic_useful"] += any(id(n) in reachable for n in outs)
            self._pending_basic.clear()
            return timed(loss, params)
        return backward

    def _average_precision(self, fn, points):
        """AP at IoU 0.5 counts true positives: _ap_all_points is called once
        per (class, threshold) in threshold order."""
        def ap_all_points(tp_flags, num_gt):
            call, at, n = self._local.ap
            self._local.ap = (call + 1, at, n)
            if call % n == at:
                self.tape[self.unit]["ap_tp"] += int(tp_flags.sum())
            return points(tp_flags, num_gt)

        def average_precision(preds, scenes_, iou_thresholds=scenes.DEFAULT_IOU_THRESHOLDS):
            thresholds = [round(float(t), 2) for t in iou_thresholds]
            self._local.ap = (0, thresholds.index(0.5) if 0.5 in thresholds else -1,
                              len(thresholds))
            return fn(preds, scenes_, iou_thresholds)
        return average_precision, ap_all_points

    def _gc(self, phase, info) -> None:
        if phase == "start":
            self._local.gc = self._open()
        elif hasattr(self._local, "gc"):
            self._close(f"gc.gen{info['generation']}", *self._local.gc)
            del self._local.gc

    # ------------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for owner, attr, name in PATCHES:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._patch(nn.Decoder, "forward", self._decoder_forward(nn.Decoder.forward))
        self._patch(model.Detector, "_decode", self._decode(model.Detector._decode))
        self._patch(T, "backward", self._backward(T.backward))
        ap, points = self._average_precision(loop.average_precision, scenes._ap_all_points)
        self._patch(loop, "average_precision", ap)
        self._patch(scenes, "_ap_all_points", points)
        gc.callbacks.append(self._gc)
        return self

    def uninstall(self) -> None:
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # reduction

    def _aggregate(self):
        """Per (name, unit) total and self milliseconds plus per-call
        durations; self time is a span's duration minus what its same-thread
        children cover."""
        thread_of = {s.id: s.thread for s in self.spans}
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent and thread_of.get(s.parent) == s.thread:
                child[s.parent] += s.end - s.start
        total: dict[tuple, float] = defaultdict(float)
        self_ms: dict[tuple, float] = defaultdict(float)
        calls: dict[str, list] = defaultdict(list)
        for s in self.spans:
            dur = (s.end - s.start) * 1e3
            total[s.name, s.unit] += dur
            self_ms[s.name, s.unit] += dur - child[s.id] * 1e3
            calls[s.name].append(dur)
        return total, self_ms, calls, thread_of

    def layer_metrics(self, eval_workers: int) -> dict[str, tuple[float, str]]:
        units = {s.unit for s in self.spans} | set(self.tape)
        timed = sorted(u for u in units if u.startswith(TIMED))
        setup = sorted(u for u in units if u.startswith("setup:"))
        total, self_ms, calls, thread_of = self._aggregate()

        def ms(name):
            """Median over timed units of the per-unit total; for a layer that
            only runs in set-up, the median over set-up rounds; for one that
            only runs in checks, the median per call."""
            for group in (timed, setup):
                if any((name, u) in total for u in group):
                    return _median_or_zero([total.get((name, u), 0.0) for u in group]), "ms"
            return _median_or_zero(calls.get(name, [])), "ms"

        def per_unit(key):
            return _median_or_zero([self.tape[u][key] for u in timed])

        out = {
            "loop.training_loss.ms": ms("loop.training_loss"),
            "loop.evaluate_model.ms": ms("loop.evaluate_model"),
            "loop.eval_worker.busy_share": (
                self._busy_share(timed, eval_workers, thread_of), "ratio"),
        }
        for name in ("forward_train", "forward_infer", "extract_detections",
                     "load_checkpoint", "save_checkpoint"):
            out[f"model.{name}.ms"] = ms(f"model.{name}")
        run = sum(self.tape[u]["basic_run"] for u in timed)
        useful = sum(self.tape[u]["basic_useful"] for u in timed)
        out["model.decoder_basic.useful_ratio"] = (useful / run if run else 1.0, "ratio")
        for name in ("Backbone", "Encoder", "Decoder.main", "Decoder.basic",
                     "multi_head_attention", "clip_global_norm", "Adam.step"):
            out[f"nn.{name}.ms"] = ms(f"nn.{name}")
        coeff, mod = ms("queries.coeff_forward"), ms("queries.modulate")
        infer = out["model.forward_infer.ms"][0]
        out["queries.coeff_forward.ms"] = coeff
        out["queries.modulate.ms"] = mod
        out["queries.infer_share"] = ((coeff[0] + mod[0]) / infer if infer else 0.0, "ratio")
        for name in ("batch_hungarian_loss", "build_cost_matrix", "hungarian"):
            out[f"matching.{name}.ms"] = ms(f"matching.{name}")
        solves = Counter(s.unit for s in self.spans if s.name == "matching.hungarian")
        out["matching.hungarian.calls"] = (_median_or_zero([solves[u] for u in timed]), "count")
        out["tensor.backward.ms"] = ms("tensor.backward")
        out["tensor.nodes"] = (per_unit("nodes"), "count")
        out["tensor.graph_mb"] = (per_unit("bytes") / 2**20, "MB")
        for op in OPS:
            for kind in ("fwd", "bwd"):
                values = [self_ms.get((f"tensor.{op}.{kind}", u), 0.0) for u in timed]
                out[f"tensor.{op}.{kind}_ms"] = (_median_or_zero(values), "ms")
            out[f"tensor.{op}.nodes"] = (per_unit(op), "count")
        in_timed = [s for s in self.spans if s.name.startswith("gc.gen") and s.unit in timed]
        steps = max(1, len(timed))
        out["gc.gen2.count"] = (sum(s.name == "gc.gen2" for s in in_timed) / steps, "count")
        out["gc.pause_ms"] = (sum(s.end - s.start for s in in_timed) * 1e3 / steps, "ms")
        for name in ("generate_dataset", "render", "read_dataset", "average_precision"):
            out[f"scenes.{name}.ms"] = ms(f"scenes.{name}")
        out["scenes.ap.true_positives"] = (per_unit("ap_tp"), "count")
        return out

    def _busy_share(self, timed: list[str], workers: int, thread_of: dict) -> float:
        """Per eval pass: CPU time the pool threads spend in chunk work, over
        workers x the wall window from their first start to their last end."""
        main = threading.main_thread().ident
        top = defaultdict(list)
        for s in self.spans:
            if s.thread != main and thread_of.get(s.parent) == main:
                top[s.unit].append(s)
        shares = []
        for unit in timed:
            if top[unit]:
                spans = top[unit]
                window = max(s.end for s in spans) - min(s.start for s in spans)
                shares.append(sum(s.cpu for s in spans) / (workers * window))
        return _median_or_zero(shares)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms) over the whole run."""
        total, self_ms, calls, _ = self._aggregate()
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, durations in calls.items():
            table[name][0] = len(durations)
        for (name, _), value in total.items():
            table[name][1] += value
        for (name, _), value in self_ms.items():
            table[name][2] += value
        return {k: tuple(v) for k, v in table.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            for s in self.spans:
                writer.writerow((s.id, s.name, f"{s.start:.9f}", f"{s.end:.9f}",
                                 f"{s.cpu:.9f}", s.parent, s.thread, s.unit))
