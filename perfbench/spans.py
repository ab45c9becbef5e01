"""Span tracing of the library from outside: wrappers, spans, self times.

The tracer replaces public functions in the namespaces where their callers
look them up (``degfair.training.model_forward``, ``degfair.cli.load_graph``,
the autodiff ops imported into ``degfair.layers`` / ``degfair.objective``,
and methods such as ``Tape.backward`` on their class), records one span per
call, and puts the originals back when uninstalled. No file under ``src/``
is edited. A name a refactor removed is recorded as absent, not an error.

A span is ``[name, layer, start, end, parent, attrs]``; ``parent`` is the
index of the enclosing span or -1. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from degfair import autodiff, cli, layers, objective, optim, training

# Ops reported one by one; every other autodiff op is summed into "other".
NAMED_OPS = (
    "film_modulate",
    "mask_blend",
    "affine",
    "masked_sq_norm",
    "sparse_matmul",
    "gather_rows",
    "segment_sum",
    "segment_softmax",
    "scale_rows",
    "matmul",
    "dropout",
)
OBJECTIVE_FUNCS = (
    "classification_loss",
    "fairness_loss",
    "debias_constraint",
    "film_constraint",
    "weight_regularizer",
    "total_loss",
    "group_gap_value",
    "cross_context_value",
    "modulation_value",
    "weight_norm_value",
)
FORWARD_FUNCS = ("model_forward", "base_forward")
# Direct children of a train() call that are set-up, not epoch work.
SETUP_FUNCS = {"build_operators", "local_contexts", "load_graph"}

BACKWARD_NOTE = (
    "autodiff.backward_ms is one span per Tape.backward call: the per-op split "
    "of backward cannot be reached from outside, because the vector-Jacobian "
    "products are closures recorded on the tape"
)


def _tape_ops(args, result):
    return {"tape_ops": len(args[0])}


def _ctx_size(args, result):
    """Nonzeros and bytes of the context-mean operator, from array sizes."""
    ctx = getattr(result, "ctx_mean", None)
    mats = [getattr(ctx, side, None) for side in ("fwd", "bwd")]
    if any(m is None or not hasattr(m, "indptr") for m in mats):
        return None
    return {
        "ctx_nnz": mats[0].nnz,
        "ctx_bytes": sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in mats),
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []

    def target(self, owner, attr: str, layer: str, name: str | None = None, attrs=None) -> None:
        """Register ``owner.attr`` for wrapping (absent names are noted)."""
        if not callable(getattr(owner, attr, None)):
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        self._targets.append((owner, attr, layer, name or attr, attrs))

    def wrap(self, fn, name: str, layer: str, attrs=None):
        """``fn`` recording one span per call; also for calls the benchmark
        makes itself."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        for owner, attr, layer, name, attrs in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, layer, attrs))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "layer", "start", "end", "parent", "attrs"],
                 "absent": self.absent, "note": BACKWARD_NOTE, "spans": self.spans},
                fh,
            )


def library_tracer() -> Tracer:
    """A tracer over every layer boundary the per-layer metrics need."""
    t = Tracer()
    for name in FORWARD_FUNCS:
        t.target(training, name, "layers")
    for name in OBJECTIVE_FUNCS:
        t.target(training, name, "objective")
    t.target(training, "build_operators", "layers", attrs=_ctx_size)
    t.target(layers, "local_contexts", "graphs")
    t.target(autodiff.Tape, "backward", "autodiff", name="Tape.backward", attrs=_tape_ops)
    t.target(optim.Adam, "step", "optim", name="Adam.step")
    for owner, attr, layer in (
        (cli, "load_model", "training"),
        (cli, "load_graph", "graphs"),
        (cli, "generalized_degree", "graphs"),
        (cli, "predict", "training"),
        (cli, "build_report", "metrics"),
    ):
        t.target(owner, attr, layer)
    # Autodiff ops, wherever the layer and objective code looks them up.
    ops = {
        n for n in autodiff.__all__
        if n[0].islower() and n not in ("as_tensor", "fd_check")
    }
    for name in NAMED_OPS:
        if name not in ops:
            t.absent.append(f"degfair.autodiff.{name}")
    for module in (layers, objective, training):
        for name in sorted(ops):
            if getattr(module, name, None) is getattr(autodiff, name):
                t.target(module, name, "autodiff", name=f"op.{name}")
    return t


def _self_times(spans: list[list]) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def per_layer_metrics(
    spans: list[list], units: int, jobs: int, epoch_seconds: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced jobs.

    ``units`` is the number of epochs (training) or commands (eval) the
    per-epoch figures are divided by; ``jobs`` the number of train() calls
    or commands the set-up figures are divided by; ``epoch_seconds`` the
    summed ``TrainHistory.epoch_seconds`` of the traced train() calls.
    """
    own = _self_times(spans)
    dur: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    tape_ops = backwards = 0
    ctx = {"ctx_nnz": 0, "ctx_bytes": 0}
    in_epochs = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        dur[name] = dur.get(name, 0.0) + (s[3] - s[2])
        self_t[name] = self_t.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        attrs = s[5] or {}
        if "tape_ops" in attrs:
            tape_ops += attrs["tape_ops"]
            backwards += 1
        if "ctx_nnz" in attrs:
            ctx = attrs
        if s[4] >= 0 and spans[s[4]][0] == "train" and name not in SETUP_FUNCS:
            in_epochs += s[3] - s[2]

    u = max(units, 1)
    j = max(jobs, 1)

    def total(table, names):
        return sum(table.get(n, 0.0) for n in names)

    out = {
        "layers.forward_ms": (total(self_t, FORWARD_FUNCS) / u * 1e3, "ms"),
        "layers.forward_incl_ms": (total(dur, FORWARD_FUNCS) / u * 1e3, "ms"),
        "objective.loss_ms": (total(self_t, OBJECTIVE_FUNCS) / u * 1e3, "ms"),
        "objective.loss_incl_ms": (total(dur, OBJECTIVE_FUNCS) / u * 1e3, "ms"),
        "autodiff.backward_ms": (dur.get("Tape.backward", 0.0) / u * 1e3, "ms"),
        "autodiff.tape_ops": (tape_ops / max(backwards, 1), "count"),
        "optim.step_ms": (dur.get("Adam.step", 0.0) / u * 1e3, "ms"),
        # An epoch's self time: its wall time minus the layer spans in it,
        # i.e. the per-epoch eval plus accuracy bookkeeping.
        "training.eval_ms": (max(epoch_seconds - in_epochs, 0.0) / u * 1e3, "ms"),
    }
    other_ms = other_calls = 0.0
    for name in dur:
        if name.startswith("op.") and name[3:] not in NAMED_OPS:
            other_ms += dur[name]
            other_calls += calls[name]
    for op in NAMED_OPS:
        out[f"autodiff.fwd.{op}_ms"] = (dur.get(f"op.{op}", 0.0) / u * 1e3, "ms")
        out[f"autodiff.fwd.{op}_calls"] = (calls.get(f"op.{op}", 0) / u, "count")
    out["autodiff.fwd.other_ms"] = (other_ms / u * 1e3, "ms")
    out["autodiff.fwd.other_calls"] = (other_calls / u, "count")
    out.update({
        "graphs.load_graph_s": (dur.get("load_graph", 0.0) / j, "s"),
        "graphs.local_contexts_s": (dur.get("local_contexts", 0.0) / j, "s"),
        "layers.build_operators_s": (self_t.get("build_operators", 0.0) / j, "s"),
        "layers.ctx_nnz": (float(ctx["ctx_nnz"]), "count"),
        "layers.ctx_bytes": (float(ctx["ctx_bytes"]), "B"),
        "training.predict_s": (self_t.get("predict", 0.0) / j, "s"),
        "training.load_model_ms": (dur.get("load_model", 0.0) / j * 1e3, "ms"),
        "metrics.build_report_ms": (dur.get("build_report", 0.0) / j * 1e3, "ms"),
        "graphs.generalized_degree_ms": (dur.get("generalized_degree", 0.0) / j * 1e3, "ms"),
        "cli.eval_self_ms": (self_t.get("cli.main", 0.0) / j * 1e3, "ms"),
    })
    return out
