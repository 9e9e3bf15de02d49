"""Spans around calls into the program, recorded from outside it.

``install`` rebinds each traced public function of ``imdp`` to a wrapper
that opens a span, calls the original and closes the span.  A function
imported by name into several modules is rebound in each of them, and a
traced method is rebound on its class, so every call site is covered
without a change to the program's files.  ``uninstall`` puts the
originals back.

Spans stay in memory as ``[name, start, end, self, parent, count]``;
``self`` is the span's duration minus that of its direct children and
``count`` a work count read off the call's arguments.
"""
from __future__ import annotations

import gzip
import json
import statistics
from time import perf_counter

from imdp import autodiff, cli, data, evaluation, latent, nets, privacy, train

MODULES = (autodiff, latent, privacy, nets, data, train, evaluation, cli)


def _nodes(graph, *_args, **_kw) -> int:
    return len(graph.nodes)


def _noise_draws(store, sigma, c_p, rng, names=None) -> int:
    if sigma <= 0.0:
        return 0
    return sum(store.grads[n].size for n in (store.names() if names is None else names))


# (module, function name, span name, work count); each name is looked up
# in every module of MODULES and rebound wherever it is the same object.
FUNCTIONS = (
    (autodiff, "forward", "autodiff.forward", _nodes),
    (autodiff, "backward", "autodiff.backward", None),
    (latent, "sample_codes", "latent.sample_codes", None),
    (privacy, "perturb_gradient", "privacy.perturb_gradient", _noise_draws),
    (privacy, "clip_weights", "privacy.clip_weights", None),
    (privacy, "accumulate", "privacy.accumulate", None),
    (privacy, "spent_epsilon", "privacy.spent_epsilon", None),
    (nets, "generate", "nets.generate", None),
    (nets, "q_posterior", "nets.q_posterior", None),
    (nets, "load_checkpoint", "nets.load_checkpoint", None),
    (data, "load_idx_images", "data.load_idx_images", None),
    (data, "load_idx_labels", "data.load_idx_labels", None),
    (evaluation, "train_binary_classifier", "evaluation.train_binary_classifier", None),
    (evaluation, "map_categories_to_labels", "evaluation.map_categories_to_labels", None),
    (evaluation, "_generate_labeled", "evaluation.generate_labeled", None),
    (evaluation, "code_sweep", "evaluation.code_sweep", None),
    (cli, "load_dataset", "cli.load_dataset", None),
    (cli, "main", "cli.main", None),
)

METHODS = (
    (train.Trainer, "critic_step", "train.critic_step"),
    (train.Trainer, "generator_step", "train.generator_step"),
    (train.RMSProp, "update", "train.rmsprop"),
)

OP = "op"  # the benchmark's own span around one operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, 0.0,
                           self._open[-1] if self._open else -1, 0])
        self._open.append(idx)
        self._child.append(0.0)
        return idx

    def exit(self, idx: int, count: int = 0) -> None:
        end = perf_counter()
        span = self.spans[idx]
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        duration = end - span[1]
        span[2] = end
        span[3] = duration - self._child.pop()
        span[5] = count
        if self._child:
            self._child[-1] += duration

    def _wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            idx = self.enter(name)
            n = 0
            try:
                if count is not None:
                    n = count(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self.exit(idx, n)
        traced.__wrapped__ = fn
        return traced

    def _timed_batches(self, fn):
        tracer = self

        class Batches:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.enter("data.batch_next")
                try:
                    return next(self.inner)
                finally:
                    tracer.exit(idx)

        def batch_iter(*args, **kwargs):
            return Batches(fn(*args, **kwargs))
        return batch_iter

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, attr: str, wrapped) -> None:
        for module in MODULES:
            if module.__dict__.get(attr) is original:
                self._rebind(module, attr, wrapped)

    def install(self) -> None:
        for module, attr, name, count in FUNCTIONS:
            original = getattr(module, attr)
            self._rebind_everywhere(original, attr, self._wrap(original, name, count))
        self._rebind_everywhere(data.batch_iter, "batch_iter",
                                self._timed_batches(data.batch_iter))
        for cls, attr, name in METHODS:
            self._rebind(cls, attr, self._wrap(getattr(cls, attr), name))
        create = privacy.AccountantState.create  # bound classmethod
        self._rebind(privacy.AccountantState, "create",
                     staticmethod(self._wrap(create, "privacy.AccountantState.create")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, self_s, parent, count) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "self": self_s, "parent": parent,
                                    "count": count}) + "\n")


# Per-layer metrics: (name, unit).  Busy times and counts are per timed
# operation and include child spans, except ``*.self_ms``.  The two
# set-up costs, accountant start-up and IDX loads, are per call over
# the whole run, set-up included.
LAYER_METRICS = (
    ("autodiff.forward_ms", "ms"), ("autodiff.backward_ms", "ms"),
    ("autodiff.forward_calls", "count"), ("autodiff.backward_calls", "count"),
    ("autodiff.nodes_per_op", "count"),
    ("privacy.noise_ms", "ms"), ("privacy.clip_ms", "ms"), ("privacy.account_ms", "ms"),
    ("privacy.noise_draws", "count"), ("privacy.accountant_create_s", "s"),
    ("latent.sample_codes_ms", "ms"), ("latent.sample_codes_calls", "count"),
    ("data.batch_ms", "ms"), ("data.load_idx_ms", "ms"),
    ("nets.load_checkpoint_ms", "ms"), ("nets.generate_ms", "ms"),
    ("nets.q_posterior_ms", "ms"),
    ("train.critic_step_ms", "ms"), ("train.generator_step_ms", "ms"),
    ("train.self_ms", "ms"), ("train.rmsprop_ms", "ms"),
    ("evaluation.classifier_fit_ms", "ms"), ("evaluation.map_categories_ms", "ms"),
    ("evaluation.generate_labeled_ms", "ms"), ("evaluation.code_sweep_ms", "ms"),
    ("evaluation.sgd_steps", "count"),
    ("cli.load_dataset_ms", "ms"), ("cli.self_ms", "ms"),
    ("trace.op_ms", "ms"),
)

# metric <- (span names, what to sum): "dur" inclusive seconds, "self"
# self seconds, "calls" span count, "count" the spans' work counts
_PER_OP = {
    "autodiff.forward_ms": (("autodiff.forward",), "dur"),
    "autodiff.backward_ms": (("autodiff.backward",), "dur"),
    "autodiff.forward_calls": (("autodiff.forward",), "calls"),
    "autodiff.backward_calls": (("autodiff.backward",), "calls"),
    "autodiff.nodes_per_op": (("autodiff.forward",), "count"),
    "privacy.noise_ms": (("privacy.perturb_gradient",), "dur"),
    "privacy.clip_ms": (("privacy.clip_weights",), "dur"),
    "privacy.account_ms": (("privacy.accumulate", "privacy.spent_epsilon"), "dur"),
    "privacy.noise_draws": (("privacy.perturb_gradient",), "count"),
    "latent.sample_codes_ms": (("latent.sample_codes",), "dur"),
    "latent.sample_codes_calls": (("latent.sample_codes",), "calls"),
    "data.batch_ms": (("data.batch_next",), "dur"),
    "nets.load_checkpoint_ms": (("nets.load_checkpoint",), "dur"),
    "nets.generate_ms": (("nets.generate",), "dur"),
    "nets.q_posterior_ms": (("nets.q_posterior",), "dur"),
    "train.critic_step_ms": (("train.critic_step",), "dur"),
    "train.generator_step_ms": (("train.generator_step",), "dur"),
    "train.rmsprop_ms": (("train.rmsprop",), "dur"),
    "evaluation.classifier_fit_ms": (("evaluation.train_binary_classifier",), "dur"),
    "evaluation.map_categories_ms": (("evaluation.map_categories_to_labels",), "dur"),
    "evaluation.generate_labeled_ms": (("evaluation.generate_labeled",), "dur"),
    "evaluation.code_sweep_ms": (("evaluation.code_sweep",), "dur"),
    "cli.load_dataset_ms": (("cli.load_dataset",), "dur"),
    "cli.self_ms": (("cli.main",), "self"),
}


def layer_metrics(tracer: Tracer, n_ops: int, round_means: list[float],
                  train_owns_op: bool) -> dict[str, float]:
    """Per-layer figures from the spans; per-op sums cover the ``n_ops``
    timed operations: the benchmark's operation spans and their
    descendants, so the set-up repetitions between segments are left out.
    ``round_means`` is the mean operation time of each round, as for
    ``op_ms``.

    ``train_owns_op`` attributes the operation span's own self time to
    ``train``: in training the benchmark's span runs from one
    ``on_iteration`` call to the next, so its uncovered time is the
    training loop's.
    """
    root: list[int] = []  # top-level ancestor of each span; parents come first
    for i, span in enumerate(tracer.spans):
        root.append(i if span[4] < 0 else root[span[4]])
    timed = [tracer.spans[r][0] == OP for r in root]
    sums: dict[tuple[str, str], float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, self_s, parent, count) in enumerate(tracer.spans):
        if timed[i]:
            for kind, v in (("dur", end - start), ("self", self_s), ("count", count)):
                sums[name, kind] = sums.get((name, kind), 0.0) + v
            calls[name] = calls.get(name, 0) + 1

    def total(names, kind):
        if kind == "calls":
            return sum(calls.get(n, 0) for n in names)
        return sum(sums.get((n, kind), 0.0) for n in names)

    out = {}
    for metric, (names, kind) in _PER_OP.items():
        scale = 1e3 if metric.endswith("_ms") else 1.0
        out[metric] = scale * total(names, kind) / n_ops
    own = [OP] if train_owns_op else []
    out["train.self_ms"] = 1e3 * total(
        [*own, "train.critic_step", "train.generator_step"], "self") / n_ops

    fit = {i for i, s in enumerate(tracer.spans)
           if s[0] == "evaluation.train_binary_classifier" and timed[i]}
    out["evaluation.sgd_steps"] = sum(
        1 for s in tracer.spans if s[0] == "autodiff.backward" and s[4] in fit) / n_ops

    def per_call(names, count_name):
        n = sum(1 for s in tracer.spans if s[0] == count_name)
        busy = sum(s[2] - s[1] for s in tracer.spans if s[0] in names)
        return busy / n if n else 0.0

    out["privacy.accountant_create_s"] = per_call(
        ("privacy.AccountantState.create",), "privacy.AccountantState.create")
    out["data.load_idx_ms"] = 1e3 * per_call(
        ("data.load_idx_images", "data.load_idx_labels"), "data.load_idx_images")
    out["trace.op_ms"] = 1e3 * statistics.median(round_means)
    return out

