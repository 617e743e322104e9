"""Spans recorded around calls into graphdistill, and the per-layer metrics made from them.

The tracer wraps public functions from outside the program. Each target is
replaced in every graphdistill module that holds a reference to it, so
calls made through ``from .x import f`` copies are recorded too. Spans stay
in memory until the traced process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import scipy.sparse as sp


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _backward_rows(args, kwargs, result) -> dict:
    dlogits = _arg(args, kwargs, 2, "dlogits")
    return {
        "rows": int(dlogits.shape[0]),
        "loss_rows": int((dlogits != 0.0).any(axis=1).sum()),
    }


def _targets() -> list[tuple]:
    """(owner, attribute, span name, attrs) for every wrapped function.

    ``attrs`` maps (args, kwargs, result) to extra span fields; it runs
    after the span ends.
    """
    mod = lambda name: importlib.import_module(f"graphdistill.{name}")
    dataio, pipeline, propagate, model = (
        mod("dataio"), mod("pipeline"), mod("propagate"), mod("model")
    )
    cluster, refine, evaluate, fid = (
        mod("cluster"), mod("refine"), mod("evaluate"), mod("fid")
    )
    wcss = lambda a, k, r: {"wcss": float(r.wcss_trace[-1])}
    return [
        (dataio, "load_dataset", "dataio.load_dataset", None),
        (dataio, "save_condensed", "dataio.save_condensed", None),
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (propagate, "gls_propagate", "propagate.gls_propagate", None),
        (propagate, "propagate_dense", "propagate.propagate_dense", None),
        (model, "train_classifier", "model.train_classifier", None),
        (
            model, "forward_cache", "model.forward_cache",
            lambda a, k, r: {"rows": int(r[0].shape[0])},
        ),
        (model, "backward", "model.backward", _backward_rows),
        (model.AdamState, "step", "model.AdamState.step", None),
        (cluster, "kmeans", "cluster.kmeans", wcss),
        (cluster, "minibatch_kmeans", "cluster.minibatch_kmeans", wcss),
        # one call per assignment pass over the points; the only place the
        # mini-batch iteration count can be seen from outside
        (cluster, "_assign", "cluster.assign", None),
        (
            refine, "sample_class_graphs", "refine.sample_class_graphs",
            lambda a, k, r: {"kept_edges": sum(m.nnz for m in r.sampled) // 2},
        ),
        (refine, "refine", "refine.refine", None),
        (
            refine, "refine_loss_and_grads", "refine.refine_loss_and_grads",
            lambda a, k, r: {"view_rows": int(_arg(a, k, 3, "x_prime").shape[0])},
        ),
        (evaluate, "train_eval_gcn", "evaluate.train_eval_gcn", None),
        (evaluate, "evaluate_on_original", "evaluate.evaluate_on_original", None),
        (
            evaluate, "gcn_forward", "evaluate.gcn_forward",
            lambda a, k, r: {"full_graph": sp.issparse(_arg(a, k, 1, "a_hat"))},
        ),
        (fid, "trace_sqrt_product", "fid.trace_sqrt_product", None),
    ]


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target for the rest of this process.

        A target the program no longer has is skipped, and its metrics read
        zero.
        """
        targets = _targets()
        modules = [
            m for name, m in sys.modules.items()
            if name == "graphdistill" or name.startswith("graphdistill.")
        ]
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(original, name, attrs)
            setattr(owner, attr, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from one traced distill's spans (ids index the list)."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def seconds(items) -> float:
        return float(sum(s["end"] - s["start"] for s in items))

    def under(span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == name:
                return True
            parent = spans[parent]["parent"]
        return False

    # Within one refinement step, head calls on the condensed rows belong to
    # the class views; every other head call is the full-graph term.
    head_org, views = [], []
    for span in by_name["model.forward_cache"] + by_name["model.backward"]:
        parent = span["parent"]
        if parent is not None and spans[parent]["name"] == "refine.refine_loss_and_grads":
            on_view = span["rows"] == spans[parent]["view_rows"]
            (views if on_view else head_org).append(span)
    views += [
        s for s in by_name["propagate.propagate_dense"]
        if under(s, "refine.refine_loss_and_grads")
    ]

    kmeans_names = ("cluster.kmeans", "cluster.minibatch_kmeans")
    kmeans_top = [
        s for name in kmeans_names for s in by_name[name]
        if not any(under(s, other) for other in kmeans_names)
    ]
    backward_rows = sum(s["rows"] for s in by_name["model.backward"])
    loss_rows = sum(s["loss_rows"] for s in by_name["model.backward"])
    adam = by_name["model.AdamState.step"]
    sampled = by_name["refine.sample_class_graphs"]
    return {
        "model.forward_s": seconds(by_name["model.forward_cache"]),
        "model.backward_s": seconds(by_name["model.backward"]),
        "model.forward_rows": sum(s["rows"] for s in by_name["model.forward_cache"]),
        "model.loss_rows": loss_rows,
        "model.loss_row_ratio": loss_rows / backward_rows if backward_rows else 0.0,
        "model.adam_step_s": seconds(adam),
        "model.adam_steps": len(adam),
        "refine.head_org_s": seconds(head_org),
        "refine.views_s": seconds(views),
        "refine.adam_s": seconds(s for s in adam if under(s, "refine.refine")),
        "refine.sample_class_graphs_s": seconds(sampled),
        "refine.kept_edges": sum(s["kept_edges"] for s in sampled),
        "propagate.gls_propagate_s": seconds(by_name["propagate.gls_propagate"]),
        "propagate.propagate_dense_s": seconds(by_name["propagate.propagate_dense"]),
        "propagate.propagate_dense_calls": len(by_name["propagate.propagate_dense"]),
        "cluster.kmeans_s": seconds(kmeans_top),
        "cluster.iterations": len(by_name["cluster.assign"]),
        "cluster.wcss": kmeans_top[-1]["wcss"] if kmeans_top else 0.0,
        "evaluate.train_eval_gcn_s": seconds(by_name["evaluate.train_eval_gcn"]),
        "evaluate.gcn_trainings": len(by_name["evaluate.train_eval_gcn"]),
        "evaluate.full_graph_forwards": sum(
            1 for s in by_name["evaluate.gcn_forward"] if s["full_graph"]
        ),
        "evaluate.evaluate_on_original_s": seconds(by_name["evaluate.evaluate_on_original"]),
        "dataio.load_dataset_s": seconds(by_name["dataio.load_dataset"]),
        "dataio.save_condensed_s": seconds(by_name["dataio.save_condensed"]),
        "fid.trace_sqrt_product_s": seconds(by_name["fid.trace_sqrt_product"]),
    }
