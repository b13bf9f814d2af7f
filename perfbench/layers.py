"""Per-layer instrumentation of the fisherprune modules and the metrics built from it.

The layers are the package's modules (ops, network, train, firing, deconv,
prune, classify, modelio, data, cli). `instrument` wraps their public
functions with spans; `per_layer_metrics` turns the spans recorded under
"job" roots into the per-layer metrics listed in PER_LAYER, the same list
BENCHMARK.json declares.

Conv kernels are attributed to a layer ordinal L0..L5 by counting calls
inside the innermost enclosing network walk (forward, masked forward,
backward or deconv walk), because shapes alone cannot tell the two convs
of a block apart once pruning has narrowed them. A walk over a net whose
conv widths differ from the stock architecture's is tagged ".pruned".
"""

from __future__ import annotations

import os
import statistics

CONV_OPS = ("conv2d_forward", "conv2d_adjoint", "conv2d_param_grads")
N_CONV = 6
TAGS = ("", ".pruned")


def _per_layer_names():
    names = []
    for op in CONV_OPS:
        for tag in TAGS:
            names += [(f"ops.{op}{tag}.L{i}.ms", "ms") for i in range(N_CONV)]
    names += [
        ("ops.maxpool_forward.ms", "ms"),
        ("ops.dense_forward.ms", "ms"),
        ("ops.conv.macs_per_img", "MAC.computed"),
        ("ops.conv.macs_per_img.pruned", "MAC.computed"),
        ("ops.im2col.bytes_per_img", "B.computed"),
        ("ops.im2col.bytes_per_img.pruned", "B.computed"),
    ]
    for walk in ("network.forward", "network.forward_record"):
        for tag in TAGS:
            names += [(f"{walk}{tag}.ms", "ms"), (f"{walk}{tag}.overhead_ms", "ms")]
    names += [
        ("train.train.s", "s"), ("train.train.self_s", "s"),
        ("train.sgd_epoch.s", "s"), ("train.sgd_epoch.self_s", "s"),
        ("train.backward.ms", "ms"), ("train.backward.self_ms", "ms"),
        ("train.accuracy.s", "s"), ("train.accuracy.self_s", "s"),
        ("train.samples", "count"),
        ("firing.extract_firing_matrix.s", "s"),
        ("firing.extract_firing_matrix.self_s", "s"),
        ("firing.images", "count"),
        ("firing.rank.ms", "ms"),
        ("deconv.dependency_scores.s", "s"),
        ("deconv.dependency_scores.self_s", "s"),
        ("deconv.walk.ms", "ms"), ("deconv.walk.self_ms", "ms"),
        ("deconv.walks", "count"), ("deconv.dead_walks", "count"),
        ("prune.plateau_threshold_search.s", "s"),
        ("prune.plateau_threshold_search.self_s", "s"),
        ("prune.grid_points", "count"),
        ("prune.retrain.s", "s"), ("prune.retrain.self_s", "s"),
        ("prune.apply_prune.ms", "ms"),
        ("prune.equivalence_check.s", "s"),
        ("prune.equivalence_check.self_s", "s"),
        ("prune.forced_layers", "count"),
        ("classify.qda_fit.ms", "ms"),
        ("classify.linear_svm_fit.ms", "ms"),
        ("classify.rbf_svm_fit.ms", "ms"),
        ("classify.rbf_svm_fit.passes", "count"),
        ("classify.rbf_svm_fit.n_sv", "count"),
        ("classify.rbf_svm_fit.converged", "count"),
        ("classify.predict.ms", "ms"),
        ("modelio.save_model.ms", "ms"),
        ("modelio.load_model.ms", "ms"),
        ("modelio.bytes", "B"),
        ("data.generate_synthetic.s", "s"),
        ("data.load_pgm_dir.s", "s"),
        ("cli.main.s", "s"),
        ("cli.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "frac"),
        ("trace.untraced_s", "s"),
        ("trace.spans", "count"),
        ("env.threads", "count"),
    ]
    return names


PER_LAYER = _per_layer_names()


def conv_widths(net):
    return tuple(l.weights.shape[0] for l in net.layers if l.kind == "conv")


def _frame(net, stock):
    n = len(conv_widths(net))
    return {"pruned": conv_widths(net) != stock,
            "next": {"conv2d_forward": 0, "conv2d_adjoint": n - 1,
                     "conv2d_param_grads": n - 1}}


def _fixed(name):
    return lambda tracer, args, kwargs: (name, None, None)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def instrument(tracer, stock):
    """Wrap every function the per-layer table names; stock = stock conv widths.

    Returns the metric-name prefixes whose function could not be found; the
    caller reports those metrics as absent.
    """

    def conv_namer(op):
        step = 1 if op == "conv2d_forward" else -1

        def namer(tr, args, kwargs):
            frame = tr.frame()
            if frame is None:
                return f"ops.{op}.unattributed", None, None
            i = frame["next"][op]
            frame["next"][op] = i + step
            tag = ".pruned" if frame["pruned"] else ""
            return f"ops.{op}{tag}.L{i}", None, None
        return namer

    def forward_namer(tr, args, kwargs):
        net = args[0]
        if len(net.layers) == 1:  # prune.masked_forward runs layer by layer
            return "network.forward.layer", None, None
        tag = ".pruned" if conv_widths(net) != stock else ""
        if _arg(args, kwargs, 2, "record", False):
            walk = "network.forward_record"
        elif net.layers[-1].kind == "softmax":
            walk = "network.forward"
        else:
            walk = "network.forward.trunk"
        return walk + tag, None, _frame(net, stock)

    def framed(name):
        return lambda tr, args, kwargs: (name, None, _frame(args[0], stock))

    def counted(name, pos, key):
        return lambda tr, args, kwargs: (
            name, {"n": len(_arg(args, kwargs, pos, key))}, None)

    def set_attrs(fn):
        def on_result(span, args, kwargs, result):
            span.attrs = fn(args, kwargs, result)
        return on_result

    # (module, function, metric-name prefixes it feeds, namer, on_result)
    table = [
        ("ops", name, (f"ops.{name}",), conv_namer(name), None)
        for name in CONV_OPS
    ] + [
        ("ops", "maxpool_forward", ("ops.maxpool_forward",),
         _fixed("ops.maxpool_forward"), None),
        ("ops", "dense_forward", ("ops.dense_forward",),
         _fixed("ops.dense_forward"), None),
        ("ops", "relu_forward", (), _fixed("ops.relu_forward"), None),
        ("ops", "softmax", (), _fixed("ops.softmax"), None),
        ("network", "forward", ("network.forward",), forward_namer, None),
        ("train", "train", ("train.train",), _fixed("train.train"), None),
        ("train", "retrain", ("prune.retrain",), _fixed("prune.retrain"), None),
        ("train", "sgd_epoch", ("train.sgd_epoch", "train.samples"),
         counted("train.sgd_epoch", 3, "order"), None),
        ("train", "backward", ("train.backward",), framed("train.backward"), None),
        ("train", "accuracy", ("train.accuracy",), _fixed("train.accuracy"), None),
        ("firing", "extract_firing_matrix",
         ("firing.extract_firing_matrix", "firing.images"),
         counted("firing.extract_firing_matrix", 1, "images"), None),
        ("firing", "standardize", (), _fixed("firing.standardize"), None),
        ("firing", "scatter_matrices", ("firing.rank",), _fixed("firing.rank"), None),
        ("firing", "icc_scores", ("firing.rank",), _fixed("firing.rank"), None),
        ("firing", "rank_and_select", ("firing.rank",),
         _fixed("firing.rank_and_select"), None),
        ("deconv", "dependency_scores", ("deconv.dependency_scores",),
         _fixed("deconv.dependency_scores"), None),
        ("deconv", "deconv_from_neuron", ("deconv.walk", "deconv.dead_walks"),
         framed("deconv.walk"), set_attrs(lambda a, k, r: {"dead": int(r.dead)})),
        ("prune", "plateau_threshold_search",
         ("prune.plateau_threshold_search", "prune.grid_points"),
         counted("prune.plateau_threshold_search", 4, "grid"), None),
        ("prune", "build_prune_plan", ("prune.forced_layers",),
         _fixed("prune.build_prune_plan"),
         set_attrs(lambda a, k, r: {"forced": len(r.forced_layers)})),
        ("prune", "apply_prune", ("prune.apply_prune",),
         _fixed("prune.apply_prune"), None),
        ("prune", "masked_forward", (), framed("prune.masked_forward"), None),
        ("prune", "equivalence_check", ("prune.equivalence_check",),
         _fixed("prune.equivalence_check"), None),
        ("classify", "qda_fit", ("classify.qda_fit",),
         _fixed("classify.qda_fit"), None),
        ("classify", "linear_svm_fit", ("classify.linear_svm_fit",),
         _fixed("classify.linear_svm_fit"), None),
        ("classify", "rbf_svm_fit", ("classify.rbf_svm_fit",),
         _fixed("classify.rbf_svm_fit"),
         set_attrs(lambda a, k, r: {"passes": r.iterations,
                                    "n_sv": int(len(r.alpha)),
                                    "converged": int(r.converged)})),
        ("classify", "qda_predict", ("classify.predict",),
         _fixed("classify.predict"), None),
        ("classify", "svm_predict", ("classify.predict",),
         _fixed("classify.predict"), None),
        ("modelio", "save_model", ("modelio.save_model", "modelio.bytes"),
         _fixed("modelio.save_model"),
         set_attrs(lambda a, k, r: {"bytes": os.path.getsize(
             _arg(a, k, 1, "path"))})),
        ("modelio", "load_model", ("modelio.load_model",),
         _fixed("modelio.load_model"), None),
        ("data", "generate_synthetic", ("data.generate_synthetic",),
         _fixed("data.generate_synthetic"), None),
        ("data", "load_pgm_dir", ("data.load_pgm_dir",),
         _fixed("data.load_pgm_dir"), None),
        ("cli", "main", ("cli.",), _fixed("cli.main"), None),
    ]
    absent = set()
    for module, func, prefixes, namer, on_result in table:
        if not tracer.instrument(f"fisherprune.{module}", func, namer, on_result):
            absent.update(prefixes)
    return absent


def conv_counts(net):
    """Computed conv MACs and float64 im2col bytes for one image through net."""
    macs = 0
    im2col = 0
    for (o, c, kh, kw), (oh, ow) in _conv_geometry(net):
        macs += o * c * kh * kw * oh * ow
        im2col += 8 * oh * ow * c * kh * kw
    return macs, im2col


def _conv_geometry(net):
    shapes = net.infer_shapes()
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            yield layer.weights.shape, shapes[i][1:]


# -- aggregation ----------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer, n_jobs, computed, overhead, env_threads):
    """Per-layer metric values from the spans recorded under "job" roots.

    Times are medians per call. Counts are totals per job (every traced job
    repeats the same work). `computed` holds the shape-derived counts;
    `overhead` is (traced job seconds, untraced job seconds).
    """
    by_name = {}
    for span in tracer.spans:
        if span.root == "job":
            by_name.setdefault(span.name, []).append(span)
    n_spans = sum(len(v) for v in by_name.values())
    setup_gen = [s for s in tracer.spans if s.root == "setup"
                 and s.name == "data.generate_synthetic"]
    jobs = max(n_jobs, 1)

    def dur(name, scale):
        return _median([s.dur_ns for s in by_name.get(name, [])]) / scale

    def own(name, scale):
        return _median([s.self_ns for s in by_name.get(name, [])]) / scale

    def per_job(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, [])) / jobs

    def last(name, key):
        spans = by_name.get(name, [])
        return spans[-1].attrs[key] if spans else 0

    ms, sec = 1e6, 1e9
    out = {}
    for op in CONV_OPS:
        for tag in TAGS:
            for i in range(N_CONV):
                out[f"ops.{op}{tag}.L{i}.ms"] = dur(f"ops.{op}{tag}.L{i}", ms)
    out["ops.maxpool_forward.ms"] = dur("ops.maxpool_forward", ms)
    out["ops.dense_forward.ms"] = dur("ops.dense_forward", ms)
    out.update(computed)
    for walk in ("network.forward", "network.forward_record"):
        for tag in TAGS:
            out[f"{walk}{tag}.ms"] = dur(walk + tag, ms)
            out[f"{walk}{tag}.overhead_ms"] = own(walk + tag, ms)
    for name, scale, unit in (("train.train", sec, "s"),
                              ("train.sgd_epoch", sec, "s"),
                              ("train.backward", ms, "ms"),
                              ("train.accuracy", sec, "s"),
                              ("firing.extract_firing_matrix", sec, "s"),
                              ("deconv.dependency_scores", sec, "s"),
                              ("deconv.walk", ms, "ms"),
                              ("prune.plateau_threshold_search", sec, "s"),
                              ("prune.retrain", sec, "s"),
                              ("prune.equivalence_check", sec, "s")):
        out[f"{name}.{unit}"] = dur(name, scale)
        out[f"{name}.self_{unit}"] = own(name, scale)
    out["train.samples"] = per_job("train.sgd_epoch", "n")
    out["firing.images"] = per_job("firing.extract_firing_matrix", "n")
    n_rank = len(by_name.get("firing.rank_and_select", []))
    rank_ns = sum(s.dur_ns for s in by_name.get("firing.rank", [])
                  + by_name.get("firing.rank_and_select", []))
    out["firing.rank.ms"] = rank_ns / max(n_rank, 1) / ms
    out["deconv.walks"] = len(by_name.get("deconv.walk", [])) / jobs
    out["deconv.dead_walks"] = per_job("deconv.walk", "dead")
    out["prune.grid_points"] = per_job("prune.plateau_threshold_search", "n")
    out["prune.apply_prune.ms"] = dur("prune.apply_prune", ms)
    out["prune.forced_layers"] = last("prune.build_prune_plan", "forced")
    for name in ("qda_fit", "linear_svm_fit", "rbf_svm_fit"):
        out[f"classify.{name}.ms"] = dur(f"classify.{name}", ms)
    for key in ("passes", "n_sv", "converged"):
        out[f"classify.rbf_svm_fit.{key}"] = last("classify.rbf_svm_fit", key)
    out["classify.predict.ms"] = sum(
        s.dur_ns for s in by_name.get("classify.predict", [])) / jobs / ms
    out["modelio.save_model.ms"] = dur("modelio.save_model", ms)
    out["modelio.load_model.ms"] = dur("modelio.load_model", ms)
    out["modelio.bytes"] = per_job("modelio.save_model", "bytes")
    # data generation happens in set-up, so this one reads the set-up spans
    out["data.generate_synthetic.s"] = _median(
        [s.dur_ns for s in setup_gen]) / sec
    out["data.load_pgm_dir.s"] = dur("data.load_pgm_dir", sec)
    out["cli.main.s"] = dur("cli.main", sec)
    out["cli.self_s"] = own("cli.main", sec)
    traced_s, untraced_s = overhead
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["trace.untraced_s"] = tracer.untraced_ns.get("job", 0) / jobs / sec
    out["trace.spans"] = n_spans / jobs
    out["env.threads"] = env_threads
    return out
