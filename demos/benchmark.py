"""Compare inference time and file size before and after pruning."""

import os

import numpy as np

from fisherprune import (
    TrainConfig, apply_prune, build_prune_plan, dependency_scores,
    extract_firing_matrix, generate_synthetic, icc_scores, rank_and_select,
    reference_cnn, retrain, save_model, scatter_matrices, standardize, train,
)
from fisherprune.bench import time_network
from fisherprune.data import balanced, images_labels
from fisherprune.modelio import model_param_count
from fisherprune.tensor import Tensor

split = generate_synthetic(n_per_class=150, seed=0)
tr_imgs, tr_labels = images_labels(split.train)
te_imgs, te_labels = images_labels(split.test)

net = reference_cnn(seed=0)
train(net, tr_imgs, tr_labels, te_imgs, te_labels,
      TrainConfig(epochs=12, lr=0.005, seed=0))

last = net.last_conv_index()
mat = standardize(extract_firing_matrix(net, split.train, last))
ranking = rank_and_select(icc_scores(scatter_matrices(mat)), k=4)
table = dependency_scores(net, balanced(split.train, 60), ranking.selected)
pruned = apply_prune(net, build_prune_plan(table, ranking.selected, 0.6))
retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels,
        TrainConfig(epochs=10, lr=0.005, seed=0))

probe = Tensor(np.zeros((1, 32, 32), dtype=np.float32))
for name, model in (("original", net), ("pruned", pruned)):
    per_layer, total = time_network(model, probe)
    print(f"{name}: {sum(model.param_count())} params, {total:.2f} ms/image")
    for i, kind, ms in per_layer:
        if kind == "conv":
            print(f"  layer {i:2d} {kind:7s} {ms:6.3f} ms")

_, orig_total = time_network(net, probe)
_, pruned_total = time_network(pruned, probe)
print(f"speedup: {orig_total / pruned_total:.2f}x")

os.makedirs("out", exist_ok=True)
save_model(net, "out/bench_original.ldap1")
save_model(pruned, "out/bench_pruned.ldap1")
for path in ("out/bench_original.ldap1", "out/bench_pruned.ldap1"):
    counts = model_param_count(path)
    size = os.path.getsize(path)
    print(f"{path}: {size} bytes, "
          f"{counts['conv']} conv + {counts['fc']} fc params")
