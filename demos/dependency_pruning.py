"""Trace selected neurons down the stack and prune everything they ignore."""

from fisherprune import (
    TrainConfig, accuracy, dependency_scores, equivalence_check,
    extract_firing_matrix, generate_synthetic, icc_scores,
    plateau_threshold_search, rank_and_select, reference_cnn,
    scatter_matrices, standardize, train,
)
from fisherprune.data import balanced, images_labels

split = generate_synthetic(n_per_class=150, seed=0)
tr_imgs, tr_labels = images_labels(split.train)
te_imgs, te_labels = images_labels(split.test)

net = reference_cnn(seed=0)
cfg = TrainConfig(epochs=12, lr=0.005, seed=0)
train(net, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
base_acc = accuracy(net, te_imgs, te_labels)
print(f"trained: {sum(net.param_count())} params, test acc {base_acc:.3f}")

# pick the 4 most class-discriminative neurons in the last conv layer
last = net.last_conv_index()
mat = standardize(extract_firing_matrix(net, split.train, last))
ranking = rank_and_select(icc_scores(scatter_matrices(mat)), k=4)
print("selected neurons:", sorted(ranking.selected.tolist()))

# per-filter dependency strength of those neurons, traced by deconvolution
table = dependency_scores(net, balanced(split.train, 60), ranking.selected)
for li in sorted(table.scores):
    kept = (table.scores[li] >= 0.5).sum()
    print(f"layer {li:2d}: {kept}/{table.scores[li].size} filters above 0.5")

# sweep thresholds, keep the most aggressive one that holds accuracy
grid = [round(0.1 * i, 10) for i in range(7)]
retrain_cfg = TrainConfig(epochs=10, lr=0.005, seed=0)
t0, reports = plateau_threshold_search(
    net, table, ranking.selected, split, grid, eps_acc=0.02,
    retrain_config=retrain_cfg)
print("threshold  conv_rate  acc_after")
for rep in reports:
    print(f"{rep.threshold:9.1f}  {rep.conv_rate:9.3f}  {rep.acc_after:.3f}")
print(f"plateau edge t0 = {t0}")

# the search already pruned and retrained every point: take t0's plan and net
chosen = next(rep for rep in reports if rep.threshold == t0)
dev = equivalence_check(net, chosen.plan, split.test[:50])
print(f"pruned-vs-masked max logit deviation: {dev:.2e}")
print(f"pruned: {sum(chosen.net.param_count())} params, "
      f"test acc {chosen.acc_after:.3f}")
