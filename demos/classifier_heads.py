"""Swap the dense head for a QDA or SVM on the reduced firing features."""

from fisherprune import (
    TrainConfig, accuracy, apply_prune, build_prune_plan, dependency_scores,
    extract_firing_matrix, generate_synthetic, icc_scores, rank_and_select,
    reference_cnn, retrain, scatter_matrices, standardize, train,
)
from fisherprune.classify import (
    evaluate_accuracy, linear_svm_fit, qda_fit, rbf_svm_fit,
)
from fisherprune.data import balanced, images_labels
from fisherprune.firing import zscore

split = generate_synthetic(n_per_class=150, seed=0)
tr_imgs, tr_labels = images_labels(split.train)
te_imgs, te_labels = images_labels(split.test)

net = reference_cnn(seed=0)
cfg = TrainConfig(epochs=12, lr=0.005, seed=0)
train(net, tr_imgs, tr_labels, te_imgs, te_labels, cfg)

# prune down to what the 4 best neurons depend on, then retrain
last = net.last_conv_index()
mat = standardize(extract_firing_matrix(net, split.train, last))
ranking = rank_and_select(icc_scores(scatter_matrices(mat)), k=4)
table = dependency_scores(net, balanced(split.train, 60), ranking.selected)
pruned = apply_prune(net, build_prune_plan(table, ranking.selected, 0.5))
retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels,
        TrainConfig(epochs=10, lr=0.005, seed=0))
print(f"pruned net test acc (dense head): "
      f"{accuracy(pruned, te_imgs, te_labels):.3f}")

# firing scores of the surviving last-conv filters are the feature vector;
# test features reuse the training-set standardization
ptr = standardize(extract_firing_matrix(pruned, split.train,
                                        pruned.last_conv_index()))
pte = extract_firing_matrix(pruned, split.test, pruned.last_conv_index())
te_vals = zscore(pte.values, ptr.col_mean, ptr.col_std)
print(f"feature dimension: {ptr.values.shape[1]}")

qda = qda_fit(ptr.values, ptr.labels)
acc, confusion = evaluate_accuracy(qda, te_vals, pte.labels)
print(f"qda        acc {acc:.3f}  confusion {confusion.tolist()}")

ypm = ptr.labels * 2 - 1
svml = linear_svm_fit(ptr.values, ypm)
acc, _ = evaluate_accuracy(svml, te_vals, pte.labels)
print(f"linear svm acc {acc:.3f}")

svmr = rbf_svm_fit(ptr.values, ypm, c=1.0)
acc, _ = evaluate_accuracy(svmr, te_vals, pte.labels)
print(f"rbf svm    acc {acc:.3f}")
