"""Training: backprop through the sequential network, SGD with momentum.

Gradients flow backwards through the ForwardRecord kept by the forward
pass, along network.reverse. The softmax layer is fused with cross-entropy
(gradient p - onehot), relu gates by the sign of its recorded output, and
max-pool scatter-adds through its stored switches. Every run uses the one
SGD recipe, momentum MOMENTUM and weight decay WEIGHT_DECAY; TrainConfig
holds what callers vary (int epochs >= 0, a finite positive lr, an int
seed >= 0). Divergence is caught per sample in sgd_epoch, which reads the
first non-finite layer from the failing pass's own record; train returns
the epoch log and writes no file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .errors import (ConfigurationError, NonFiniteError, TrainingDiverged,
                     is_int, require_int, require_positive)
from .network import ForwardRecord, Network, forward, require_softmax, reverse
from .tensor import Tensor

MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4


def cross_entropy(probs, label):
    p = max(float(probs[label]), 1e-12)
    return -np.log(p)


def backward(net: Network, rec: ForwardRecord, label: int):
    """Per-layer parameter gradients for one example.

    The network must end in softmax; the loss is cross-entropy against the
    integer label. Returns {layer_index: (dw, db)} for conv/dense layers,
    in the dtype of the softmax output (the input's: float32 for model
    data).
    """
    require_softmax(net)
    grads = {}
    g = rec.activations[-1].copy()
    g[label] -= 1.0  # softmax+CE fused
    for i, g in reverse(net, rec, len(net.layers) - 2, g):
        layer = net.layers[i]
        x = rec.activations[i - 1] if i > 0 else rec.input
        if layer.kind == "dense":
            grads[i] = (np.outer(g, x), g)
        elif layer.kind == "conv":
            _, _, kh, kw = layer.weights.shape
            grads[i] = ops.conv2d_param_grads(x, g, kh, kw, layer.stride,
                                              layer.pad)
    return grads


@dataclass
class TrainConfig:
    epochs: int = 20
    lr: float = 0.005
    seed: int = 0

    def __post_init__(self):
        require_int("epochs", self.epochs, 0)
        require_positive("lr", self.lr)
        require_int("seed", self.seed, 0)


@dataclass
class TrainResult:
    epoch_log: list = field(default_factory=list)  # (epoch, loss, train_acc, eval_acc)
    final_train_acc: float = 0.0
    final_eval_acc: float = 0.0


def _check_split(images, labels, name):
    """ConfigurationError unless the set is not empty, has one label per
    image and every label is the int 0 or 1 (a bool is not an int)."""
    if len(labels) == 0:
        raise ConfigurationError(f"{name} set is empty")
    if len(images) != len(labels):
        raise ConfigurationError(f"{name} set has {len(images)} images but "
                                 f"{len(labels)} labels")
    for label in labels:
        if not (is_int(label) and label in (0, 1)):
            raise ConfigurationError(f"labels must be in {{0,1}}, got {label}")


def accuracy(net, images, labels):
    _check_split(images, labels, "evaluation")
    hit = 0
    for img, lab in zip(images, labels):
        p = forward(net, Tensor(img))
        if int(np.argmax(p.data)) == int(lab):
            hit += 1
    return hit / len(labels)


def sgd_epoch(net, images, labels, order, lr, velocity, grad_mask=None,
              epoch=None):
    """One pass over the data in the given order; returns (mean loss, acc).

    grad_mask zeroes gradient entries only (train zeroes the masked weights);
    epoch only labels a TrainingDiverged raised here.
    """
    total, hit = 0.0, 0
    of_epoch = "" if epoch is None else f" of epoch {epoch}"
    for idx in order:
        x = Tensor(images[idx])
        try:
            probs, rec = forward(net, x, record=True)
            bad = None if np.isfinite(probs.data).all() else "output became non-finite"
        except NonFiniteError as exc:  # a softmax refusing NaN: read its record
            bad, rec = f"activations went NaN ({exc})", exc.record
        if bad:
            layer = next((i for i, a in enumerate(rec.activations)
                          if not np.isfinite(a).all()), None)
            raise TrainingDiverged(
                f"{bad} on sample {idx}{of_epoch}, first at layer {layer} "
                f"(lr={lr}); reduce the learning rate",
                epoch=epoch, sample=int(idx), layer=layer)
        loss = cross_entropy(probs.data, int(labels[idx]))
        total += loss
        if int(np.argmax(probs.data)) == int(labels[idx]):
            hit += 1
        grads = backward(net, rec, int(labels[idx]))
        for li, (dw, db) in grads.items():
            layer = net.layers[li]
            if grad_mask is not None and li in grad_mask:
                dw = dw * grad_mask[li]
            if li not in velocity:
                velocity[li] = (np.zeros_like(layer.weights),
                                np.zeros_like(layer.bias))
            vw, vb = velocity[li]
            # v = m*v - lr*(dw + wd*w), in place and in the same float32 order
            step = WEIGHT_DECAY * layer.weights
            step += dw
            step *= lr
            vw *= MOMENTUM
            vw -= step
            vb *= MOMENTUM
            vb -= lr * db
            np.add(layer.weights, vw, out=layer.weights)  # no rebinding: the
            np.add(layer.bias, vb, out=layer.bias)  # layer keeps its stamp
    n = max(len(order), 1)
    return total / n, hit / n


def train(net, train_images, train_labels, eval_images, eval_labels,
          config: TrainConfig, weight_mask=None):
    """SGD with momentum, shuffled each epoch from a seeded generator.

    weight_mask, when given, maps layer index -> 0/1 array the shape of that
    layer's weights; masked weights are zeroed once and their gradient is
    dropped, so their velocity stays zero and after the first update they
    hold +0.0 for the whole run.
    A NaN activation or a non-finite output aborts with TrainingDiverged,
    naming the epoch, the sample and the first layer whose output went
    non-finite in its message and its attributes.
    """
    _check_split(train_images, train_labels, "training")
    if config.epochs:
        _check_split(eval_images, eval_labels, "evaluation")
    rng = np.random.default_rng(config.seed)
    velocity = {}
    if weight_mask:
        for li, m in weight_mask.items():
            net.layers[li].weights *= m
    result = TrainResult()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_labels))
        loss, tr_acc = sgd_epoch(net, train_images, train_labels, order,
                                 config.lr, velocity, grad_mask=weight_mask,
                                 epoch=epoch)
        ev_acc = accuracy(net, eval_images, eval_labels)
        result.epoch_log.append((epoch, float(loss), float(tr_acc), float(ev_acc)))
        result.final_train_acc, result.final_eval_acc = float(tr_acc), float(ev_acc)
    return result


def retrain(net, train_images, train_labels, eval_images, eval_labels,
            config: TrainConfig, weight_mask=None):
    """Fine-tune surviving parameters: same loop at a tenth of the rate.

    No re-initialization happens; the network trains from whatever weights
    it currently holds.
    """
    return train(net, train_images, train_labels, eval_images, eval_labels,
                 replace(config, lr=config.lr * 0.1), weight_mask=weight_mask)
