"""Datasets: a deterministic synthetic two-class generator and a PGM loader.

Synthetic images are grayscale 1xHxW in [0,1]. Both classes contain the
same kind of filled ellipse; class 0 adds horizontal bright strokes and
class 1 vertical ones, so the classes differ by stroke orientation only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class LabeledImage:
    """One sample: (1,H,W) tensor in [0,1], binary label, stable id."""

    image: Tensor
    label: int
    id: str


@dataclass
class DatasetSplit:
    train: list
    test: list
    n0: int  # class sample counts over train+test
    n1: int

    def __post_init__(self):
        ids = {s.id for s in self.train}
        if ids & {s.id for s in self.test}:
            raise ConfigurationError("train and test share sample ids")
        train_labels = {s.label for s in self.train}
        if self.train and not {0, 1} <= train_labels:
            raise ConfigurationError("train split must contain both classes")


def images_labels(samples):
    """Split a sample list into (raw image arrays, int label array)."""
    imgs = [s.image.data for s in samples]
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return imgs, labels


def _train_count(n):
    # 80/20, but keep at least two per class in train when available
    return max(min(2, n), int(n * 0.8))


def _ellipse(rng, size):
    cy = size / 2 + rng.uniform(-2, 2)
    cx = size / 2 + rng.uniform(-2, 2)
    ry = size * rng.uniform(0.22, 0.34)
    rx = size * rng.uniform(0.22, 0.34)
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    return mask, rng.uniform(0.35, 0.5)


def _synthesize(rng, size, label):
    img = np.zeros((size, size), dtype=np.float64)
    mask, level = _ellipse(rng, size)
    img[mask] = level
    n_strokes = int(rng.integers(2, 5))
    for _ in range(n_strokes):
        pos = int(rng.integers(2, size - 2))
        thick = int(rng.integers(1, 3))
        lo = int(rng.integers(0, size // 3))
        hi = int(rng.integers(2 * size // 3, size))
        bright = rng.uniform(0.85, 1.0)
        if label == 0:
            img[pos:pos + thick, lo:hi] = bright
        else:
            img[lo:hi, pos:pos + thick] = bright
    img += rng.normal(0.0, 0.05, size=(size, size))
    np.clip(img, 0.0, 1.0, out=img)
    return img.astype(np.float32)


def generate_synthetic(n_per_class, size=32, seed=0):
    """Deterministic two-class stroke-orientation dataset.

    Per class, ids run c{label}-0000 upward; the first 80% of each class
    (at least two) form the train split, the rest the test split.
    """
    if not 2 <= n_per_class <= 100000:
        raise ConfigurationError(
            f"need 2 <= n_per_class <= 100000, got {n_per_class}")
    if size < 16:
        raise ConfigurationError(
            f"size {size} too small: two pool stages need at least 16"
        )
    rng = np.random.default_rng(seed)
    per_class = {0: [], 1: []}
    for label in (0, 1):
        for i in range(n_per_class):
            img = _synthesize(rng, size, label)
            per_class[label].append(
                LabeledImage(Tensor(img[None, :, :]), label, f"c{label}-{i:04d}")
            )
    n_train = _train_count(n_per_class)
    train, test = [], []
    for label in (0, 1):
        train.extend(per_class[label][:n_train])
        test.extend(per_class[label][n_train:])
    return DatasetSplit(train=train, test=test, n0=n_per_class, n1=n_per_class)


def _read_pgm(path):
    """Binary PGM (P5) -> float array in [0,1]. Comments are honored."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ConfigurationError(f"{path}: not a binary PGM (P5) file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ConfigurationError(f"{path}: unreadable header field {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ConfigurationError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ConfigurationError(f"{path}: maxval must be 255, got {maxval}")
    raw = data[pos:pos + width * height]
    if len(raw) < width * height:
        raise ConfigurationError(f"{path}: pixel data truncated")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return img.astype(np.float32) / 255.0


def resize_nearest(img, out_h, out_w):
    """Nearest-neighbor resize: source index floor(i * src / dst)."""
    h, w = img.shape
    ys = (np.arange(out_h) * h // out_h).astype(np.int64)
    xs = (np.arange(out_w) * w // out_w).astype(np.int64)
    return img[np.ix_(ys, xs)]


def load_pgm_dir(path, size=32):
    """Load `0/` and `1/` subdirectories of P5 files into a DatasetSplit.

    Pixels are scaled to [0,1], images resized to size x size, and each
    class split 80/20 by sorted filename.
    """
    per_class = {}
    for label in (0, 1):
        cdir = os.path.join(path, str(label))
        if not os.path.isdir(cdir):
            raise ConfigurationError(f"missing class directory {cdir}")
        names = sorted(n for n in os.listdir(cdir)
                       if os.path.isfile(os.path.join(cdir, n)))
        if not names:
            raise ConfigurationError(f"class directory {cdir} is empty")
        samples = []
        for name in names:
            img = _read_pgm(os.path.join(cdir, name))
            img = resize_nearest(img, size, size)
            samples.append(
                LabeledImage(Tensor(img[None, :, :]), label, f"{label}/{name}")
            )
        per_class[label] = samples
    train, test = [], []
    for label in (0, 1):
        n_train = _train_count(len(per_class[label]))
        train.extend(per_class[label][:n_train])
        test.extend(per_class[label][n_train:])
    return DatasetSplit(train=train, test=test,
                        n0=len(per_class[0]), n1=len(per_class[1]))
