"""Datasets: a deterministic synthetic two-class generator and a PGM loader.

Synthetic images are grayscale 1xHxW in [0,1]. Both classes contain the
same kind of filled ellipse; class 0 adds horizontal bright strokes and
class 1 vertical ones, so the classes differ by stroke orientation only.

The images are a contract: one seeded generator is read image by image,
all of class 0 first, and per image in this order:

1. five uniforms from one random(5): the ellipse centre's offsets from
   the middle (cy, cx) in [-2, 2), its radii (ry, rx) in [0.22, 0.34)
   times size, and its gray level in [0.35, 0.5);
2. the stroke count, integers(2, 5);
3. per stroke: integers for its position [2, size-2), thickness [1, 3),
   start [0, size//3) and end [2*size//3, size), then its brightness in
   [0.85, 1.0) from one random();
4. size*size standard normals, the noise, scaled by 0.05.

Each uniform is low + (high - low) * random(), as numpy's uniform computes
it, and each integer is read as Generator.integers reads it: Lemire's
multiply-shift bounded draw on the 32-bit halves of the bit generator's raw
words, low half first, the unread high half held in the bit generator's
own state. So the images equal those of per-image uniform/normal/integers
calls bit for bit, and tests check every draw and state against
rng.integers. The array work (ellipse masks, strokes, noise add, clip, float32
cast) runs per block of BLOCK_PIXELS // size**2 images.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_int
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


def balanced(samples, n):
    """The first n of samples taken from the classes in turn (0, 1, 0, 1,
    ..., each class in its given order, the larger one alone once the other
    runs out), so a prefix of a class-ordered split sees both classes. n of
    0 means all samples, returned unchanged."""
    if require_int("n", n, 0) == 0:
        return samples
    by_class = [[s for s in samples if s.label == c] for c in (0, 1)]
    turns = itertools.zip_longest(*by_class)
    return [s for pair in turns for s in pair if s is not None][:n]


# Images per synthesis block: each float64 block temporary holds about
# BLOCK_PIXELS pixels (128 KB), 16 images at size 32.
BLOCK_PIXELS = 16384
MAX_SIZE = 512
# low and high - low of the per-image uniforms: cy, cx, ry, rx, level
_ELLIPSE_LOW = np.array([-2.0, -2.0, 0.22, 0.22, 0.35])
_ELLIPSE_SPAN = np.array([2.0, 2.0, 0.34, 0.34, 0.5]) - _ELLIPSE_LOW
_BRIGHT_LOW, _BRIGHT_SPAN = 0.85, 1.0 - 0.85


def _split(per_class):
    """DatasetSplit of {label: samples}: per class, the first 80% (at least
    two when available) train, the rest test."""
    train, test = [], []
    for label in (0, 1):
        samples = per_class[label]
        n_train = max(min(2, len(samples)), int(len(samples) * 0.8))
        train.extend(samples[:n_train])
        test.extend(samples[n_train:])
    return DatasetSplit(train=train, test=test,
                        n0=len(per_class[0]), n1=len(per_class[1]))


def _bounded_integers(bitgen):
    """(draw, done): draw(lo, hi) on Python ints is Generator.integers(lo, hi)
    bit for bit, a Lemire draw redrawn while the product's low half is below
    2**32 mod (hi - lo); done() writes the held half back, as numpy leaves it.
    numpy's float draws read whole raw words and leave the half alone."""
    state = bitgen.state
    has, half = state["has_uint32"], state["uinteger"]
    raw = bitgen.random_raw

    def draw(lo, hi):
        nonlocal has, half
        excl = hi - lo
        if excl == 1:
            return lo
        if not 1 < excl <= 2 ** 32:
            raise ConfigurationError(f"integers({lo}, {hi}): need 1 <= "
                                     "high - low <= 2**32")
        while True:  # the next 32 bits: the held high half, else a new word
            if has:
                has, m = 0, half * excl
            else:
                word = raw()
                has, half, m = 1, word >> 32, (word & 0xFFFFFFFF) * excl
            if m & 0xFFFFFFFF >= (2 ** 32 - excl) % excl:
                return lo + (m >> 32)

    def done():
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = has, half
        bitgen.state = state

    return draw, done


def _synthesize(rng, size, label, count):
    """count images of one class as a (count, size, size) float32 block.

    The generator is read image by image in the module docstring's order;
    the masks, strokes, noise add, clip and cast then run over the block.
    """
    size = int(size)
    params = np.empty((count, 5))
    noise = np.empty((count, size, size))
    strokes = []
    integers, done = _bounded_integers(rng.bit_generator)
    for k in range(count):
        params[k] = _ELLIPSE_LOW + _ELLIPSE_SPAN * rng.random(5)
        for _ in range(integers(2, 5)):
            pos = integers(2, size - 2)
            thick = integers(1, 3)
            lo = integers(0, size // 3)
            hi = integers(2 * size // 3, size)
            bright = _BRIGHT_LOW + _BRIGHT_SPAN * rng.random()
            strokes.append((k, pos, thick, lo, hi, bright))
        rng.standard_normal(out=noise[k])
    done()
    noise *= 0.05
    cy, cx, ry, rx, level = params.T[:, :, None, None]
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    mask = (((ys - (size / 2 + cy)) / (size * ry)) ** 2
            + ((xs - (size / 2 + cx)) / (size * rx)) ** 2 <= 1.0)
    img = np.where(mask, level, 0.0)
    # class 1's strokes are class 0's with rows and columns swapped
    canvas = img if label == 0 else img.transpose(0, 2, 1)
    for k, pos, thick, lo, hi, bright in strokes:
        canvas[k, pos:pos + thick, lo:hi] = bright
    img += noise
    np.clip(img, 0.0, 1.0, out=img)
    return img.astype(np.float32)


def generate_synthetic(n_per_class, size=32, seed=0):
    """Deterministic two-class stroke-orientation dataset.

    Per class, ids run c{label}-0000 upward; the first 80% of each class
    (at least two) form the train split, the rest the test split. Sizes
    below 16 leave nothing for the reference net's two pool stages.
    """
    require_int("n_per_class", n_per_class, 2, 100000)
    require_int("size", size, 16, MAX_SIZE)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    block = max(1, BLOCK_PIXELS // size ** 2)
    per_class = {0: [], 1: []}
    for label in (0, 1):
        for start in range(0, n_per_class, block):
            imgs = _synthesize(rng, size, label,
                               min(block, n_per_class - start))
            per_class[label].extend(
                LabeledImage(Tensor(img[None, :, :]), label,
                             f"c{label}-{start + k:04d}")
                for k, img in enumerate(imgs))
    return _split(per_class)


# P5, then width, height and maxval (up to 9 digits; int() refuses 4300+),
# each after whitespace or # comments, then one whitespace byte ending it
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def _read_pgm(path):
    """Binary PGM (P5) -> float array in [0,1]. Comments are honored."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ConfigurationError(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ConfigurationError(f"{path}: unreadable PGM header")
    width, height, maxval = (int(v) for v in header.groups())
    if width < 1 or height < 1:
        raise ConfigurationError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ConfigurationError(f"{path}: maxval must be 255, got {maxval}")
    raw = data[header.end():header.end() + width * height]
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
    return _split(per_class)
