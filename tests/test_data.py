"""Synthetic generator and PGM directory loader."""

import numpy as np
import pytest

from fisherprune.data import (
    DatasetSplit, generate_synthetic, images_labels, load_pgm_dir,
    resize_nearest,
)
from fisherprune.errors import ConfigurationError


def write_pgm(path, img, maxval=255, comment=False):
    h, w = img.shape
    header = b"P5\n"
    if comment:
        header += b"# scanner output\n"
    header += f"{w} {h}\n{maxval}\n".encode()
    path.write_bytes(header + img.astype(np.uint8).tobytes())


class TestSynthetic:
    def test_split_sizes_and_ids(self):
        split = generate_synthetic(10, seed=3)
        assert (split.n0, split.n1) == (10, 10)
        assert len(split.train) == 16 and len(split.test) == 4
        assert split.train[0].id == "c0-0000"
        ids = [s.id for s in split.train + split.test]
        assert len(set(ids)) == 20

    def test_images_are_unit_range_float32(self):
        split = generate_synthetic(4, seed=0)
        for s in split.train:
            assert s.image.data.shape == (1, 32, 32)
            assert s.image.data.dtype == np.float32
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0

    def test_same_seed_is_identical(self):
        a = generate_synthetic(5, seed=8)
        b = generate_synthetic(5, seed=8)
        for x, y in zip(a.train + a.test, b.train + b.test):
            np.testing.assert_array_equal(x.image.data, y.image.data)
            assert x.id == y.id

    def test_classes_actually_differ(self):
        """Bright pixels span many columns in class 0, many rows in class 1."""
        split = generate_synthetic(20, seed=1)
        for s in split.train:
            ys, xs = np.where(s.image.data[0] > 0.8)
            rows, cols = len(np.unique(ys)), len(np.unique(xs))
            if s.label == 0:
                assert cols > rows
            else:
                assert rows > cols

    def test_tiny_and_small_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(1)
        with pytest.raises(ConfigurationError):
            generate_synthetic(10, size=8)

    def test_images_labels_helper(self):
        split = generate_synthetic(3, seed=0)
        imgs, labels = images_labels(split.train)
        assert len(imgs) == len(labels) == len(split.train)
        assert labels.dtype == np.int64
        assert set(labels.tolist()) == {0, 1}

    def test_overlapping_ids_rejected(self):
        split = generate_synthetic(3, seed=0)
        with pytest.raises(ConfigurationError):
            DatasetSplit(train=split.train, test=[split.train[0]], n0=3, n1=3)

    def test_one_class_train_split_rejected(self):
        split = generate_synthetic(3, seed=0)
        ones = [s for s in split.train if s.label == 1]
        with pytest.raises(ConfigurationError, match="both classes"):
            DatasetSplit(train=ones, test=split.test, n0=0, n1=len(ones))


class TestPgm:
    @pytest.fixture
    def corpus(self, tmp_path):
        rng = np.random.default_rng(0)
        for label in (0, 1):
            d = tmp_path / str(label)
            d.mkdir()
            for i in range(5):
                img = rng.integers(0, 256, (24, 20))
                write_pgm(d / f"s{i}.pgm", img, comment=(i == 0))
        return tmp_path

    def test_loads_and_splits(self, corpus):
        split = load_pgm_dir(str(corpus), size=16)
        assert (split.n0, split.n1) == (5, 5)
        assert len(split.train) == 8 and len(split.test) == 2
        img = split.train[0].image.data
        assert img.shape == (1, 16, 16)
        assert img.max() <= 1.0

    def test_gray_levels_scaled(self, tmp_path):
        for label in (0, 1):
            d = tmp_path / str(label)
            d.mkdir()
            write_pgm(d / "a.pgm", np.full((16, 16), 51 if label else 255))
            write_pgm(d / "b.pgm", np.zeros((16, 16)))
        split = load_pgm_dir(str(tmp_path), size=16)
        by_id = {s.id: s.image.data for s in split.train + split.test}
        assert by_id["0/a.pgm"].max() == pytest.approx(1.0)
        assert by_id["1/a.pgm"].max() == pytest.approx(51 / 255)

    def test_missing_class_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="missing class"):
            load_pgm_dir(str(tmp_path))
        (tmp_path / "0").mkdir()
        with pytest.raises(ConfigurationError, match="empty"):
            load_pgm_dir(str(tmp_path))

    def test_wrong_maxval_rejected(self, corpus):
        write_pgm(corpus / "0" / "bad.pgm", np.zeros((8, 8)), maxval=65535)
        with pytest.raises(ConfigurationError, match="maxval"):
            load_pgm_dir(str(corpus), size=16)

    def test_truncated_pixels_rejected(self, corpus):
        target = corpus / "1" / "s3.pgm"
        target.write_bytes(target.read_bytes()[:-30])
        with pytest.raises(ConfigurationError, match="truncated"):
            load_pgm_dir(str(corpus), size=16)

    def test_non_pgm_rejected(self, corpus):
        (corpus / "0" / "notes.txt").write_text("hello")
        with pytest.raises(ConfigurationError, match="P5"):
            load_pgm_dir(str(corpus), size=16)


def test_resize_nearest_downsamples_by_index():
    img = np.arange(16, dtype=np.float32).reshape(4, 4)
    out = resize_nearest(img, 2, 2)
    np.testing.assert_array_equal(out, [[0, 2], [8, 10]])
