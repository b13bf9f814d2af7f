"""Synthetic generator and PGM directory loader."""

import numpy as np
import pytest

import oracles
from fisherprune import data
from fisherprune.data import (
    BLOCK_PIXELS, DatasetSplit, balanced, generate_synthetic, images_labels,
    load_pgm_dir, resize_nearest,
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

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_per_class": 2.5}, "n_per_class"),
        ({"n_per_class": True}, "n_per_class"),
        ({"n_per_class": "4"}, "n_per_class"),
        ({"size": 32.0}, "size"),
        ({"size": True}, "size"),
        ({"size": 513}, "size"),
        ({"size": 10**9}, "size"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": False}, "seed"),
        ({"seed": None}, "seed"),
    ], ids=["n_float", "n_bool", "n_str", "size_float", "size_bool",
            "size_513", "size_huge", "seed_negative", "seed_float",
            "seed_bool", "seed_none"])
    def test_bad_arguments_refused_before_any_image(self, monkeypatch,
                                                    kwargs, name):
        def no_images(*args):
            raise AssertionError("an image was built before the check")

        monkeypatch.setattr(data, "_synthesize", no_images)
        args = {"n_per_class": 3, **kwargs}
        with pytest.raises(ConfigurationError, match=name):
            generate_synthetic(**args)

    def test_numpy_ints_accepted(self):
        a = generate_synthetic(np.int64(3), size=np.int32(16), seed=np.uint8(4))
        b = generate_synthetic(3, size=16, seed=4)
        assert [s.image.data.tobytes() for s in a.train + a.test] == \
            [s.image.data.tobytes() for s in b.train + b.test]

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


class TestBalanced:
    def test_prefix_of_a_class_ordered_split_holds_both_classes(self):
        train = generate_synthetic(10, seed=0).train  # 8 of class 0 first
        assert [s.label for s in train[:4]] == [0, 0, 0, 0]
        subset = balanced(train, 4)
        assert [s.label for s in subset] == [0, 1, 0, 1]
        assert [s.id for s in subset] == [train[i].id for i in (0, 8, 1, 9)]

    def test_larger_class_alone_once_the_other_runs_out(self):
        train = generate_synthetic(10, seed=0).train
        samples = train[:6] + train[8:10]  # six of class 0, two of class 1
        got = balanced(samples, 7)
        assert [s.id for s in got] == [samples[i].id
                                       for i in (0, 6, 1, 7, 2, 3, 4)]
        assert len(balanced(samples, 100)) == len(samples)

    def test_zero_means_all_unchanged(self):
        train = generate_synthetic(3, seed=0).train
        assert balanced(train, 0) is train

    @pytest.mark.parametrize("n", [-1, 2.0, True, "4"])
    def test_n_must_be_an_int_at_least_zero(self, n):
        with pytest.raises(ConfigurationError, match="n must be"):
            balanced(generate_synthetic(3, seed=0).train, n)


def block_length(size):
    return max(1, BLOCK_PIXELS // size ** 2)


def oracle_cases():
    """n_per_class around the block length at each size, over three seeds."""
    for size in (16, 32, 48):
        b = block_length(size)
        for n in (2, b - 1, b, b + 1, 150):
            for seed in (0, 7, 2**40 + 3):
                yield n, size, seed


class TestMatchesPerImageGenerator:
    """The block synthesizer against the per-image generator it replaced."""

    @pytest.mark.parametrize("n,size,seed", list(oracle_cases()))
    def test_bit_for_bit(self, n, size, seed):
        want_train, want_test = oracles.synthetic_per_image(n, size, seed)
        split = generate_synthetic(n, size=size, seed=seed)
        assert (split.n0, split.n1) == (n, n)
        for got, want in ((split.train, want_train), (split.test, want_test)):
            assert [(s.id, s.label) for s in got] == \
                [(i, label) for i, label, _ in want]
            for s, (_, _, img) in zip(got, want):
                assert s.image.data.shape == (1, size, size)
                assert s.image.data.dtype == np.float32
                assert s.image.data[0].tobytes() == img.tobytes()

    @pytest.mark.parametrize("size,counts", [
        (32, [16, 16, 16, 16, 6]), (16, [64, 6]), (48, [7] * 10)])
    def test_blocks_hold_about_128_kb_of_float64(self, monkeypatch, size,
                                                  counts):
        """The cases above sit at the block boundaries the package uses."""
        calls = []
        synthesize = data._synthesize

        def spy(rng, size, label, count):
            calls.append(count)
            return synthesize(rng, size, label, count)

        monkeypatch.setattr(data, "_synthesize", spy)
        generate_synthetic(70, size=size)
        assert calls == counts * 2
        assert max(calls) == block_length(size)

    def test_nan_in_one_image_leaves_the_others(self):
        """perfbench's --inject-nan writes NaN into one returned image in
        place; the images of one block must not overlap."""
        split = generate_synthetic(20, seed=5)
        samples = split.train + split.test
        before = [s.image.data.copy() for s in samples]
        samples[0].image.data[...] = float("nan")
        assert np.isnan(samples[0].image.data).all()
        for s, img in zip(samples[1:], before[1:]):
            np.testing.assert_array_equal(s.image.data, img)


def synthesize_ranges(size):
    """The (low, high) of every integers draw _synthesize makes at size."""
    return [(2, 5), (2, size - 2), (1, 3), (0, size // 3),
            (2 * size // 3, size)]


# excl 2**31 + 1 rejects about one word per draw, 3 * 2**30 one per three
WIDE_RANGES = [(0, 2**31 + 1), (-5, 3 * 2**30 - 5), (0, 2**32),
               (7, 2**32 + 7)]
ONE_VALUE_RANGES = [(0, 1), (9, 10)]


class TestBoundedIntegers:
    """data._bounded_integers against rng.integers on a twin generator."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_draws_and_states_equal_integers(self, seed):
        ranges = [r for size in (16, 32, 48, 512)
                  for r in synthesize_ranges(size)]
        ranges += WIDE_RANGES + ONE_VALUE_RANGES
        calls = [lambda g: g.random(), lambda g: g.random(5),
                 lambda g: g.standard_normal(3)]
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        integers, done = data._bounded_integers(got.bit_generator)
        for step, (lo, hi) in enumerate(ranges * 20):
            value = integers(lo, hi)
            done()
            assert type(value) is int
            assert value == want.integers(lo, hi)
            assert got.bit_generator.state == want.bit_generator.state
            call = calls[step % len(calls)]
            np.testing.assert_array_equal(call(got), call(want))

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("lo,hi", ONE_VALUE_RANGES)
    def test_one_value_reads_no_word(self, held, lo, hi):
        rng = np.random.default_rng(3)
        if held:
            rng.integers(0, 10)
        before = rng.bit_generator.state
        assert before["has_uint32"] == held
        integers, done = data._bounded_integers(rng.bit_generator)
        assert integers(lo, hi) == lo
        done()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("lo,hi", [(0, 2**32 + 1), (5, 5), (5, 4)])
    def test_ranges_outside_one_to_2_32_refused(self, lo, hi):
        integers, _ = data._bounded_integers(
            np.random.default_rng(0).bit_generator)
        with pytest.raises(ConfigurationError, match="2\\*\\*32"):
            integers(lo, hi)

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("size,label,count", [
        (16, 0, 5), (32, 1, 16), (48, 0, 3)])
    def test_block_equals_per_image_generator(self, held, size, label, count):
        block, per_image = (np.random.default_rng(11) for _ in range(2))
        if held:
            block.integers(0, 10)
            per_image.integers(0, 10)
        assert block.bit_generator.state["has_uint32"] == held
        imgs = data._synthesize(block, size, label, count)
        want = [oracles._synthesize(per_image, size, label)
                for _ in range(count)]
        assert imgs.tobytes() == np.stack(want).tobytes()
        assert block.bit_generator.state == per_image.bit_generator.state


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

    @pytest.mark.parametrize("field", ["width", "height", "maxval"])
    def test_oversized_header_field_is_unreadable(self, corpus, field):
        """A field past int()'s 4300-digit limit is refused as a bad header,
        not with int()'s own ValueError."""
        fields = {"width": b"4", "height": b"2", "maxval": b"255"}
        fields[field] = b"1" * 5000
        path = corpus / "0" / "huge.pgm"
        path.write_bytes(b"P5\n" + b" ".join(fields.values()) + b"\n"
                         + bytes(8))
        with pytest.raises(ConfigurationError, match="unreadable PGM header"):
            data._read_pgm(str(path))
        with pytest.raises(ConfigurationError, match="unreadable PGM header"):
            load_pgm_dir(str(corpus), size=16)

    def test_nine_digit_header_fields_are_read(self, tmp_path):
        path = tmp_path / "padded.pgm"
        path.write_bytes(b"P5\n000000004 000000002\n000000255\n"
                         + bytes(range(8)))
        img = data._read_pgm(str(path))
        assert img.shape == (2, 4)
        assert img[1, 3] == np.float32(7 / 255)

    def test_non_pgm_rejected(self, corpus):
        (corpus / "0" / "notes.txt").write_text("hello")
        with pytest.raises(ConfigurationError, match="P5"):
            load_pgm_dir(str(corpus), size=16)


def test_resize_nearest_downsamples_by_index():
    img = np.arange(16, dtype=np.float32).reshape(4, 4)
    out = resize_nearest(img, 2, 2)
    np.testing.assert_array_equal(out, [[0, 2], [8, 10]])
