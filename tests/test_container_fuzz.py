"""The container's hostile-input contract, field by field and by seeded fuzz.

Every mutated model file either loads or makes `load_model` raise a
ModelFormatError subclass, and a loaded classifier head either rebuilds or
makes `from_arrays` raise HeaderSchemaError. Mutated PGM bytes either read
or raise ConfigurationError. Nothing else may escape.
"""

import functools
import json
import operator
import struct

import numpy as np
import pytest

from fisherprune.classify import fit_head, from_arrays, to_arrays
from fisherprune.data import _read_pgm
from fisherprune.errors import (
    ConfigurationError, HeaderSchemaError, ModelFormatError,
)
from fisherprune.modelio import MAGIC, load_model, save_model
from fisherprune.network import build_cnn

from test_modelio import rewrite_header

HEADS = ["none", "qda", "svml", "svmr"]
DELETE = object()
REPLACEMENTS = [None, True, -1, 10 ** 12, 0.5, "x", [1], {"k": 1}, DELETE]


def head_features(seed=2):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-1, 1, (12, 2)), rng.normal(1, 1, (12, 2))])
    return x, np.repeat([0, 1], 12)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Bytes of a tiny net saved with each head kind."""
    tmp = tmp_path_factory.mktemp("fuzz")
    net = build_cnn((1, 6, 6), [(2, 3, 1, True)], [], 2, seed=4)
    x, y = head_features()
    out = {}
    for kind in HEADS:
        head = None if kind == "none" else to_arrays(fit_head(kind, x, y))
        path = tmp / f"{kind}.ldap1"
        save_model(net, str(path), provenance={"seed": 4}, classifier=head)
        out[kind] = path.read_bytes()
    return out


def split(data):
    """(header dict, blob) of a container's bytes."""
    (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(data[start:start + hlen]), data[start + hlen:]


def pack(header, blob):
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<Q", len(raw)) + raw + blob


def header_paths(node, prefix=()):
    """Every key path into the header, containers included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from header_paths(child, prefix + (key,))


def load_or_refuse(path, data, what):
    """Load data from path; only the typed refusals may be raised."""
    path.write_bytes(data)
    try:
        _, info = load_model(str(path))
    except ModelFormatError:
        return
    except Exception as exc:
        pytest.fail(f"{what}: load_model raised {type(exc).__name__}: {exc}")
    if info["classifier"] is not None:
        try:
            from_arrays(info["classifier"])
        except HeaderSchemaError:
            pass
        except Exception as exc:
            pytest.fail(f"{what}: from_arrays raised {type(exc).__name__}: {exc}")


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.ldap1"
    save_model(build_cnn((1, 8, 8), [(3, 3, 1, True)], [5], 2, seed=9),
               str(path))
    return path


class TestBoolIsNotAnInt:
    @pytest.mark.parametrize("mutate,field", [
        (lambda h: h["tensors"]["layer0.weights"]["shape"].__setitem__(1, True),
         "'shape'"),
        (lambda h: h["tensors"]["layer0.weights"].update(offset=False),
         "'offset'"),
        (lambda h: h["layers"][0].update(stride=True), "layer 0 'stride'"),
        (lambda h: h["layers"][0].update(pad=True), "layer 0 'pad'"),
        (lambda h: h["layers"][2].update(window=True), "layer 2 'window'"),
        (lambda h: h["input_shape"].__setitem__(0, True), "'input_shape'"),
    ], ids=["shape_extent", "offset", "stride", "pad", "window", "input_shape"])
    def test_bool_in_an_int_field(self, net_file, mutate, field):
        rewrite_header(net_file, mutate)
        with pytest.raises(HeaderSchemaError, match=field):
            load_model(str(net_file))

    def test_int_past_the_digit_limit(self, net_file):
        data = net_file.read_bytes()
        (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
        start = len(MAGIC) + 8
        raw = data[start:start + hlen].replace(b'"offset":0', b'"offset":'
                                               + b"1" * 5000, 1)
        net_file.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw
                             + data[start + hlen:])
        with pytest.raises(ModelFormatError):
            load_model(str(net_file))

    @pytest.mark.parametrize("value,kind", [
        pytest.param(value, kind, id=("" if kind == "svmr" else "svml-") + name)
        for kind in ("svmr", "svml")
        for name, value in (("no", "no"), ("value1", [0]), ("1", 1), ("None", None))])
    def test_converged_must_be_a_bool(self, value, kind):
        section = to_arrays(fit_head(kind, *head_features()))
        section["meta"]["converged"] = value
        with pytest.raises(HeaderSchemaError, match="meta 'converged'"):
            from_arrays(section)

    def test_meta_number_past_the_float_range(self):
        section = to_arrays(fit_head("svml", *head_features()))
        section["meta"]["c"] = 10 ** 400
        with pytest.raises(HeaderSchemaError, match="meta 'c'"):
            from_arrays(section)


@pytest.mark.parametrize("kind", HEADS)
class TestModelFuzz:
    def test_every_truncation(self, files, tmp_path, kind):
        data = files[kind]
        for end in range(len(data)):
            load_or_refuse(tmp_path / "m.ldap1", data[:end], f"cut at {end}")

    def test_bit_flips(self, files, tmp_path, kind):
        data = files[kind]
        rng = np.random.default_rng(HEADS.index(kind))
        for bit in rng.integers(0, 8 * len(data), 800):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            load_or_refuse(tmp_path / "m.ldap1", bytes(flipped), f"bit {bit}")

    def test_every_header_path(self, files, tmp_path, kind):
        header, blob = split(files[kind])
        text = json.dumps(header)
        for path in header_paths(header):
            for value in REPLACEMENTS:
                h = json.loads(text)
                if not path:  # the whole header
                    if value is DELETE:
                        continue
                    h = value
                elif value is DELETE:
                    del functools.reduce(operator.getitem, path[:-1], h)[path[-1]]
                else:
                    functools.reduce(operator.getitem, path[:-1], h)[path[-1]] = value
                shown = "deleted" if value is DELETE else repr(value)
                load_or_refuse(tmp_path / "m.ldap1", pack(h, blob),
                               f"{path} = {shown}")

def test_pgm_mutations(tmp_path):
    pixels = np.random.default_rng(5).integers(0, 256, 64, dtype=np.uint8)
    data = b"P5\n# a comment\n8 8\n255\n" + pixels.tobytes()
    rng = np.random.default_rng(6)
    cases = [data[:end] for end in range(len(data))]
    for bit in rng.integers(0, 8 * len(data), 1500):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases.append(bytes(flipped))
    for at, byte in zip(rng.integers(0, 24, 500), rng.integers(0, 256, 500)):
        cases.append(data[:at] + bytes([byte]) + data[at + 1:])
    path = tmp_path / "face.pgm"
    for i, case in enumerate(cases):
        path.write_bytes(case)
        try:
            _read_pgm(str(path))
        except ConfigurationError:
            pass
        except Exception as exc:
            pytest.fail(f"case {i} {case[:24]!r}: {type(exc).__name__}: {exc}")
