"""Container round trips and the three ways a file can be broken."""

import json
import re
import struct

import numpy as np
import pytest

from fisherprune.errors import (
    BadMagicError, HeaderSchemaError, ModelFormatError, NonFiniteError,
    NonFiniteWeightsError, ShapeChainError, TruncatedBlobError,
)
from fisherprune.modelio import (
    MAGIC, load_model, model_param_count, save_model,
)
from fisherprune.network import LayerSpec, Network, build_cnn


@pytest.fixture
def net():
    return build_cnn((1, 8, 8), [(3, 3, 1, True)], [5], 2, seed=9)


@pytest.fixture
def saved(net, tmp_path):
    path = tmp_path / "net.ldap1"
    save_model(net, str(path), provenance={"seed": 9, "note": "unit"})
    return path


def rewrite_header(path, mutate):
    """Parse, mutate, and re-serialize the header, keeping the blob."""
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + hlen])
    mutate(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + hlen:])


def zero_extent_net():
    """conv 3x3 pad 2 -> relu -> flatten -> softmax on a (1, 1, 4) input; its
    header's input_shape is what the zero-extent tests rewrite."""
    w = np.ones((2, 1, 3, 3), dtype=np.float32)
    return Network((1, 1, 4), [LayerSpec("conv", w, np.ones(2), pad=2),
                               LayerSpec("relu"), LayerSpec("flatten"),
                               LayerSpec("softmax")])


class TestRoundTrip:
    def test_weights_and_structure_survive(self, net, saved):
        loaded, info = load_model(str(saved))
        assert loaded.input_shape == net.input_shape
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        for a, b in zip(net.layers, loaded.layers):
            if a.weights is not None:
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.bias, b.bias)
            assert (a.stride, a.pad, a.window) == (b.stride, b.pad, b.window)
        assert info["provenance"] == {"seed": 9, "note": "unit"}
        assert info["classifier"] is None

    def test_classifier_section(self, net, tmp_path):
        path = tmp_path / "with_head.ldap1"
        head = {
            "kind": "qda",
            "meta": {"lam": 0.001},
            "tensors": {"means": np.ones((2, 4), dtype=np.float32)},
        }
        save_model(net, str(path), classifier=head)
        _, info = load_model(str(path))
        assert info["classifier"]["kind"] == "qda"
        assert info["classifier"]["meta"] == {"lam": 0.001}
        np.testing.assert_array_equal(
            info["classifier"]["tensors"]["means"], np.ones((2, 4)))

    def test_param_count_split(self, net, saved):
        counts = model_param_count(str(saved))
        conv, fc = net.param_count()
        assert counts == {"conv": conv, "fc": fc, "total": conv + fc}

    def test_saved_twice_is_byte_identical(self, net, tmp_path):
        a, b = tmp_path / "a.ldap1", tmp_path / "b.ldap1"
        save_model(net, str(a), provenance={"x": 1})
        save_model(net, str(b), provenance={"x": 1})
        assert a.read_bytes() == b.read_bytes()


class TestDefects:
    def test_wrong_magic(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(b"XXXXX" + data[5:])
        with pytest.raises(BadMagicError):
            load_model(str(saved))

    def test_header_not_json(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:13] + b"\xff" + data[14:])
        with pytest.raises(BadMagicError):
            load_model(str(saved))

    def test_truncated_blob(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:-40])
        with pytest.raises(TruncatedBlobError):
            load_model(str(saved))

    def test_header_length_overruns_file(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:5] + struct.pack("<Q", 10 ** 9) + data[13:])
        with pytest.raises(TruncatedBlobError):
            load_model(str(saved))

    def test_missing_tensor_reference(self, saved):
        rewrite_header(saved, lambda h: h["tensors"].pop("layer0.bias"))
        with pytest.raises(ShapeChainError):
            load_model(str(saved))

    def test_incomposable_layer_chain(self, saved):
        def mutate(h):
            h["tensors"]["layer0.weights"]["shape"] = [3, 2, 3, 3]

        rewrite_header(saved, mutate)
        with pytest.raises(ShapeChainError):
            load_model(str(saved))

    @pytest.mark.parametrize("mutate,message", [
        (lambda h: h["layers"][2].update(window=0),
         r"layer 2 \(maxpool\): pool window must be >= 1"),
        (lambda h: h["layers"][0].update(stride=0),
         r"layer 0 \(conv\): stride must be >= 1"),
        (lambda h: h["layers"][0].update(pad=3),
         r"layer 0 \(conv\): pad 3 must be below the 3x3 kernel"),
    ], ids=["pool_window_0", "conv_stride_0", "conv_pad_kh"])
    def test_invalid_geometry(self, saved, mutate, message):
        rewrite_header(saved, mutate)
        with pytest.raises(ShapeChainError, match=message):
            load_model(str(saved))

    def test_unaffordable_pad_fails_at_load(self, tmp_path):
        # shapes chain ((2, 6, 6) out of the conv), but a forward would pad
        # the input to about 2*10**12 cells per side; no forward is run here
        path = tmp_path / "huge_pad.ldap1"
        save_model(build_cnn((1, 6, 6), [(2, 3, 1, True)], [], 2), str(path))
        rewrite_header(path, lambda h: h["layers"][0].update(
            pad=10**12, stride=4 * 10**11))
        with pytest.raises(ShapeChainError,
                           match=r"layer 0 \(conv\): pad 1000000000000 must be below"):
            load_model(str(path))

    def test_zero_input_extent_fails_at_load(self, tmp_path):
        # a pad-2 3x3 conv chains (1, 0, 4) to (2, 2, 6) unless refused
        path = tmp_path / "zero_extent.ldap1"
        save_model(zero_extent_net(), str(path))
        rewrite_header(path, lambda h: h.update(input_shape=[1, 0, 4]))
        with pytest.raises(ShapeChainError, match="input extents must be >= 1"):
            load_model(str(path))

    def test_pad_one_below_the_kernel_loads(self, tmp_path):
        path = tmp_path / "pad.ldap1"
        save_model(build_cnn((1, 6, 6), [(2, 3, 2, True)], [], 2), str(path))
        net, _ = load_model(str(path))
        assert net.layers[0].pad == 2

    def test_unknown_layer_kind(self, saved):
        rewrite_header(saved, lambda h: h["layers"][0].update(kind="mystery"))
        with pytest.raises(ShapeChainError):
            load_model(str(saved))

    def test_layer_entry_without_weights(self, saved):
        rewrite_header(saved, lambda h: h["layers"][0].pop("weights"))
        with pytest.raises(HeaderSchemaError, match="layer 0 'weights'"):
            load_model(str(saved))

    def test_layers_not_a_list(self, saved):
        rewrite_header(saved, lambda h: h.update(layers=5))
        with pytest.raises(HeaderSchemaError, match="'layers': expected list"):
            load_model(str(saved))

    @pytest.mark.parametrize("mutate,message", [
        (lambda h: h.update(input_shape=5), "'input_shape'"),
        (lambda h: h["layers"].__setitem__(0, "conv"), "layer 0: expected dict"),
        (lambda h: h["layers"][2].pop("window"), "layer 2 'window'"),
        (lambda h: h.update(tensors=[]), "'tensors': expected dict"),
        (lambda h: h["tensors"].update({"layer0.weights": 3}),
         "tensor 'layer0.weights': expected dict"),
        (lambda h: h["tensors"]["layer0.weights"].pop("shape"), "'shape'"),
        (lambda h: h["tensors"]["layer0.bias"].update(shape=[[3]]),
         "'shape': expected int"),
        (lambda h: h["layers"][0].update(stride=[1]), "layer 0 'stride'"),
        (lambda h: h["tensors"]["layer0.weights"].update(offset=-4),
         "negative offset"),
        (lambda h: h["tensors"]["layer0.bias"].update(shape=[-1]),
         "negative offset or extent"),
        (lambda h: h.update(classifier=3), "'classifier'"),
    ], ids=["input_shape", "layer_entry", "pool_window", "tensors",
            "tensor_entry", "tensor_shape", "tensor_shape_entry", "conv_stride",
            "tensor_offset", "tensor_extent", "classifier"])
    def test_mistyped_header_fields(self, saved, mutate, message):
        rewrite_header(saved, mutate)
        with pytest.raises(HeaderSchemaError, match=message):
            load_model(str(saved))


def poke_tensor(path, name, index, value):
    """Overwrite one float32 of a stored tensor in place."""
    data = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + hlen])
    at = start + hlen + header["tensors"][name]["offset"] + 4 * index
    struct.pack_into("<f", data, at, value)
    path.write_bytes(bytes(data))


class TestNonFiniteTensors:
    @pytest.mark.parametrize("name,index,value", [
        ("layer0.weights", 4, float("nan")),
        ("layer0.bias", 1, float("inf")),
        ("layer6.weights", 0, float("-inf")),
    ])
    def test_rejected_naming_the_tensor(self, saved, name, index, value):
        poke_tensor(saved, name, index, value)
        with pytest.raises(NonFiniteWeightsError, match=repr(name)):
            load_model(str(saved))
        assert issubclass(NonFiniteWeightsError, ModelFormatError)

    def test_classifier_tensors_checked_too(self, net, tmp_path):
        path = tmp_path / "with_head.ldap1"
        save_model(net, str(path), classifier={
            "kind": "qda", "meta": {},
            "tensors": {"means": np.ones((2, 4), dtype=np.float32)}})
        poke_tensor(path, "classifier.means", 6, float("nan"))
        with pytest.raises(NonFiniteWeightsError, match="classifier.means"):
            load_model(str(path))


class TestSaveRefusesNonFinite:
    """save_model writes only files that load_model and a strict JSON
    reader accept; a refused save leaves no file."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("index,value", [
        (0, np.nan), (3, np.inf), (5, -np.inf), (7, 1e300)])
    def test_weight_tensor(self, net, tmp_path, index, value):
        net.layers[0].weights = net.layers[0].weights.astype(np.float64)
        net.layers[0].weights.flat[index] = value  # 1e300 overflows float32
        path = tmp_path / "net.ldap1"
        with pytest.raises(NonFiniteError, match="'layer0.weights'"):
            save_model(net, str(path))
        assert not path.exists()

    def test_classifier_tensor(self, net, tmp_path):
        means = np.ones((2, 4), dtype=np.float32)
        means[1, 2] = np.nan
        path = tmp_path / "net.ldap1"
        with pytest.raises(NonFiniteError, match="'classifier.means'"):
            save_model(net, str(path), classifier={
                "kind": "qda", "meta": {}, "tensors": {"means": means}})
        assert not path.exists()

    @pytest.mark.parametrize("provenance,classifier,key", [
        ({}, {"kind": "svml", "meta": {"b": np.inf}, "tensors": {}},
         "['classifier']['meta']['b']"),
        ({"grid": [0.1, float("nan")]}, None, "['provenance']['grid'][1]"),
        ({"run": {"loss": -np.inf}}, None, "['provenance']['run']['loss']"),
    ], ids=["meta", "provenance_list", "provenance_dict"])
    def test_header_value(self, net, tmp_path, provenance, classifier, key):
        path = tmp_path / "net.ldap1"
        with pytest.raises(NonFiniteError, match=re.escape(key)):
            save_model(net, str(path), provenance=provenance,
                       classifier=classifier)
        assert not path.exists()

    def test_finite_file_is_strict_json(self, net, saved):
        data = saved.read_bytes()
        (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
        start = len(MAGIC) + 8

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        json.loads(data[start:start + hlen], parse_constant=refuse)
