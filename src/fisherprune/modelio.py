"""Model container: magic, structured-text header, raw float32 blob.

Layout on disk:

    bytes 0..4    magic b"LDAP1"
    bytes 5..12   header length (unsigned 64-bit little-endian)
    header        UTF-8 JSON: input shape, layer chain, tensor directory
                  (name -> shape + byte offset), provenance, and an
                  optional classifier section (kind tag + its own tensors)
    blob          all tensors back to back, little-endian float32

Every header field is checked by `_require` as it is read: a bool is not an
int or a number, numbers must be finite, and flags such as the classifier's
`converged` must be JSON bools. Load failures are told apart: a wrong
magic, a blob shorter than the directory demands, a header field that is
missing or mistyped, a tensor holding NaN or infinity, and a layer chain
whose shapes do not compose each raise their own error type.
"""

from __future__ import annotations

import json
import math
import struct
import sys

import numpy as np

from .errors import (
    BadMagicError, DimensionError, HeaderSchemaError, NonFiniteError,
    NonFiniteWeightsError, ShapeChainError, TruncatedBlobError,
)
from .network import LayerSpec, Network

MAGIC = b"LDAP1"


# Header fields of each layer kind besides "kind": name -> default, None
# when the field is required. "weights" and "bias" name tensors in the
# directory; every other field is an int.
_LAYER_FIELDS = {
    "conv": {"weights": None, "bias": None, "stride": 1, "pad": 0},
    "dense": {"weights": None, "bias": None},
    "maxpool": {"window": None, "stride": None},
    "relu": {}, "flatten": {}, "softmax": {},
}
_TENSOR_FIELDS = ("weights", "bias")


def _collect_tensors(net: Network, classifier=None):
    """Flatten all parameter arrays into (header_layers, directory, blobs,
    classifier section); a tensor non-finite as float32 is refused."""
    layers = []
    directory = {}
    blobs = []
    offset = 0

    def put(name, arr):
        nonlocal offset
        a = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(a).all():
            raise NonFiniteError(f"tensor {name!r} holds NaN or infinity")
        directory[name] = {"shape": list(a.shape), "offset": offset}
        blobs.append(a.tobytes())
        offset += a.nbytes
        return name

    for i, layer in enumerate(net.layers):
        entry = {"kind": layer.kind}
        for key in _LAYER_FIELDS[layer.kind]:
            entry[key] = (put(f"layer{i}.{key}", getattr(layer, key))
                          if key in _TENSOR_FIELDS else getattr(layer, key))
        layers.append(entry)

    clf_section = None if classifier is None else {
        "kind": classifier["kind"], "meta": classifier.get("meta", {}),
        "tensors": {name: put(f"classifier.{name}", arr)
                    for name, arr in classifier["tensors"].items()}}

    return layers, directory, blobs, clf_section


def save_model(net: Network, path, provenance=None, classifier=None):
    """Write the network (and optional classifier head) to one file.

    provenance is a JSON-serializable dict recorded verbatim in the header.
    classifier, when given, is {"kind": str, "meta": dict, "tensors": {name: array}}.
    A tensor or header value holding NaN or infinity raises NonFiniteError,
    naming it, before the file is opened.
    """
    layers, directory, blobs, clf = _collect_tensors(net, classifier)
    header = {
        "format": "LDAP1",
        "input_shape": list(net.input_shape),
        "layers": layers,
        "tensors": directory,
        "provenance": provenance or {},
    }
    if clf is not None:
        header["classifier"] = clf
    key = _nonfinite_key(header)
    if key is not None:
        raise NonFiniteError(f"header entry {key} is NaN or infinity")
    raw = json.dumps(header, sort_keys=True, separators=(",", ":"),
                     allow_nan=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines([MAGIC, struct.pack("<Q", len(raw)), raw, *blobs])


def _nonfinite_key(value, where=""):
    """The key path, such as ['classifier']['meta']['b'], of the first
    non-finite float in a JSON-like value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple)) else ())
    paths = (_nonfinite_key(item, f"{where}[{key!r}]") for key, item in items)
    return next((path for path in paths if path is not None), None)


def _require(value, kind, what):
    """value as a kind, else HeaderSchemaError naming what. A bool is not an
    int or a float, an int is read as a float, and a float must be finite."""
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        got = "missing" if value is None else f"{type(value).__name__} {value!r:.20}"
        raise HeaderSchemaError(f"{what}: expected {kind.__name__}, got {got}")
    return float(value) if kind is float else value


def _read_tensor(blob, directory, name):
    if name not in directory:
        raise ShapeChainError(f"header references missing tensor {name!r}")
    meta = _require(directory[name], dict, f"tensor {name!r}")
    what = f"tensor {name!r} 'shape'"
    shape = tuple(_require(s, int, what) for s in _require(meta.get("shape"), list, what))
    start = _require(meta.get("offset"), int, f"tensor {name!r} 'offset'")
    if start < 0 or min(shape, default=0) < 0:
        raise HeaderSchemaError(
            f"tensor {name!r} has a negative offset or extent ({start}, {shape})")
    count = math.prod(shape)
    end = start + count * 4
    if end > len(blob):
        raise TruncatedBlobError(
            f"tensor {name!r} needs bytes [{start},{end}) but blob has {len(blob)}"
        )
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
    if not np.isfinite(arr).all():
        raise NonFiniteWeightsError(f"tensor {name!r} holds NaN or infinity")
    return arr.reshape(shape).copy()


def load_model(path):
    """Read a model file back into a Network.

    Returns (net, info) where info carries the provenance dict and, when
    present, the classifier section with its tensors materialized.
    Raises BadMagicError / TruncatedBlobError / HeaderSchemaError /
    NonFiniteWeightsError / ShapeChainError on the corresponding defects.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not a model file (bad magic)")
    (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    hstart = len(MAGIC) + 8
    if hstart + hlen > len(data):
        raise TruncatedBlobError(f"{path}: header length {hlen} overruns file")
    try:
        header = json.loads(data[hstart:hstart + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, an int past the digit limit
        raise BadMagicError(f"{path}: header is not valid JSON ({exc})") from None
    blob = data[hstart + hlen:]

    _require(header, dict, f"{path}: header")
    directory = _require(header.get("tensors", {}), dict, f"{path}: 'tensors'")
    entries = _require(header.get("layers", []), list, f"{path}: 'layers'")
    layers = []
    for i, entry in enumerate(entries):
        where = f"{path}: layer {i}"
        kind = _require(_require(entry, dict, where).get("kind"), str,
                        f"{where} 'kind'")
        if kind not in _LAYER_FIELDS:
            raise ShapeChainError(f"layer {i}: unknown kind {kind!r}")
        fields = {}
        for key, default in _LAYER_FIELDS[kind].items():
            value = entry.get(key, default)
            fields[key] = (
                _read_tensor(blob, directory, _require(value, str, f"{where} {key!r}"))
                if key in _TENSOR_FIELDS else _require(value, int, f"{where} {key!r}"))
        try:
            layers.append(getattr(LayerSpec, kind)(**fields))
        except DimensionError as exc:
            raise ShapeChainError(f"layer {i}: {exc}") from None

    what = f"{path}: 'input_shape'"
    input_shape = _require(header.get("input_shape", []), list, what)
    net = Network(tuple(_require(s, int, what) for s in input_shape), layers)
    try:
        net.infer_shapes()
    except Exception as exc:
        raise ShapeChainError(f"{path}: layer shapes do not compose: {exc}") from None

    info = {"provenance": header.get("provenance", {}), "classifier": None}
    if "classifier" in header:
        sec = _require(header["classifier"], dict, f"{path}: 'classifier'")
        refs = _require(sec.get("tensors", {}), dict,
                        f"{path}: classifier 'tensors'")
        what = f"{path}: classifier tensor"
        tensors = {k: _read_tensor(blob, directory, _require(ref, str, f"{what} {k!r}"))
                   for k, ref in refs.items()}
        info["classifier"] = {"kind": sec.get("kind"), "meta": sec.get("meta", {}),
                              "tensors": tensors}
    return net, info


def model_param_count(path):
    """Parameter totals of a saved model, split at the last conv layer.

    Everything after the last conv (dense heads and any future parametric
    layer) counts as fc. Returns {"conv": n, "fc": n, "total": n}.
    """
    net, _ = load_model(path)
    conv, fc = net.param_count()
    return {"conv": int(conv), "fc": int(fc), "total": int(conv + fc)}
