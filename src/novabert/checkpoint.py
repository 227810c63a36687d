"""Single-file binary checkpoints.

Layout:

    bytes 0..7    magic  b"NOVACKPT"
    bytes 8..11   format version, little-endian uint32
    bytes 12..19  index length in bytes, little-endian uint64
    index         UTF-8 JSON with sorted keys: model config, feature
                  schema, item catalog, training metadata, optional
                  optimizer scalars, and the tensor directory
    data          the tensors, little-endian float64, in directory order

The index makes the file self-describing: the model is rebuilt from it
alone, without the original config or item files. The catalog is rebuilt
from the raw item values with the stored (frozen) vocabularies, and must
match the encoded features the index also stores. Tensors are written in
sorted-name order and the JSON is canonical, so saving a freshly loaded
checkpoint reproduces the original file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from novabert.data import FeatureSpec, SideInfoSchema, build_catalog
from novabert.model import Model, ModelConfig

MAGIC = b"NOVACKPT"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, model, metadata=None, optimizer=None):
    names = sorted(model.params)
    directory = []
    offset = 0
    blobs = []
    tensors = {name: model.params[name].data for name in names}
    if optimizer is not None:
        for name in names:
            tensors[f"opt.m.{name}"] = optimizer.m[name]
            tensors[f"opt.v.{name}"] = optimizer.v[name]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        blob = arr.tobytes()
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    index = {
        "config": dataclasses.asdict(model.config),
        "schema": [dataclasses.asdict(f) for f in model.schema.features],
        "catalog": {"raw_ids": model.catalog.raw_ids,
                    "raw_features": model.catalog.raw_features,
                    "features": model.catalog.features},
        "metadata": dict(metadata or {}),
        "optimizer": {"t": optimizer.t} if optimizer is not None else None,
        "tensors": directory,
    }
    index_bytes = json.dumps(index, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(index_bytes)))
        fh.write(index_bytes)
        for blob in blobs:
            fh.write(blob)


def read_index(path):
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 12)
        if head[:len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", head[8:12])
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {version}")
        (index_len,) = struct.unpack("<Q", head[12:20])
        index = json.loads(fh.read(index_len).decode("utf-8"))
        data_start = fh.tell()
    return index, data_start


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file.

    Returns (model, metadata, optimizer_state) where optimizer_state is
    {"t": int, "m": dict, "v": dict} or None.
    """
    index, data_start = read_index(path)
    schema = SideInfoSchema([FeatureSpec(**d) for d in index["schema"]])
    stored = index["catalog"]
    catalog = build_catalog(stored["raw_ids"], schema, stored["raw_features"])
    if catalog.features != stored["features"]:
        raise CheckpointError(
            f"{path}: stored item features do not match their raw values")
    config = ModelConfig(**index["config"])
    model = Model(config, schema, catalog, seed=0)

    arrays = {}
    with open(path, "rb") as fh:
        for entry in index["tensors"]:
            fh.seek(data_start + entry["offset"])
            blob = fh.read(entry["nbytes"])
            if len(blob) != entry["nbytes"]:
                raise CheckpointError(
                    f"{path}: truncated tensor {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(
                blob, dtype="<f8").reshape(entry["shape"]).astype(np.float64)

    for name, p in model.params.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing tensor {name}")
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape "
                f"{arrays[name].shape}, expected {p.data.shape}")
        p.data[:] = arrays[name]

    opt_state = None
    if index["optimizer"] is not None:
        opt_state = {"t": index["optimizer"]["t"],
                     "m": {n[len("opt.m."):]: a for n, a in arrays.items()
                           if n.startswith("opt.m.")},
                     "v": {n[len("opt.v."):]: a for n, a in arrays.items()
                           if n.startswith("opt.v.")}}
    return model, index["metadata"], opt_state
