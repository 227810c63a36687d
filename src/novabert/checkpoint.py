"""Single-file checkpoints: an uncompressed numpy ``.npz`` archive.

One ``.npy`` member per tensor, named as in ``Model.params`` (``opt.m.<name>``
and ``opt.v.<name>`` for the Adam moments) and stored in its own dtype, plus
an ``index`` member: canonical JSON of the format version, model config,
feature schema, item catalog, metadata and optimizer scalars. The float64
model is rebuilt from the file alone; the catalog is rebuilt from the raw
item values and must match the encoded features the index stores. Sorted
members, canonical JSON and zip's fixed entry dates make save -> load ->
save byte-identical. Every member's CRC-32 is checked on load and nothing is
unpickled, so a damaged file raises ``CheckpointError``. Files in the
earlier hand-written format (version 1) are not read; re-create them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from novabert.data import FeatureSpec, SideInfoSchema, build_catalog
from novabert.model import Model, ModelConfig

VERSION = 2


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, model, metadata=None, optimizer=None):
    """Write the model (and optimizer state) to path, atomically: a failed
    save leaves the previous file and no temporary file."""
    tensors = {name: p.data for name, p in model.params.items()}
    if optimizer is not None:
        for name in model.params:
            tensors[f"opt.m.{name}"] = optimizer.m[name]
            tensors[f"opt.v.{name}"] = optimizer.v[name]
    index = {
        "version": VERSION,
        "config": dataclasses.asdict(model.config),
        "schema": [dataclasses.asdict(f) for f in model.schema.features],
        "catalog": {"raw_ids": model.catalog.raw_ids,
                    "raw_features": model.catalog.raw_features,
                    "features": model.catalog.features},
        "metadata": dict(metadata or {}),
        "optimizer": {"t": optimizer.t} if optimizer is not None else None,
    }
    tensors["index"] = np.frombuffer(json.dumps(
        index, sort_keys=True, separators=(",", ":")).encode(), dtype=np.uint8)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        # through a handle: given a file name, savez appends ".npz"
        with open(tmp, "wb") as fh:
            np.savez(fh, **{name: tensors[name] for name in sorted(tensors)})
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_archive(path):
    """(index, name -> array) of a checkpoint archive."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with archive:
                # reading a member checks its CRC only if the read reaches
                # the member's end, which a damaged .npy header can prevent
                bad = archive.zip.testzip()
                if bad is not None:
                    raise zipfile.BadZipFile(f"Bad CRC-32 for file {bad!r}")
                index = json.loads(archive["index"].tobytes())
                if index["version"] != VERSION:
                    raise ValueError("another format version")
                return index, {name: archive[name] for name in archive.files
                               if name != "index"}
        except (zipfile.BadZipFile, NotImplementedError, RuntimeError,
                OSError) as e:
            # zip damage: a CRC or header mismatch, an offset outside the
            # file, or a flag bit that asks for encryption or compression
            raise CheckpointError(f"{path}: damaged checkpoint: {e}") from e
        except (EOFError, KeyError, ValueError) as e:
            # not numpy's message, which advises allow_pickle
            raise CheckpointError(f"{path}: not a checkpoint archive "
                                  f"(format version {VERSION})") from e


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file.

    Returns (model, metadata, optimizer_state) where optimizer_state is
    {"t": int, "m": dict, "v": dict} or None.
    """
    index, arrays = _read_archive(path)
    schema = SideInfoSchema([FeatureSpec(**d) for d in index["schema"]])
    stored = index["catalog"]
    catalog = build_catalog(stored["raw_ids"], schema, stored["raw_features"])
    if catalog.features != stored["features"]:
        raise CheckpointError(
            f"{path}: stored item features do not match their raw values")
    model = Model(ModelConfig(**index["config"]), schema, catalog, seed=0)

    expected = set(model.params)
    if index["optimizer"] is not None:
        expected |= {f"opt.{k}.{n}" for k in "mv" for n in model.params}
    if set(arrays) != expected:
        # a damaged zip directory can drop members without any other error
        raise CheckpointError(f"{path}: missing or unexpected tensors "
                              f"{sorted(expected ^ set(arrays))}")
    for name, p in model.params.items():
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape "
                f"{arrays[name].shape}, expected {p.data.shape}")
        p.data[:] = arrays[name]

    opt_state = None
    if index["optimizer"] is not None:
        opt_state = {"t": index["optimizer"]["t"],
                     **{k: {n: arrays[f"opt.{k}.{n}"] for n in model.params}
                        for k in "mv"}}
    return model, index["metadata"], opt_state
