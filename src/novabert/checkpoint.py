"""Single-file checkpoints: an uncompressed numpy ``.npz`` archive.

One ``.npy`` member per tensor, named as in ``Model.params`` (``opt.m.<name>``
and ``opt.v.<name>`` for the Adam moments) and stored in its own dtype, plus
an ``index`` member: canonical JSON of the format version, model config,
feature schema, item catalog, metadata and optimizer scalars. The model is
rebuilt from the file alone, in the dtype its parameters were stored in
(float32 or float64, one for all); the catalog is rebuilt from the raw
item values and must match the encoded features the index stores. Sorted
members, canonical JSON and zip's fixed entry dates make save -> load ->
save byte-identical. Every member's CRC-32 is checked on load and nothing is
unpickled, so a damaged file raises ``CheckpointError``. Files in the
earlier hand-written format (version 1) are not read; re-create them.
``replaced_on_success`` is the program's one rename into place: checkpoints
and every CLI output are written through it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from novabert.data import FeatureSpec, SideInfoSchema, build_catalog
from novabert.model import Model, ModelConfig, param_shapes

VERSION = 2


class CheckpointError(RuntimeError):
    pass


@contextlib.contextmanager
def replaced_on_success(*paths):
    """Yield a temporary path ``.<name>.<pid>.tmp`` beside each of paths.
    When the block returns, each temporary file replaces its path
    (``os.replace``), so a reader never sees a half-written file; when it
    raises, they are removed and the paths are left as they were."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _feature_lists(catalog):
    """The catalog's item features per item, padding dropped, as stored."""
    return {name: [None] + [row if t.ndim == 1 else [v for v in row if v]
                            for row in t[1:-1].tolist()]
            for name, t in catalog.features.items()}


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
                    "features": _feature_lists(model.catalog)},
        "metadata": dict(metadata or {}),
        "optimizer": {"t": optimizer.t} if optimizer is not None else None,
    }
    tensors["index"] = np.frombuffer(json.dumps(
        index, sort_keys=True, separators=(",", ":")).encode(), dtype=np.uint8)
    # through a handle: given a file name, savez appends ".npz"
    with replaced_on_success(path) as (tmp,), open(tmp, "wb") as fh:
        np.savez(fh, **{name: tensors[name] for name in sorted(tensors)})


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
        except (EOFError, KeyError, TypeError, ValueError) as e:
            # not numpy's message, which advises allow_pickle
            raise CheckpointError(f"{path}: not a checkpoint archive "
                                  f"(format version {VERSION})") from e


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file, in its stored dtype.

    Returns (model, metadata, optimizer_state) where optimizer_state is
    {"t": int, "m": dict, "v": dict} or None.
    """
    index, arrays = _read_archive(path)
    try:
        schema = SideInfoSchema([FeatureSpec(**d) for d in index["schema"]])
        stored = index["catalog"]
        catalog = build_catalog(stored["raw_ids"], schema,
                                stored["raw_features"])
        if _feature_lists(catalog) != stored["features"]:
            raise CheckpointError(f"{path}: stored item features do not "
                                  f"match their raw values")
        config = ModelConfig(**index["config"])
        shapes = param_shapes(config, schema, catalog.m)
        metadata, optimizer = index["metadata"], index["optimizer"]
        t = None if optimizer is None else optimizer["t"]
    except (KeyError, TypeError, ValueError) as e:
        # a missing key, an unknown field or a value out of its range;
        # DataError is a ValueError
        raise CheckpointError(
            f"{path}: malformed index: {type(e).__name__}: {e}") from e

    expected = set(shapes)
    if optimizer is not None:
        expected |= {f"opt.{k}.{n}" for k in "mv" for n in shapes}
    if set(arrays) != expected:
        # a damaged zip directory can drop members without any other error
        raise CheckpointError(f"{path}: missing or unexpected tensors "
                              f"{sorted(expected ^ set(arrays))}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape "
                f"{arrays[name].shape}, expected {shape}")
    dtypes = {arrays[name].dtype for name in shapes}
    if len(dtypes) > 1 or not dtypes <= {np.dtype(np.float32),
                                         np.dtype(np.float64)}:
        raise CheckpointError(
            f"{path}: parameters must be all float32 or all float64, got "
            f"{sorted(str(d) for d in dtypes)}")
    for name in shapes:
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(
                f"{path}: tensor {name} holds a non-finite value")
    # the stored arrays become the parameters; no initial values are drawn
    model = Model(config, schema, catalog, dtype=dtypes.pop().type,
                  arrays=arrays)

    opt_state = None
    if optimizer is not None:
        opt_state = {"t": t,
                     **{k: {n: arrays[f"opt.{k}.{n}"] for n in model.params}
                        for k in "mv"}}
    return model, metadata, opt_state
