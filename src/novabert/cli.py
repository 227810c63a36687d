"""Command-line entry points.

Subcommands: prepare-data, train, evaluate, ablate, dump-attention,
profile, compare. Configuration lives in an INI file with a [model] and
an optional [training] section; CLI flags override individual keys.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import fcntl
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from novabert import checkpoint as CK
from novabert import data as D
from novabert import tensor as T
from novabert import train as TR
from novabert.model import DEFAULT_DTYPE, Model, ModelConfig
from novabert.profiler import profile_cost

REQUIRED_MODEL_KEYS = ("hidden_size", "num_heads", "num_layers", "max_len")
# INI key -> parser; absent keys take the dataclass defaults
_MODEL_KEYS = {
    "hidden_size": int, "num_heads": int, "num_layers": int, "max_len": int,
    "attention": str, "fusion": str, "dropout": float, "mask_prob": float,
    "features": lambda raw: [f.strip() for f in raw.split(",") if f.strip()],
    "use_position": lambda raw: raw.lower() != "false",
    "gating_mode": str,
}
_TRAIN_KEYS = {
    "learning_rate": float, "epochs": int, "batch_size": int,
    "warmup_frac": float, "seed": int, "clip_norm": float, "eval_every": int,
}
_DTYPES = {"f32": np.float32, "f64": np.float64}


class CliError(RuntimeError):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config and output-directory plumbing
# ---------------------------------------------------------------------------

def read_config(path, overrides=None):
    """Parse the INI config into (ModelConfig, TrainConfig)."""
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise CliError(f"config parse error in {path}: {e}", code=2)
    for name in cp.sections():
        if name not in ("model", "training"):
            raise CliError(f"config {path}: unknown section '{name}'", code=2)
    model = cp["model"] if cp.has_section("model") else {}
    for key in REQUIRED_MODEL_KEYS:
        if key not in model:
            raise CliError(
                f"config {path}: missing required key '{key}' in [model]",
                code=2)
    tr = cp["training"] if cp.has_section("training") else {}
    mc = _parse_section(path, "model", model, _MODEL_KEYS)
    tc = _parse_section(path, "training", tr, _TRAIN_KEYS)
    for key, val in (overrides or {}).items():
        if val is not None:
            (mc if key in _MODEL_KEYS else tc)[key] = val
    try:
        return ModelConfig(**mc), TR.TrainConfig(**tc)
    except ValueError as e:
        raise CliError(f"config {path}: {e}", code=2)


def _parse_section(path, name, section, parsers):
    """The keys of one INI section, parsed; a key that parsers lacks is an
    error."""
    out = {}
    for key, raw in section.items():
        if key not in parsers:
            raise CliError(f"config {path}: unknown key '{key}' in [{name}]",
                           code=2)
        try:
            out[key] = parsers[key](raw)
        except ValueError as e:
            raise CliError(f"config {path}: bad value for '{key}' in "
                           f"[{name}]: {e}", code=2)
    return out


class OutputDir:
    """Writable output directory that one run at a time holds, by an
    exclusive ``flock`` on its ``.lock`` file. The kernel drops the lock
    however the holder ends (exit, kill or reboot), so a ``.lock`` left by
    an ended run is taken over; the pid written into it is for people to
    read. Each OutputDir opens the file anew, so a second one on a held
    directory is refused, in the same process too."""

    def __init__(self, path):
        self.path = Path(path)
        self.lock = self.path / ".lock"

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.lock, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # a finishing run may have unlinked the file between our
                # open and our flock; a lock on that file guards nothing
                if os.path.samestat(os.fstat(fd), os.stat(self.lock)):
                    os.ftruncate(fd, 0)
                    os.write(fd, str(os.getpid()).encode())
                    self.fd, fd = fd, None  # held until __exit__
                    return self.path
            except BlockingIOError:
                raise CliError(f"output directory {self.path} is locked by "
                               f"another run") from None
            except FileNotFoundError:
                pass
            finally:
                if fd is not None:
                    os.close(fd)

    def __exit__(self, *exc):
        self.lock.unlink(missing_ok=True)
        os.close(self.fd)


def _load_schema(args, mcfg):
    """The schema file, checked against the side features mcfg names."""
    schema = D.load_schema(args.schema)
    try:
        mcfg.fusion_inputs(schema)
    except ValueError as e:
        raise CliError(f"config {args.config}: {e}", code=2)
    return schema


def _load_split(args, mcfg):
    schema = _load_schema(args, mcfg)
    catalog, sequences = D.load_dataset(args.data, args.items, schema)
    return schema, catalog, D.leave_one_out_split(sequences)


def _write_text(path, text):
    with CK.replaced_on_success(path) as (tmp,):
        tmp.write_text(text, encoding="utf-8")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# prepare-data
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"\((\d{4})\)\s*$")


def _dat_rows(path, n):
    """The ::-separated fields of each non-blank line of a .dat file; a
    line without n fields is a DataError naming the file and line."""
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != n:
                raise D.DataError(f"{path}:{lineno}: expected {n} "
                                  f"::-separated fields, got {len(fields)}")
            yield fields


def cmd_prepare_data(args):
    """Convert MovieLens ::-separated .dat files to the TSV layout.

    The three outputs appear together once every input line has parsed; a
    malformed line leaves none of them behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "items.tsv", out / "interactions.tsv", out / "schema.ini"]
    with CK.replaced_on_success(*paths) as (items_tmp, inter_tmp, schema_tmp):
        with open(items_tmp, "w", encoding="utf-8") as dst:
            dst.write("item_id\tyear\tgenre\n")
            for movie_id, title, genres in _dat_rows(args.items, 3):
                m = _YEAR_RE.search(title)
                year = m.group(1) if m else ""
                dst.write(f"{movie_id}\t{year}\t{genres}\n")
        with open(inter_tmp, "w", encoding="utf-8") as dst:
            dst.write("user_id\titem_id\ttimestamp\trating\n")
            for user, item, rating, ts in _dat_rows(args.data, 4):
                dst.write(f"{user}\t{item}\t{ts}\t{rating}\n")
        schema = D.SideInfoSchema([
            D.FeatureSpec("year", "item", "bucketed",
                          buckets=[1940.0, 1950.0, 1960.0, 1970.0, 1980.0,
                                   1985.0, 1990.0, 1995.0]),
            D.FeatureSpec("genre", "item", "multi"),
            D.FeatureSpec("rating", "behavior", "categorical"),
        ])
        D.save_schema(schema, schema_tmp)
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0


# ---------------------------------------------------------------------------
# train / evaluate / ablate / compare
# ---------------------------------------------------------------------------

def cmd_train(args):
    mcfg, tcfg = read_config(args.config, overrides={
        "attention": args.attention, "fusion": args.fusion,
        "seed": args.seed})
    schema, catalog, split = _load_split(args, mcfg)
    with OutputDir(args.out) as out:
        model = Model(mcfg, schema, catalog, seed=tcfg.seed,
                      dtype=_DTYPES[args.precision])
        result, test = TR.fit(model, split, tcfg, log=print)
        pop = TR.popularity_metrics(
            TR.popularity_baseline(split.train), split.test, catalog.m)
        CK.save_checkpoint(out / "checkpoint.bin", model,
                           metadata={"best_epoch": result.best_epoch,
                                     "seed": tcfg.seed,
                                     "best_hr10": (result.best_val.hr10
                                                   if result.best_val else None)})
        _write_json(out / "metrics.json", {
            "validation": result.best_val.to_dict() if result.best_val else None,
            "test": test.to_dict(),
            "popularity_baseline": pop.to_dict(),
            "history": result.history,
        })
        print(f"test HR@10 {test.hr10:.4f} NDCG@10 {test.ndcg10:.4f}")
    return 0


def cmd_evaluate(args):
    model, meta, _ = CK.load_checkpoint(args.checkpoint)
    sequences = D.load_interactions(args.data, model.schema, model.catalog)
    report = TR.rank_all(model, D.leave_one_out_split(sequences).test)
    payload = {"test": report.to_dict(), "checkpoint_metadata": meta}
    if args.out:
        with OutputDir(args.out) as out:
            _write_json(out / "metrics.json", payload)
    print(json.dumps(payload["test"], indent=2, sort_keys=True))
    return 0


_METRIC_COLS = ("HR@1", "HR@5", "HR@10", "NDCG@5", "NDCG@10", "users")


def cmd_ablate(args):
    mcfg, tcfg = read_config(args.config, overrides={
        "attention": args.attention, "fusion": args.fusion,
        "seed": args.seed})
    schema, catalog, split = _load_split(args, mcfg)
    with OutputDir(args.out) as out:
        table = TR.ablate(schema, catalog, split, mcfg, tcfg, log=print)
        cols = _METRIC_COLS + ("fingerprint",)
        lines = ["subset," + ",".join(cols)]
        for name, rep in table.items():
            row = rep.to_dict()
            lines.append(name + "," + ",".join(str(row[c]) for c in cols))
        _write_text(out / "ablation.csv", "\n".join(lines) + "\n")
        for name, rep in table.items():
            print(f"{name:>10}: HR@10 {rep.hr10:.4f} NDCG@10 {rep.ndcg10:.4f}")
    return 0


def cmd_compare(args):
    """Invasive vs non-invasive stack under a shared seed."""
    mcfg, tcfg = read_config(args.config, overrides={
        "fusion": args.fusion, "seed": args.seed})
    schema, catalog, split = _load_split(args, mcfg)
    rows = {}
    with OutputDir(args.out) as out:
        for attention in ("invasive", "nova"):
            model = Model(dataclasses.replace(mcfg, attention=attention),
                          schema, catalog, seed=tcfg.seed,
                          dtype=_DTYPES[args.precision])
            _, test = TR.fit(model, split, tcfg,
                             log=lambda m, a=attention: print(f"[{a}] {m}"))
            rows[attention] = test.to_dict()
        diff = {c: rows["nova"][c] - rows["invasive"][c]
                for c in _METRIC_COLS if c != "users"}
        _write_json(out / "compare.json",
                    {"invasive": rows["invasive"], "nova": rows["nova"],
                     "diff": diff})
        print(f"{'metric':>10} {'invasive':>10} {'nova':>10} {'diff':>10}")
        for c in diff:
            print(f"{c:>10} {rows['invasive'][c]:>10.4f} "
                  f"{rows['nova'][c]:>10.4f} {diff[c]:>+10.4f}")
    return 0


# ---------------------------------------------------------------------------
# dump-attention
# ---------------------------------------------------------------------------

# <sample>_<head>.csv / .pgm, the files one attention dump writes
_DUMP_FILE = re.compile(r"\d+_\d+\.(csv|pgm)")


def _write_pgm(path, matrix):
    """8-bit grayscale, darker = higher weight."""
    top = matrix.max()
    scaled = matrix / top if top > 0 else matrix
    pixels = (255 - np.round(scaled * 255)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode())
        fh.write(pixels.tobytes())


def cmd_dump_attention(args):
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    model, _, _ = CK.load_checkpoint(args.checkpoint)
    if not 0 <= args.layer < model.config.num_layers:
        raise CliError(f"layer {args.layer} out of range "
                       f"(model has {model.config.num_layers} layers)")
    sequences = D.load_interactions(args.data, model.schema, model.catalog)
    pairs = D.leave_one_out_split(sequences).test
    n = args.samples
    if n > len(pairs):
        print(f"warning: only {len(pairs)} samples available, "
              f"clamping from {n}", file=sys.stderr)
        n = len(pairs)
    rng = np.random.default_rng(args.seed)
    chosen = rng.choice(len(pairs), size=n, replace=False)
    with OutputDir(args.out) as out:
        att_dir = out / "attention"
        att_dir.mkdir(exist_ok=True)
        # a rerun with fewer samples or heads must not leave the last
        # dump's maps beside its own; other files are not ours to remove
        for old in att_dir.iterdir():
            if _DUMP_FILE.fullmatch(old.name):
                old.unlink()
        L = model.config.max_len
        for s, idx in enumerate(chosen):
            pair = pairs[idx]
            batch = D.make_eval_batch([pair], model.schema, model.catalog, L)
            with T.no_grad():
                _, attns = model.encode(batch, collect_attn=True)
            lp = int(batch.pad_mask[0].sum())      # right-aligned
            sub = attns[args.layer].data[0][:, L - lp:, L - lp:]  # [H, lp, lp]
            for head, mat in enumerate(sub):
                base = att_dir / f"{s}_{head}"
                np.savetxt(f"{base}.csv", mat, delimiter=",", fmt="%.10g")
                _write_pgm(f"{base}.pgm", mat)
        print(f"wrote {n} samples x {model.config.num_heads} heads "
              f"to {att_dir}")
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def cmd_profile(args):
    mcfg, _ = read_config(args.config, overrides={
        "attention": args.attention, "fusion": args.fusion})
    schema = _load_schema(args, mcfg)
    catalog = D.load_items(args.items, schema)
    # behavior vocabularies are frozen from the interaction log when given
    if args.data:
        D.load_interactions(args.data, schema, catalog)
    prof = profile_cost(mcfg, schema, catalog.m)
    if args.out:
        with OutputDir(args.out) as out:
            _write_text(out / "profile.json", prof.to_json() + "\n")
    print(prof.to_json())
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="novabert",
        description="Sequential recommender with non-invasive side-"
                    "information fusion.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    common_model = argparse.ArgumentParser(add_help=False)
    common_model.add_argument("--config", required=True)
    common_model.add_argument("--data", required=True)
    common_model.add_argument("--items", required=True)
    common_model.add_argument("--schema", required=True)
    common_model.add_argument("--out", required=True)
    common_model.add_argument("--seed", type=int, default=None)
    common_model.add_argument("--fusion",
                              choices=["add", "concat", "gating"], default=None)
    # compare trains both stacks, and ablate trains at the default precision
    attention = argparse.ArgumentParser(add_help=False)
    attention.add_argument("--attention",
                           choices=["invasive", "nova"], default=None)
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision", choices=list(_DTYPES),
        default={t: k for k, t in _DTYPES.items()}[DEFAULT_DTYPE],
        help="training dtype (default %(default)s); f32 stores parameters "
             "and computes in float32 (Adam's moments stay float64), and a "
             "checkpoint reloads in the dtype it was saved in")

    sp = add("prepare-data", cmd_prepare_data,
             help="convert ::-separated rating/movie files to TSV")
    sp.add_argument("--data", required=True, help="ratings file")
    sp.add_argument("--items", required=True, help="movies file")
    sp.add_argument("--out", required=True)

    add("train", cmd_train, parents=[common_model, attention, precision],
        help="train a model and write checkpoint.bin + metrics.json")

    sp = add("evaluate", cmd_evaluate, help="rank-all metrics on the test split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", default=None)

    add("ablate", cmd_ablate, parents=[common_model, attention],
        help="train per side-information subset, write ablation.csv")

    add("compare", cmd_compare, parents=[common_model, precision],
        help="train invasive vs nova with a shared seed")

    sp = add("dump-attention", cmd_dump_attention,
             help="write per-sample per-head attention CSV + PGM files")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--layer", type=int, default=0)
    sp.add_argument("--samples", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("profile", cmd_profile, parents=[attention],
             help="analytic FLOP/parameter report")
    sp.add_argument("--config", required=True)
    sp.add_argument("--items", required=True)
    sp.add_argument("--schema", required=True)
    sp.add_argument("--data", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--fusion", choices=["add", "concat", "gating"],
                    default=None)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (D.DataError, CK.CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
