"""Bit-identity record: a fixed set of the program's outputs, compared with
the committed record ``tests/bitident_record.json``.

The outputs, at the desk shape (m=40, L=12, h=32, 2 layers) on a schema
with a multi-valued item feature and a behavior feature:

- for each of add / concat / gating x invasive / nova x float32 / float64:
  three training steps (masked batch plus tail batch, dropout on), their
  losses and every parameter gradient, the parameters after the three Adam
  steps (the third one clipped), and ``score_pairs`` on the validation
  pairs;
- one desk-compare operation (both stacks trained by ``train.train`` for
  5 epochs, as the benchmark runs it): the histories without their
  ``seconds``, and every parameter of both stacks.

Each output is kept as a SHA-256 digest of its bytes and as summary values.
The digests, and the summaries exactly, are checked only where numpy's
version, the BLAS build and the CPU equal those stored in the record, since
another BLAS may sum in another order; elsewhere the summaries are checked
within a tolerance set by the dtype. Gradients are digested with signed
zeros folded to +0: the sign of a zero gradient moves no moment and no
parameter.

A change that moves results on purpose regenerates the record with

    PYTHONPATH=src python tests/test_bitident.py --write

and says which outputs moved, by how much and why. Regenerating it to make
an unintended change pass defeats the check.
"""

import hashlib
import itertools
import json
import math
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from novabert import data as D
from novabert import tensor as T
from novabert import train as TR
from novabert.data import FeatureSpec, SideInfoSchema
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, make_catalog

RECORD = Path(__file__).with_name("bitident_record.json")
STEPS = 3
# summaries off the recorded machine: relative, by dtype (desk-compare
# trains in float32)
SUMMARY_RTOL = {"float32": 1e-3, "float64": 1e-7}


def environment():
    """What the exact digests depend on besides the code."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu": cpu, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def desk_problem(seed=0):
    """(schema, catalog, split): branching sequences of lengths 5 to 12 over
    40 items, with the rating behavior feature and a 1-3 valued genre item
    feature."""
    _, _, seqs = branching_dataset(m=40, n_seq=48, length=12, seed=seed)
    rng = np.random.default_rng(seed)
    genre = FeatureSpec("genre", "item", "multi")
    rating = FeatureSpec("rating", "behavior", "categorical")
    rating.build_vocab(["0", "1"])
    schema = SideInfoSchema([genre, rating])
    catalog = make_catalog(40, schema, {"genre": [
        "|".join(rng.choice(list("abcde"), size=int(rng.integers(1, 4)),
                            replace=False)) for _ in range(40)]})
    seqs = [replace(s, items=s.items[:n], timestamps=s.timestamps[:n],
                    behavior={k: v[:n] for k, v in s.behavior.items()},
                    raw_behavior={k: v[:n] for k, v in s.raw_behavior.items()})
            for s, n in zip(seqs, itertools.cycle(range(5, 13)))]
    return schema, catalog, D.leave_one_out_split(seqs)


def train_case(attention, fusion, dtype):
    """Three training steps as ``train.train`` takes them, then scores."""
    schema, catalog, split = desk_problem()
    cfg = ModelConfig(hidden_size=32, num_heads=2, num_layers=2, max_len=12,
                      attention=attention, fusion=fusion, dropout=0.1)
    model = Model(cfg, schema, catalog, seed=3, dtype=dtype)
    opt = TR.Adam(model.params, TR.TrainConfig(clip_norm=0.0))
    rng = np.random.default_rng(5)
    out = {"loss": [], "grads": [], "grad_norm": []}
    for step in range(STEPS):
        seqs = split.train[step * 16:(step + 1) * 16]
        batch = D.make_masked_batch(seqs, schema, catalog, cfg.mask_prob,
                                    rng, cfg.max_len)
        tail = D.make_eval_batch([D.held_out(s) for s in seqs[:3]], schema,
                                 catalog, cfg.max_len)
        model.zero_grads()
        loss = T.add(model.loss(batch, train=True, rng=rng),
                     model.loss(tail, train=True, rng=rng))
        T.backward(loss)
        grads = [p.grad + 0.0 for p in model.params.values()]
        out["loss"].append(float(loss.data))
        out["grads"].append(_digest(*grads))
        out["grad_norm"].append(math.sqrt(sum(
            float(np.sum(g.astype(np.float64) ** 2)) for g in grads)))
        if step == STEPS - 1:  # a clip_norm far below the gradient norm
            opt.cfg = TR.TrainConfig(clip_norm=1e-2)
        opt.step(1e-3)
    params = [p.data for p in model.params.values()]
    scores, _ = TR.score_pairs(model, split.validation, batch_size=16)
    out["params"] = _digest(*params)
    out["param_norm"] = math.sqrt(sum(
        float(np.sum(p.astype(np.float64) ** 2)) for p in params))
    out["scores"] = _digest(scores)
    out["score_sum"] = float(np.abs(scores.astype(np.float64)).sum())
    return out


def desk_compare_case(seed=0):
    """One desk-compare operation of the benchmark, at its shape."""
    schema, catalog, seqs = branching_dataset(m=40, n_seq=400, length=12,
                                              seed=seed)
    split = D.leave_one_out_split(seqs)
    tcfg = TR.TrainConfig(learning_rate=5e-3, epochs=5, batch_size=128,
                          seed=seed)
    out = {}
    for attention in ("invasive", "nova"):
        cfg = ModelConfig(hidden_size=32, num_heads=2, num_layers=2,
                          max_len=12, attention=attention, fusion="gating",
                          dropout=0.0)
        model = Model(cfg, schema, catalog, seed=seed)
        history = [{k: v for k, v in h.items() if k != "seconds"}
                   for h in TR.train(model, split, tcfg).history]
        params = [p.data for p in model.params.values()]
        out[attention] = {
            "history": hashlib.sha256(json.dumps(
                history, sort_keys=True).encode()).hexdigest(),
            "losses": [h["loss"] for h in history],
            "params": _digest(*params),
            "param_norm": math.sqrt(sum(
                float(np.sum(p.astype(np.float64) ** 2)) for p in params))}
    return out


def compute():
    cases = {}
    for attention, fusion, dtype in itertools.product(
            ("invasive", "nova"), ("add", "concat", "gating"),
            (np.float32, np.float64)):
        key = f"{attention}/{fusion}/{np.dtype(dtype).name}"
        cases[key] = train_case(attention, fusion, dtype)
    return {"cases": cases, "desk_compare": desk_compare_case()}


def _split(result):
    """(digests, summaries) of a result tree: strings are digests, numbers
    and lists of numbers summaries, each under its path."""
    digests, summaries = {}, {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, path + (k,))
        elif isinstance(node, str) or (isinstance(node, list) and node
                                       and isinstance(node[0], str)):
            digests["/".join(path)] = node
        else:
            summaries["/".join(path)] = node
    walk(result, ())
    return digests, summaries


def test_results_match_the_record():
    record = json.loads(RECORD.read_text())
    digests, summaries = _split(compute())
    want_digests, want_summaries = _split(record["results"])
    assert set(summaries) == set(want_summaries)
    for path, want in want_summaries.items():
        rtol = SUMMARY_RTOL["float64" if "float64" in path else "float32"]
        got = np.asarray(summaries[path], dtype=np.float64)
        assert np.allclose(got, want, rtol=rtol, atol=0), (path, got, want)
    if record["environment"] == environment():
        moved = [p for p in want_digests if digests[p] != want_digests[p]]
        moved += [p for p in want_summaries
                  if summaries[p] != want_summaries[p]]
        assert moved == [], f"outputs differ from the record: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    RECORD.write_text(json.dumps({"environment": environment(),
                                  "results": compute()}, indent=1) + "\n")
    print(f"wrote {RECORD}")
