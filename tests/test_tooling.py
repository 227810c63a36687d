"""The benchmark's tracer finds every function it wraps, and sees the calls
of a training step and an evaluation; the benchmark's own correctness
checks pass on the program; every public op of the tensor module has a
caller in the program, and every other public name a reader; no module of
the program reads another's private names; only Model.loss takes a train
flag; only checkpoint.replaced_on_success renames a file into place; the
config file's keys are the fields of the config dataclasses; no backward
closure of a tensor op holds a Tensor; under the repository's pytest
settings a failing property test is reported like any other."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from novabert import cli
from novabert import data as D
from novabert import tensor as T
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "novabert"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_traced_names_resolve(spans):
    """perfbench/spans.py wraps program functions by name; a rename in src/
    must fail here rather than break a traced benchmark run."""
    for owner, attr, name in spans.WRAPPED:
        assert callable(getattr(owner, attr, None)), name


def test_tracer_sees_a_training_step_and_an_evaluation(spans):
    """A path that bypasses a wrapped function (say, evaluation not going
    through Model.encode) would zero its per-layer metrics silently."""
    schema, catalog, seqs = branching_dataset(m=11, n_seq=8, length=7, seed=0)
    split = D.leave_one_out_split(seqs)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=2, max_len=6,
                      attention="nova", fusion="gating", dropout=0.1)
    model = Model(cfg, schema, catalog, seed=0)
    opt = TR.Adam(model.params, TR.TrainConfig())
    rng = np.random.default_rng(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        batch = D.make_masked_batch(split.train, schema, catalog,
                                    cfg.mask_prob, rng, cfg.max_len)
        model.zero_grads()
        T.backward(model.loss(batch, train=True, rng=rng))
        opt.step(1e-3)
        TR.score_pairs(model, split.validation, batch_size=4)
    finally:
        tracer.uninstall()
    out = tracer.layer_metrics(units=1, builds=1, flops_per_seq=0.0,
                               traced_s=[1.0], untraced_s=[1.0])
    for name in ("model.encode", "model.nova_layer",
                 "tensor.scaled_dot_attention", "kernels.softmax_rows",
                 "model.decode_scores", "model.masked_loss",
                 "train.score_pairs"):
        assert out[name + ".calls"] >= 1, name
    assert out["kernels.softmax_rows.bytes"] > 0
    assert out["model.decode_useful_ratio"] == 1.0


@pytest.mark.slow
def test_desk_compare_passes_its_benchmark_checks(workloads, tmp_path):
    """One desk-compare operation at seed 0, as the benchmark runs it:
    generate, build, warm up, one operation, its check and the final check.
    A program change that the benchmark would reject fails here first."""
    wl = workloads.DeskCompare()
    st = wl.build(wl.generate(0), 0, str(tmp_path))
    problems, _ = wl.warmup(st)
    op = wl.op(st)
    problems += wl.check(st, op.info) + wl.final_check(st)
    assert problems == []


@pytest.mark.slow
def test_reference_workloads_pass_their_benchmark_checks(workloads, tmp_path):
    """The reference workloads' calls, as the benchmark makes them, on 200
    MovieLens-shaped users at the paper's shape: ref-train builds, runs one
    training step (Model.loss with train and a generator, on the masked and
    the tail batch) and checks it; ref-eval builds (a checkpoint round trip
    through load_checkpoint's three return values), warms up (the argsort
    oracle over score_pairs at batch 32), runs rank_all and checks it.
    RefTrain.warmup is left out: its first tail-loss tolerance fails at
    some seeds (105, say) whatever the program does, a fault of that check,
    not of the program."""
    inputs = workloads.movielens.movielens_like(0, users=200)
    ref_train, ref_eval = workloads.RefTrain(), workloads.RefEval()
    st = ref_train.build(inputs, 0, str(tmp_path))
    op = ref_train.op(st)
    problems = ref_train.check(st, op.info)
    st = ref_eval.build(inputs, 0, str(tmp_path))
    assert len(st["users"]) == workloads.REF_EVAL_USERS
    problems += ref_eval.warmup(st)[0]
    op = ref_eval.op(st)
    problems += ref_eval.check(st, op.info)
    assert problems == []


def _tensor_calls(path, own):
    """Names of novabert.tensor called in the module at path: as
    ``alias.name(...)`` after ``from novabert import tensor as alias``, as
    ``name(...)`` after ``from novabert.tensor import name``, or, in
    tensor.py itself, as a bare call of one of its own names."""
    tree = ast.parse(path.read_text())
    aliases, direct = set(), set(own) if path.name == "tensor.py" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.asname or a.name: a.name for a in node.names}
            if node.module == "novabert":
                aliases |= {n for n, orig in names.items() if orig == "tensor"}
            elif node.module == "novabert.tensor":
                direct |= set(names)
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in direct:
            called.add(f.id)
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id in aliases):
            called.add(f.attr)
    return called


# public names that nothing in src/ or perfbench/ references, each with
# the reason it stays in the program
UNREFERENCED = {
    "synthetic": "the seeded builders make test and benchmark data",
}


def _public_defs(path):
    """Qualified names (module[.Class].name) of a module's public
    functions, and of its classes' public methods and properties."""
    tree = ast.parse(path.read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            out[f"{path.stem}.{node.name}"] = node.name
    return out


def _referenced_names(path):
    """Every name a module reads: bare names, attributes, and strings that
    are identifiers (perfbench/spans.py names what it wraps in strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_public_tensor_op_is_called_from_src():
    """An op that only tests use lives with them (tests/dense_ops.py holds
    the dense oracle's), not in the program's tensor module. More widely,
    every public function, method and property of the program is
    referenced by name from src/ or perfbench/, or is listed in
    UNREFERENCED with its reason."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    public = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)
              and not n.name.startswith("_")}
    called = set()
    for path in SRC.glob("*.py"):
        called |= _tensor_calls(path, public)
    assert len(public) > 10
    assert sorted(public - called) == []

    defs, referenced = {}, set()
    for path in SRC.glob("*.py"):
        defs |= _public_defs(path)
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        referenced |= _referenced_names(path)

    def covers(key, qualname):
        return qualname == key or qualname.startswith(key + ".")

    unread = [q for q, name in defs.items() if name not in referenced]
    assert len(defs) > 50
    assert sorted(q for q in unread
                  if not any(covers(k, q) for k in UNREFERENCED)) == []
    # every entry still covers a definition that nothing references
    assert [k for k in UNREFERENCED
            if not any(covers(k, q) for q in unread)] == []


def _foreign_private_reads(source, own):
    """Underscore names (not dunders) of other novabert modules that the
    module source reads: imported by ``from novabert.x import _name``, or
    read as ``alias._name`` where alias is bound to a novabert module by
    ``from novabert import x [as alias]`` or ``import novabert.x as alias``.
    own is the module's own name, whose names are its own to read."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "novabert":
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
            elif (node.module.startswith("novabert.")
                  and node.module != f"novabert.{own}"):
                found += [f"{node.module[len('novabert.'):]}.{a.name}"
                          for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("novabert.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    """A module of the program reaches another only through its public
    names (tensor.py's no_grad, not its _grad_mode), so a private name
    can change without breaking a caller elsewhere."""
    probe = ("from novabert import tensor as T\n"
             "from novabert.data import _tsv_rows\n"
             "import novabert.kernels as K\n"
             "T._grad_mode.enabled, K._x, T.__name__, T.no_grad\n")
    assert sorted(_foreign_private_reads(probe, "model")) == [
        "data._tsv_rows", "kernels._x", "tensor._grad_mode"]
    found = {path.name: _foreign_private_reads(path.read_text(), path.stem)
             for path in SRC.glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {}


def _train_parameters(source, module):
    """Qualified names (module[.Class].function, nested functions included)
    of the functions and methods in source that take a parameter named
    train."""
    found = []

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(sub, (ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
                name = f"{prefix}.{sub.name}"
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = sub.args
                if "train" in {p.arg for p in
                               a.posonlyargs + a.args + a.kwonlyargs}:
                    found.append(name)
            visit(sub, name)

    visit(ast.parse(source), module)
    return found


def test_only_model_loss_takes_a_train_flag():
    """Dropout draws exactly when it is given a generator, so no function
    of the program takes a train flag beside its rng; Model.loss keeps
    one, because the benchmark calls it with train."""
    probe = ("def f(x, train=False): pass\n"
             "class C:\n"
             "    def g(self, *, train): pass\n"
             "    def h(self, rng):\n"
             "        def inner(train): pass\n"
             "def train(rng): pass\n")
    assert _train_parameters(probe, "m") == ["m.f", "m.C.g", "m.C.h.inner"]
    found = [q for path in SRC.glob("*.py")
             for q in _train_parameters(path.read_text(), path.stem)]
    assert found == ["model.Model.loss"]


_RENAMES = {"replace", "rename", "renames"}


def _rename_calls(source, module):
    """Qualified names (module[.Class].function, or module alone at the top
    level) of the places in source that call os.replace, os.rename or
    os.renames, through any alias of os or by a name imported from it."""
    tree = ast.parse(source)
    aliases, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "os"}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            direct |= {a.asname or a.name for a in node.names
                       if a.name in _RENAMES}
    found = []

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(sub, (ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
                name = f"{prefix}.{sub.name}"
            elif isinstance(sub, ast.Call):
                f = sub.func
                if ((isinstance(f, ast.Name) and f.id in direct)
                        or (isinstance(f, ast.Attribute)
                            and f.attr in _RENAMES
                            and isinstance(f.value, ast.Name)
                            and f.value.id in aliases)):
                    found.append(name)
            visit(sub, name)

    visit(tree, module)
    return found


def test_only_replaced_on_success_renames_into_place():
    """Writing a temporary file and renaming it over its path is done once,
    in checkpoint.replaced_on_success, which every writer of a checkpoint
    or CLI output goes through; a second copy of that protocol fails
    here."""
    probe = ("import os\n"
             "import os as o\n"
             "from os import rename as mv\n"
             "def replaced_on_success(): os.replace('a', 'b')\n"
             "class W:\n"
             "    def save(self):\n"
             "        o.rename('a', 'b')\n"
             "mv('a', 'b')\n"
             "'x'.replace('a', 'b'), os.path.join('a')\n")
    assert _rename_calls(probe, "m") == [
        "m.replaced_on_success", "m.W.save", "m"]
    found = [q for path in SRC.glob("*.py")
             for q in _rename_calls(path.read_text(), path.stem)]
    assert found == ["checkpoint.replaced_on_success"]


def test_config_keys_are_dataclass_fields():
    """Every INI key the CLI reads sets a field of its config dataclass, and
    the required [model] keys are exactly the ModelConfig fields without a
    default."""
    for keys, cls in ((cli._MODEL_KEYS, ModelConfig),
                      (cli._TRAIN_KEYS, TR.TrainConfig)):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(keys) <= fields, set(keys) - fields
    assert set(cli.REQUIRED_MODEL_KEYS) == {
        f.name for f in dataclasses.fields(ModelConfig)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING}


def closure_leaves(fn):
    """(path, object) for each object the closure of fn holds: in a cell,
    or inside a list, tuple, dict, plain object or function closure that a
    cell holds, named by its path from the cell's variable. Objects with no
    such parts (arrays, vertices, tensors, numbers) are the leaves; each
    object is visited once."""
    seen = set()

    def visit(x, path):
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, (list, tuple)):
            for i, y in enumerate(x):
                yield from visit(y, f"{path}[{i}]")
        elif isinstance(x, dict):
            for k, y in x.items():
                yield from visit(y, f"{path}[{k!r}]")
        elif callable(x) and getattr(x, "__closure__", None):
            yield from cells(x, f"{path}.")
        elif hasattr(x, "__dict__") and not callable(x):
            for k, y in vars(x).items():
                yield from visit(y, f"{path}.{k}")
        else:
            yield path, x

    def cells(f, prefix):
        for name, cell in zip(f.__code__.co_freevars, f.__closure__ or ()):
            yield from visit(cell.cell_contents, prefix + name)

    return list(cells(fn, ""))


def _tensors_held(fn):
    """Where the closure of fn holds a Tensor (see closure_leaves)."""
    return [p for p, x in closure_leaves(fn) if isinstance(x, T.Tensor)]


def _make_callers(path):
    """Module-level functions of the module at path that call _make."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                    and c.func.id == "_make" for c in ast.walk(node))}


def test_no_backward_closure_holds_a_tensor():
    """A tensor op's backward closure holds the vertices of its inputs,
    the arrays it reads and plain values, never a Tensor: a Tensor would
    keep its value alive until backward, read or not. Every op of
    tensor.py that records a graph node is built here."""
    t1, t2, t3, t4 = (T.Tensor(np.ones(2), requires_grad=True)
                      for _ in range(4))

    def probe():
        a, v, arr = t1, t1._vertex, t1.data
        obj, table = SimpleNamespace(rows=[1, t2]), {"x": t3}
        inner = (lambda: t4)

        def bw(g):
            return a, v, arr, obj, table, inner
        return bw

    assert sorted(_tensors_held(probe())) == [
        "a", "inner.t4", "obj.rows[1]", "table['x']"]

    rng = np.random.default_rng(0)

    def leaf(*shape):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)

    x = leaf(4, 3)
    layout = T.AttentionLayout(np.array([[False, True, True],
                                         [True, True, True]]))
    qkv = [leaf(len(layout.rows), 4) for _ in range(3)]
    outs = {
        "add": T.add(x, leaf(3)),
        "linear": T.linear(x, leaf(3, 2), leaf(2)),
        "transpose": T.transpose(x, (1, 0)),
        "concat_lastdim": T.concat_lastdim([x, leaf(4, 1)]),
        "feed_forward": T.feed_forward(x, leaf(3, 5), leaf(5), leaf(5, 2),
                                       leaf(2)),
        "layer_norm": T.layer_norm(x, leaf(3), leaf(3)),
        "dropout": T.dropout(x, 0.5, rng),
        "gated_sum": T.gated_sum([x, leaf(4, 3)], leaf(3, 1))[0],
        "embedding_lookup": T.embedding_lookup(x, np.array([0, 2])),
        "pooled_lookup": T.pooled_lookup(x, np.array([[0, 1]]),
                                         np.ones((1, 2))),
        "take_rows": T.take_rows(x, np.array([1, 3])),
        "cross_entropy_masked": T.cross_entropy_masked(
            x, np.array([1, 2, 3, 1])),
        "scaled_dot_attention": T.scaled_dot_attention(
            *qkv, layout, 2, 0.5, rng)[0],
    }
    assert sorted(outs) == sorted(_make_callers(SRC / "tensor.py"))
    assert {op: _tensors_held(out._vertex.bw)
            for op, out in outs.items()} == {op: [] for op in outs}


PROPERTY_PAIR = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """With warnings as errors, a hypothesis release whose report hook warns
    when a @given test fails turned that failure into an INTERNALERROR that
    ended the session. Under the repository's ini options a failing
    property test and a passing test after it are both reported."""
    (tmp_path / "test_pair.py").write_text(PROPERTY_PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         str(tmp_path / "test_pair.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_pair.py::test_property_fails" in out
    assert "PASSED test_pair.py::test_plain_passes" in out
    assert "1 failed, 1 passed" in out
