import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers as H
from novabert import checkpoint as CK
from novabert import cli
from novabert import data as D
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, successor_dataset
from test_checkpoint import malform_index

CONFIG = """\
[model]
hidden_size = 8
num_heads = 2
num_layers = 1
max_len = 6
dropout = 0.0

[training]
epochs = 2
batch_size = 16
learning_rate = 0.001
seed = 0
"""


@pytest.fixture
def toy(tmp_path):
    """Branching dataset written out as TSV + schema + config files."""
    schema, catalog, seqs = branching_dataset(m=15, n_seq=40, length=8, seed=0)
    paths = {
        "data": tmp_path / "interactions.tsv",
        "items": tmp_path / "items.tsv",
        "schema": tmp_path / "schema.ini",
        "config": tmp_path / "config.ini",
        "out": tmp_path / "out",
    }
    H.write_interactions(seqs, schema, catalog, paths["data"])
    H.write_items(catalog, schema, paths["items"])
    D.save_schema(schema, paths["schema"])
    paths["config"].write_text(CONFIG)
    return paths


def flags(paths, *extra):
    return ["--config", str(paths["config"]), "--data", str(paths["data"]),
            "--items", str(paths["items"]), "--schema", str(paths["schema"]),
            "--out", str(paths["out"]), *extra]


def test_missing_required_key_exits_2(toy, capsys):
    toy["config"].write_text("[model]\nnum_heads = 2\n")
    code = cli.main(["train"] + flags(toy))
    assert code == 2
    assert "hidden_size" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,key", [
    ("hidden_size = 8", "hidden_size = abc", "hidden_size"),
    ("dropout = 0.0", "dropout = high", "dropout"),
    ("epochs = 2", "epochs = two", "epochs"),
    ("num_heads = 2", "num_heads = 0", "num_heads"),
    # a misspelt key would otherwise leave its default in place unseen
    ("dropout = 0.0", "dropuot = 0.3", "dropuot"),
    ("learning_rate = 0.001", "learnig_rate = 1", "learnig_rate"),
    ("[training]", "[trainig]", "trainig"),
    # values that crash training or train the wrong way
    ("epochs = 2", "epochs = 0", "epochs"),
    ("epochs = 2", "epochs = -1", "epochs"),
    ("batch_size = 16", "batch_size = 0", "batch_size"),
    ("seed = 0", "seed = 0\neval_every = 0", "eval_every"),
    ("learning_rate = 0.001", "learning_rate = -1", "learning_rate"),
    ("learning_rate = 0.001", "learning_rate = inf", "learning_rate"),
    ("dropout = 0.0", "dropout = 0.0\nuse_position = flase", "use_position"),
    ("seed = 0", "seed = 0\nclip_norm = -1", "clip_norm"),
])
def test_non_numeric_value_exits_2(toy, capsys, old, new, key):
    """A value that does not parse, a key or section the file format does
    not have, or a value out of its range exits 2 naming it, before any
    output."""
    toy["config"].write_text(CONFIG.replace(old, new))
    code = cli.main(["train"] + flags(toy))
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not toy["out"].exists()


@pytest.mark.parametrize("fusion", ["add", "concat", "gating"])
@pytest.mark.parametrize("command", ["train", "compare", "ablate", "profile"])
def test_feature_the_schema_lacks_exits_2(toy, capsys, command, fusion):
    """features must name schema features: a typo exits 2 naming it, with
    no traceback and no output, whatever the fusion kind."""
    toy["config"].write_text(CONFIG.replace(
        "dropout = 0.0", f"dropout = 0.0\nfusion = {fusion}\n"
                         "features = rating, ratng"))
    args = flags(toy) if command != "profile" else [
        "--config", str(toy["config"]), "--items", str(toy["items"]),
        "--schema", str(toy["schema"]), "--out", str(toy["out"])]
    assert cli.main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'ratng'" in err
    assert "'rating'" not in err and "Traceback" not in err
    assert not toy["out"].exists()


@pytest.mark.parametrize("word,value", [
    ("no", False), ("0", False), ("Off", False), ("FALSE", False),
    ("yes", True), ("1", True), ("ON", True), ("true", True)])
def test_use_position_reads_boolean_words(tmp_path, word, value):
    path = tmp_path / "c.ini"
    path.write_text("[model]\nhidden_size = 8\nnum_heads = 2\n"
                    f"num_layers = 1\nmax_len = 6\nuse_position = {word}\n")
    mcfg, _ = cli.read_config(path)
    assert mcfg.use_position is value


def test_absent_keys_take_dataclass_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[model]\nhidden_size = 8\nnum_heads = 2\n"
                    "num_layers = 1\nmax_len = 6\n")
    mcfg, tcfg = cli.read_config(path, overrides={"seed": 3})
    assert mcfg == ModelConfig(hidden_size=8, num_heads=2, num_layers=1,
                               max_len=6)
    assert tcfg == TR.TrainConfig(seed=3)


def test_train_writes_outputs_and_evaluate_round_trips(toy, tmp_path, capsys):
    assert cli.main(["train"] + flags(toy)) == 0
    ckpt = toy["out"] / "checkpoint.bin"
    metrics = toy["out"] / "metrics.json"
    assert ckpt.exists() and metrics.exists()
    trained = json.loads(metrics.read_text())["test"]

    out2 = tmp_path / "eval"
    code = cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(toy["data"]), "--out", str(out2)])
    assert code == 0
    evaluated = json.loads((out2 / "metrics.json").read_text())["test"]
    for k in ("HR@1", "HR@5", "HR@10", "NDCG@5", "NDCG@10", "users"):
        assert evaluated[k] == trained[k]


def test_train_precision_sets_the_checkpoint_dtype(toy, tmp_path):
    """train computes in float32 unless --precision f64 asks for float64,
    and checkpoint.bin stores every parameter in that dtype."""
    for extra, dtype in (([], np.float32), (["--precision", "f64"],
                                            np.float64)):
        paths = dict(toy, out=tmp_path / np.dtype(dtype).name)
        assert cli.main(["train"] + flags(paths, *extra)) == 0
        model, _, _ = CK.load_checkpoint(paths["out"] / "checkpoint.bin")
        assert model.dtype == dtype
        assert {p.data.dtype for p in model.params.values()} == {
            np.dtype(dtype)}


def test_evaluate_random_init_is_chance_level(tmp_path):
    schema, catalog, seqs = successor_dataset(m=20, n_seq=200, length=8, seed=1)
    data = tmp_path / "interactions.tsv"
    H.write_interactions(seqs, schema, catalog, data)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6,
                      dropout=0.0)
    model = Model(cfg, schema, catalog, seed=99)
    ckpt = tmp_path / "random.bin"
    CK.save_checkpoint(ckpt, model)
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(data), "--out", str(out)]) == 0
    rep = json.loads((out / "metrics.json").read_text())["test"]
    # 10 of 20 items land in the top 10 by chance; 200 users
    assert abs(rep["HR@10"] - 0.5) < 0.15


def test_evaluate_with_no_user_past_the_filter_exits_1(tmp_path, capsys):
    """A log in which no user has MIN_SEQUENCE_LEN interactions is a data
    error that names the file and the filter, not a crash in scoring."""
    schema, catalog, seqs = successor_dataset(
        m=20, n_seq=10, length=D.MIN_SEQUENCE_LEN - 1, seed=1)
    data = tmp_path / "interactions.tsv"
    H.write_interactions(seqs, schema, catalog, data)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6)
    ckpt = tmp_path / "model.bin"
    CK.save_checkpoint(ckpt, Model(cfg, schema, catalog, seed=0))
    assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert str(data) in err and "MIN_SEQUENCE_LEN" in err


def test_evaluate_malformed_checkpoint_index_exits_1(tmp_path, capsys):
    """A checkpoint whose index holds an out-of-range config value is an
    error naming the file, not a traceback."""
    schema, catalog, seqs = successor_dataset(m=20, n_seq=10, length=8, seed=1)
    data = tmp_path / "interactions.tsv"
    H.write_interactions(seqs, schema, catalog, data)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6)
    ckpt = tmp_path / "model.bin"
    CK.save_checkpoint(ckpt, Model(cfg, schema, catalog, seed=0))
    malform_index(ckpt, "dropout-out-of-range")
    assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "dump-attention"])
def test_non_finite_checkpoint_exits_1(toy, tmp_path, capsys, command):
    """A checkpoint holding a NaN parameter, which would score every item
    NaN and rank each target first, is an error naming the file and the
    tensor, before any output."""
    schema, catalog, _ = branching_dataset(m=15, n_seq=40, length=8, seed=0)
    cfg = ModelConfig(hidden_size=8, num_heads=2, num_layers=1, max_len=6)
    model = Model(cfg, schema, catalog, seed=0)
    model.params["emb.id"].data[...] = np.nan
    ckpt = tmp_path / "model.bin"
    CK.save_checkpoint(ckpt, model)
    out = tmp_path / "out"
    assert cli.main([command, "--checkpoint", str(ckpt), "--data",
                     str(toy["data"]), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(ckpt) in captured.err
    assert "emb.id" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


# the diverging steps overflow in numpy, which warns on the way
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command,output", [
    ("train", ["checkpoint.bin", "metrics.json"]),
    ("compare", ["compare.json"])])
def test_diverged_run_exits_1(toy, capsys, command, output):
    """A run whose loss becomes NaN ends with an error line and exit 1,
    writing no output and leaving no lock."""
    toy["config"].write_text(CONFIG.replace("learning_rate = 0.001",
                                            "learning_rate = 1e30"))
    assert cli.main([command] + flags(toy)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any((toy["out"] / name).exists()
                   for name in output + [".lock"])


def test_locked_output_dir_refused(toy, capsys):
    """A directory that another process holds is refused, and its lock is
    left to the holder."""
    holder = ("import sys\n"
              "from novabert import cli\n"
              f"with cli.OutputDir({str(toy['out'])!r}):\n"
              "    print('held', flush=True)\n"
              "    sys.stdin.read()\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-c", holder], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as live:
        assert live.stdout.readline() == "held\n"
        code = cli.main(["train"] + flags(toy))
        live.stdin.close()
        assert live.wait(timeout=60) == 0
    assert code == 1
    assert "locked" in capsys.readouterr().err
    assert not (toy["out"] / "metrics.json").exists()


def test_lock_naming_a_live_process_taken_over(tmp_path):
    """Only the kernel lock counts: a .lock that names a running process
    but that no process holds is taken over."""
    with subprocess.Popen([sys.executable, "-c",
                           "import sys; sys.stdin.read()"],
                          stdin=subprocess.PIPE) as live:
        (tmp_path / ".lock").write_text(str(live.pid))
        with cli.OutputDir(tmp_path) as out:
            assert (out / ".lock").read_text() == str(os.getpid())
        live.stdin.close()
        assert live.wait(timeout=60) == 0
    assert not (tmp_path / ".lock").exists()


def test_second_output_dir_in_one_process_refused(tmp_path):
    with cli.OutputDir(tmp_path):
        with pytest.raises(cli.CliError, match="locked"):
            with cli.OutputDir(tmp_path):
                pass
        assert (tmp_path / ".lock").read_text() == str(os.getpid())
    with cli.OutputDir(tmp_path):
        pass


def test_lock_unlinked_before_flock_is_taken_anew(tmp_path, monkeypatch):
    """A run that ends between another's open and flock unlinks the file
    the other opened; the other then locks the file at the path instead,
    so a third run is still refused."""
    flock, calls = cli.fcntl.flock, []

    def end_holder_then_flock(fd, op):
        if not calls:
            (tmp_path / ".lock").unlink()
        calls.append(fd)
        flock(fd, op)

    monkeypatch.setattr(cli.fcntl, "flock", end_holder_then_flock)
    with cli.OutputDir(tmp_path) as out:
        assert len(calls) == 2
        assert (out / ".lock").read_text() == str(os.getpid())
        with pytest.raises(cli.CliError, match="locked"):
            with cli.OutputDir(tmp_path):
                pass


def test_stale_lock_taken_over(tmp_path):
    """A lock that holds the pid of a process that has exited (and been
    reaped) is stale: the run takes the directory over."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    assert child.wait(timeout=60) == 0
    (tmp_path / ".lock").write_text(str(child.pid))
    with cli.OutputDir(tmp_path) as out:
        assert (out / ".lock").read_text() == str(os.getpid())
    assert not (tmp_path / ".lock").exists()


def test_lock_removed_after_run(toy):
    assert cli.main(["train"] + flags(toy)) == 0
    assert not (toy["out"] / ".lock").exists()


def test_output_dir_lock_holds_pid(tmp_path):
    with cli.OutputDir(tmp_path) as out:
        assert (out / ".lock").read_text() == str(os.getpid())


def test_ablate_writes_csv(toy):
    assert cli.main(["ablate"] + flags(toy)) == 0
    lines = (toy["out"] / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == ("subset,HR@1,HR@5,HR@10,NDCG@5,NDCG@10,users,"
                        "fingerprint")
    rows = {l.split(",")[0]: l.split(",")[-1] for l in lines[1:]}
    assert set(rows) == {"none", "item", "behavior", "all"}
    # each row carries the fingerprint of its subset's configs
    mcfg, tcfg = cli.read_config(toy["config"])
    schema = D.load_schema(toy["schema"])
    feats = {"none": [], "all": [f.name for f in schema.features],
             "item": [f.name for f in schema.item_features()],
             "behavior": [f.name for f in schema.behavior_features()]}
    assert rows == {
        name: TR.config_fingerprint(dataclasses.replace(mcfg, features=f),
                                    tcfg)
        for name, f in feats.items()}


def test_compare_writes_diff_table(toy, capsys):
    assert cli.main(["compare"] + flags(toy)) == 0
    payload = json.loads((toy["out"] / "compare.json").read_text())
    assert set(payload) == {"invasive", "nova", "diff"}
    assert "HR@10" in payload["diff"]


def test_compare_reports_equal_train_test_reports(toy, tmp_path):
    """compare trains and tests each stack as train does, so each of its
    reports equals train's test report for that stack, fingerprint
    included."""
    assert cli.main(["compare"] + flags(toy)) == 0
    rows = json.loads((toy["out"] / "compare.json").read_text())
    for attention in ("invasive", "nova"):
        paths = dict(toy, out=tmp_path / attention)
        assert cli.main(["train"] + flags(paths, "--attention",
                                          attention)) == 0
        test = json.loads((paths["out"] / "metrics.json").read_text())["test"]
        assert test["fingerprint"] != ""
        assert rows[attention] == test


@pytest.mark.parametrize("command,flag", [
    # ablate trains at the default precision
    ("ablate", ["--precision", "f32"]),
    ("compare", ["--attention", "nova"]),  # compare trains both stacks
])
def test_unused_flag_exits_2(toy, command, flag):
    with pytest.raises(SystemExit) as info:
        cli.main([command] + flags(toy, *flag))
    assert info.value.code == 2


def test_dump_attention_layout_and_row_sums(toy, tmp_path):
    assert cli.main(["train"] + flags(toy)) == 0
    ckpt = toy["out"] / "checkpoint.bin"
    out = tmp_path / "dump"
    assert cli.main(["dump-attention", "--checkpoint", str(ckpt),
                     "--data", str(toy["data"]), "--out", str(out),
                     "--samples", "3"]) == 0
    att = out / "attention"
    csvs = sorted(att.glob("*.csv"))
    pgms = sorted(att.glob("*.pgm"))
    assert len(csvs) == 3 * 2 and len(pgms) == 3 * 2  # samples x heads
    for path in csvs:
        mat = np.loadtxt(path, delimiter=",")
        assert mat.shape[0] == mat.shape[1]
        assert np.abs(mat.sum(axis=1) - 1).max() < 1e-6
    header = pgms[0].read_bytes()[:2]
    assert header == b"P5"


def test_dump_attention_replaces_the_previous_dump(toy, tmp_path):
    """A second dump into one --out leaves only its own maps: the first
    dump's extra samples go, files that no dump writes stay."""
    assert cli.main(["train"] + flags(toy)) == 0
    out = tmp_path / "dump"
    att = out / "attention"
    keep = ["notes.txt", "0_0.txt", "a_0.csv", "0_0.csv.bak"]

    def dump(samples):
        assert cli.main(["dump-attention",
                         "--checkpoint", str(toy["out"] / "checkpoint.bin"),
                         "--data", str(toy["data"]), "--out", str(out),
                         "--samples", samples]) == 0

    dump("4")
    for name in keep:
        (att / name).write_text("mine\n")
    dump("2")
    maps = [f"{s}_{h}.{ext}" for s in range(2) for h in range(2)
            for ext in ("csv", "pgm")]
    assert sorted(p.name for p in att.iterdir()) == sorted(maps + keep)
    assert all((att / name).read_text() == "mine\n" for name in keep)


def test_dump_attention_clamps_samples(toy, tmp_path, capsys):
    assert cli.main(["train"] + flags(toy)) == 0
    out = tmp_path / "dump"
    code = cli.main(["dump-attention",
                     "--checkpoint", str(toy["out"] / "checkpoint.bin"),
                     "--data", str(toy["data"]), "--out", str(out),
                     "--samples", "999"])
    assert code == 0
    assert "clamping" in capsys.readouterr().err
    assert len(list((out / "attention").glob("*.csv"))) == 40 * 2


def test_dump_attention_bad_layer(toy, tmp_path, capsys):
    assert cli.main(["train"] + flags(toy)) == 0
    code = cli.main(["dump-attention",
                     "--checkpoint", str(toy["out"] / "checkpoint.bin"),
                     "--data", str(toy["data"]),
                     "--out", str(tmp_path / "d"), "--layer", "5"])
    assert code == 1
    assert "layer" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_dump_attention_refuses_samples_below_one(toy, tmp_path, capsys,
                                                  samples):
    """--samples below 1 is an error naming the flag, before any output
    (-1 used to end in a traceback, 0 in an empty dump)."""
    assert cli.main(["train"] + flags(toy)) == 0
    code = cli.main(["dump-attention",
                     "--checkpoint", str(toy["out"] / "checkpoint.bin"),
                     "--data", str(toy["data"]),
                     "--out", str(tmp_path / "d"), "--samples", samples])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--samples" in err
    assert not (tmp_path / "d").exists()


def test_profile_writes_json(toy, capsys):
    assert cli.main(["profile", "--config", str(toy["config"]),
                     "--items", str(toy["items"]),
                     "--schema", str(toy["schema"]),
                     "--data", str(toy["data"]),
                     "--out", str(toy["out"])]) == 0
    payload = json.loads((toy["out"] / "profile.json").read_text())
    assert payload["flops_total"] == sum(payload["flops_breakdown"].values())
    assert payload["param_bytes"] == payload["params"] * 4


def test_prepare_data_converts_double_colon_files(tmp_path, capsys):
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text("1::Toy Story (1995)::Animation|Comedy\n"
                      "2::Heat (1995)::Action|Crime\n", encoding="latin-1")
    ratings.write_text("1::1::5::978300760\n1::2::3::978302109\n",
                       encoding="latin-1")
    out = tmp_path / "prepared"
    assert cli.main(["prepare-data", "--data", str(ratings),
                     "--items", str(movies), "--out", str(out)]) == 0
    items = (out / "items.tsv").read_text().splitlines()
    assert items[0] == "item_id\tyear\tgenre"
    assert items[1] == "1\t1995\tAnimation|Comedy"
    inter = (out / "interactions.tsv").read_text().splitlines()
    assert inter[0] == "user_id\titem_id\ttimestamp\trating"
    assert inter[1] == "1\t1\t978300760\t5"
    schema = D.load_schema(out / "schema.ini")
    assert [f.name for f in schema.features] == ["year", "genre", "rating"]


@pytest.mark.parametrize("text,section", [
    ("[rating]\nkind = behavior\n", "[rating]"),
    ("[year]\nkind = item\nencoding = bucketed\nbuckets = 1990, x\n",
     "[year]"),
    ("kind = item\nencoding = categorical\n", ""),
], ids=["no-encoding", "bad-bucket-edge", "no-section-header"])
def test_malformed_schema_exits_1_naming_it(toy, capsys, text, section):
    toy["schema"].write_text(text)
    assert cli.main(["profile", "--config", str(toy["config"]),
                     "--items", str(toy["items"]),
                     "--schema", str(toy["schema"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(toy["schema"]) in err and section in err


def test_prepare_data_short_line_exits_1_naming_it(tmp_path, capsys):
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text("1::Toy Story (1995)::Animation|Comedy\n"
                      "2::Heat (1995)\n", encoding="latin-1")
    ratings.write_text("1::1::5::978300760\n", encoding="latin-1")
    out = tmp_path / "prepared"
    assert cli.main(["prepare-data", "--data", str(ratings),
                     "--items", str(movies), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{movies}:2:" in err
    # no output appears, not even the items read before the bad line, and
    # no temporary file is left
    assert list(out.iterdir()) == []
