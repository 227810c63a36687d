import json
import os

import numpy as np
import pytest

from novabert import checkpoint as CK
from novabert import cli
from novabert import data as D
from novabert import train as TR
from novabert.model import Model, ModelConfig
from novabert.synthetic import branching_dataset, successor_dataset

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
    D.write_interactions(seqs, schema, catalog, paths["data"])
    D.write_items(catalog, schema, paths["items"])
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
])
def test_non_numeric_value_exits_2(toy, capsys, old, new, key):
    toy["config"].write_text(CONFIG.replace(old, new))
    code = cli.main(["train"] + flags(toy))
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err


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


def test_evaluate_random_init_is_chance_level(tmp_path):
    schema, catalog, seqs = successor_dataset(m=20, n_seq=200, length=8, seed=1)
    data = tmp_path / "interactions.tsv"
    D.write_interactions(seqs, schema, catalog, data)
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


def test_locked_output_dir_refused(toy, capsys):
    toy["out"].mkdir()
    (toy["out"] / ".lock").write_text("123")
    code = cli.main(["train"] + flags(toy))
    assert code == 1
    assert "locked" in capsys.readouterr().err


def test_lock_removed_after_run(toy):
    assert cli.main(["train"] + flags(toy)) == 0
    assert not (toy["out"] / ".lock").exists()


def test_output_dir_lock_holds_pid(tmp_path):
    with cli.OutputDir(tmp_path) as out:
        assert (out / ".lock").read_text() == str(os.getpid())


def test_ablate_writes_csv(toy):
    assert cli.main(["ablate"] + flags(toy)) == 0
    lines = (toy["out"] / "ablation.csv").read_text().strip().splitlines()
    assert lines[0].startswith("subset,HR@1,")
    assert {l.split(",")[0] for l in lines[1:]} == {"none", "item",
                                                    "behavior", "all"}


def test_compare_writes_diff_table(toy, capsys):
    assert cli.main(["compare"] + flags(toy)) == 0
    payload = json.loads((toy["out"] / "compare.json").read_text())
    assert set(payload) == {"invasive", "nova", "diff"}
    assert "HR@10" in payload["diff"]


@pytest.mark.parametrize("command,flag", [
    ("ablate", ["--precision", "f32"]),    # ablate trains in float64 only
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
