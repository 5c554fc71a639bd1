import json
import os
import shutil
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from helpers import kshot_mae_reference, suite_grids_reference, suite_task_dict_reference

import scoopgp
from scoopgp import cli
from scoopgp.checkpoint import load_checkpoint, save_checkpoint, weights_path
from scoopgp.data import TaskDataset, load_task_dataset, patches_path, save_task_dataset
from scoopgp.decision import EpisodeTrace
from scoopgp.model import Architecture, read_fields, record_dict
from scoopgp.terrain import generate_suite


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end run shared by the module's tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert cli.main(
        ["gen-data", "--seed", "3", "--out", str(data), "--n-train", "4",
         "--n-test", "2", "--samples", "30"]
    ) == 0
    ckpt = root / "kcmd.json"
    assert cli.main(
        ["train", "--method", "kcmd-ot", "--data", str(data), "--out", str(ckpt),
         "--seed", "1", "--k-folds", "2", "--max-epochs-mean", "25",
         "--max-epochs-meta", "15"]
    ) == 0
    traces = root / "traces.jsonl"
    assert cli.main(
        ["eval-deploy", "--model", str(ckpt), "--data", str(data), "--out",
         str(traces), "--mode", "replay", "--max-attempts", "30", "--reps", "2"]
    ) == 0
    mae = root / "mae.json"
    assert cli.main(
        ["eval-kshot", "--model", str(ckpt), "--data", str(data), "--out",
         str(mae), "--shots", "0,3", "--seed", "0"]
    ) == 0
    report = root / "report"
    assert cli.main(
        ["report", "--traces", str(traces), "--mae", str(mae), "--out", str(report)]
    ) == 0
    return {"data": data, "ckpt": ckpt, "traces": traces, "mae": mae, "report": report}


def test_gen_data_artifacts(pipeline):
    data = pipeline["data"]
    files = sorted(p.name for p in (data / "tasks").glob("*.json"))
    assert files == [
        "test-00.json", "test-01.json",
        "train-00.json", "train-01.json", "train-02.json", "train-03.json",
    ]
    assert sorted(p.name for p in (data / "tasks").glob("*.npy")) == [f + ".patches.npy" for f in files]
    suite = json.loads((data / "suite.json").read_text())
    assert suite["seed"] == 3 and len(suite["tasks"]) == 6
    ds = load_task_dataset(data / "tasks" / "test-00.json")
    assert len(ds) == 30 and ds.ground_truth is None
    oracle = load_task_dataset(data / "tasks" / "test-00.json", view="oracle")
    assert oracle.ground_truth and "material_table" in oracle.ground_truth


def test_suite_json_is_the_hand_written_terrain_dicts(pipeline, tmp_path):
    """gen-data writes suite.json as record_dict of a Suite record, its
    bytes json.dumps of hand-written dicts, and the grids sidecar as
    np.savez of the hand-written grids that suite.json once held."""
    train, test = generate_suite(3, 4, 2)
    expected = {
        "schema_version": 2, "seed": 3, "n_train": 4, "n_test": 2, "samples": 30,
        "tasks": [suite_task_dict_reference(t) for t in train + test],
    }
    suite = pipeline["data"] / "suite.json"
    assert suite.read_text() == json.dumps(expected)
    np.savez(tmp_path / "grids.npz", **suite_grids_reference(train + test))
    assert cli.grids_path(suite).read_bytes() == (tmp_path / "grids.npz").read_bytes()


def test_suite_terrains_roundtrip(tmp_path):
    """Every terrain load_suite_terrains reads back is the generated one,
    heights rounded to 6 places, bit for bit and dtype for dtype, Layers
    task included; a second gen-data run writes the same bytes to both
    suite files."""
    for run in ("one", "two"):
        assert cli.main(["gen-data", "--seed", "4", "--out", str(tmp_path / run), "--n-train", "2",
                         "--n-test", "4", "--samples", "5"]) == 0
    for name in ("suite.json", "suite.json.grids.npz"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name
    train, test = generate_suite(4, 2, 4)
    worlds = cli.load_suite_terrains(tmp_path / "one")
    assert list(worlds) == [t.task_id for t in train + test]
    assert test[3].terrain.hidden is not None
    for task in train + test:
        t, back = task.terrain, worlds[task.task_id]
        assert back.is_test == task.is_test
        for name in ("surface", "heightfield", "hidden"):
            want = getattr(t, name)
            if name == "heightfield":
                want = np.round(want, 6)
            got = getattr(back.terrain, name)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert back.terrain.materials == t.materials
        assert (back.terrain.composition, back.terrain.seed, back.terrain.layer_depth, back.terrain.extent,
                back.terrain.cell) == (t.composition, t.seed, t.layer_depth, t.extent, t.cell)


def test_gen_data_refuses_an_out_holding_another_suites_tasks(tmp_path, capsys):
    """A dataset under <out>/tasks that this suite would not write would
    be trained and evaluated with it: gen-data names the first one, exits
    1 and writes nothing. Rewriting the same suite is fine."""
    out = tmp_path / "data"
    first = ["gen-data", "--seed", "1", "--out", str(out), "--n-train", "6", "--n-test", "3", "--samples", "20"]
    assert cli.main(first) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["gen-data", "--seed", "2", "--out", str(out), "--n-train", "4", "--n-test", "2",
                     "--samples", "20"]) == 1
    assert f"{out / 'tasks' / 'test-02.json'} is a dataset this suite does not have" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert cli.main(first) == 0


def test_records_are_written_in_field_order(pipeline):
    """Each record is written as its dataclass fields in declaration
    order, so that order is the artifacts' on-disk format."""
    ckpt = json.loads(Path(pipeline["ckpt"]).read_text())
    manifest = json.loads(Path(str(pipeline["ckpt"]) + ".manifest.json").read_text())
    dataset = json.loads((pipeline["data"] / "tasks" / "train-00.json").read_text())
    suite = json.loads((pipeline["data"] / "suite.json").read_text())
    step = json.loads(pipeline["traces"].read_text().splitlines()[0])["steps"][0]
    arch = ["channels", "patch_h", "patch_w", "extractor_widths", "mean_widths",
            "kernel_widths", "embed_dim"]
    action = ["x", "y", "yaw", "depth", "stiffness"]
    for record, keys in [
        (ckpt["architecture"], arch),
        (ckpt["kernel_params"], ["log_lengthscale", "log_outputscale", "log_noise"]),
        (manifest, ["method", "seed", "config", "events", "splits", "loss_curves",
                    "kernel_params", "stats"]),
        (manifest["config"], ["k_folds", "lr_mean", "lr_kernel", "patience",
                              "validation_fraction", "l2_anchor_coeff", "seed", "batch_size",
                              "max_epochs_mean", "max_epochs_meta", "split_rule", "arch"]),
        (manifest["config"]["arch"], arch),
        (manifest["splits"][0], ["fold_index", "ref_task", "mean_task_ids", "kernel_task_ids",
                                 "split_method", "degenerate", "material_overlap"]),
        (dataset["trajectory_constants"], ["attack_angle_deg", "drag_length_m",
                                           "closing_angle_deg", "lift_height_m",
                                           "linear_stiffness_soft", "linear_stiffness_hard",
                                           "torsion_stiffness_soft", "torsion_stiffness_hard"]),
        (dataset["records"][0]["action"], action),
        (suite["tasks"][0], ["task_id", "is_test", "composition", "materials", "seed", "layer_depth",
                             "extent", "cell"]),
        (suite["tasks"][0]["materials"][0], ["id", "color", "texture_scale",
                                                        "peak_volume", "peak_depth",
                                                        "depth_width", "jam_penalty",
                                                        "stiffness_pref"]),
        (step, ["index", "action", "reward", "score"]),
        (step["action"], action),
    ]:
        assert list(record) == keys


def test_checkpoint_roundtrip_bit_exact(pipeline, tmp_path):
    model, meta = load_checkpoint(pipeline["ckpt"])
    assert meta.method == "kcmd-ot" and meta.seed == 1
    copy = tmp_path / "copy.json"
    save_checkpoint(model, copy, method=meta.method, seed=meta.seed,
                    manifest_digest=meta.manifest_digest)
    assert copy.read_bytes() == Path(pipeline["ckpt"]).read_bytes()
    assert weights_path(copy).read_bytes() == weights_path(pipeline["ckpt"]).read_bytes()


def test_trace_bookkeeping(pipeline):
    traces = [
        read_fields(EpisodeTrace, json.loads(line))
        for line in pipeline["traces"].read_text().splitlines()
    ]
    assert len(traces) == 2 * 2  # tasks x reps
    for tr in traces:
        assert tr.meta["method"] == "kcmd-ot"
        assert tr.meta["mode"] == "replay"
        indices = [s.index for s in tr.steps]
        assert len(set(indices)) == len(indices)


def test_replay_repetitions_differ_only_in_rep(pipeline):
    lines = [json.loads(line) for line in pipeline["traces"].read_text().splitlines()]
    for first, second in zip(lines[0::2], lines[1::2]):
        assert (first["meta"].pop("rep"), second["meta"].pop("rep")) == (0, 1)
        assert first == second


def test_report_matches_independent_recomputation(pipeline):
    summary = json.loads((pipeline["report"] / "summary.json").read_text())
    traces = [json.loads(line) for line in pipeline["traces"].read_text().splitlines()]
    counted = [
        t["attempts"] if t["success"] else t["max_attempts"] for t in traces
    ]
    agg = summary["deploy"]["kcmd-ot"]
    assert agg["mean_attempts"] == pytest.approx(np.mean(counted))
    assert agg["max_attempts"] == max(counted)
    assert agg["n_trials"] == len(counted)
    assert (pipeline["report"] / "attempts.svg").exists()
    assert (pipeline["report"] / "plotdata" / "mae.json").exists()
    assert "kcmd-ot" in summary["kshot_mae"]


def test_eval_kshot_matches_pair_scoring_oracle(pipeline):
    """eval-kshot scores feature rows through predict_rows; its MAE file
    holds, bit for bit, what scoring (obs, action) pairs and support
    tuples through predict_batch gives."""
    payload = json.loads(pipeline["mae"].read_text())
    model, _ = load_checkpoint(pipeline["ckpt"])
    tasks = [load_task_dataset(p) for p in sorted((pipeline["data"] / "tasks").glob("test-*.json"))]
    assert payload["shots"] == [0, 3]
    assert payload["per_task"] == kshot_mae_reference(model, tasks, [0, 3], seed=0)


def test_eval_commands_use_learner_view(pipeline, tmp_path, monkeypatch):
    views = []
    orig = cli.load_task_dataset

    def spy(path, view="learner", **kwargs):
        views.append(view)
        return orig(path, view=view, **kwargs)

    monkeypatch.setattr(cli, "load_task_dataset", spy)
    out = tmp_path / "t.jsonl"
    assert cli.main(
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data",
         str(pipeline["data"]), "--out", str(out), "--mode", "replay",
         "--max-attempts", "5", "--reps", "1"]
    ) == 0
    assert cli.main(
        ["eval-kshot", "--model", str(pipeline["ckpt"]), "--data",
         str(pipeline["data"]), "--out", str(tmp_path / "m.json"), "--shots", "0"]
    ) == 0
    assert views and all(v == "learner" for v in views)


def test_validation_errors_exit_1(pipeline, tmp_path, capsys):
    bad = [
        ["train", "--method", "sl", "--data", str(tmp_path / "nope"), "--out", "x.json"],
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", "t.jsonl", "--mode", "flight"],
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", "t.jsonl", "--max-attempts", "0"],
        ["eval-kshot", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", "m.json", "--shots", "0,99"],
        ["eval-kshot", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", "m.json", "--shots", "a,b"],
        ["report", "--out", str(tmp_path / "r")],
        ["gen-data", "--out", str(tmp_path / "d"), "--samples", "3"],
        ["gen-data", "--out", str(tmp_path / "d"), "--n-train", "0"],
        ["gen-data", "--out", str(tmp_path / "d"), "--n-train", "1"],
        ["gen-data", "--out", str(tmp_path / "d"), "--n-test", "0"],
        ["gen-data", "--out", str(tmp_path / "d"), "--seed", "-1"],
        ["train", "--method", "sl", "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "m.json"), "--seed", "-1"],
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "t.jsonl"), "--seed", "-3"],
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "t.jsonl"), "--mode", "live", "--seed", "-2"],
        ["eval-kshot", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "k.json"), "--seed", "-3"],
        ["eval-kshot", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "k.json"), "--shots=-1,2"],
        # flags the parser refuses: an unknown choice, a value of the
        # wrong type, a missing required flag and an unknown subcommand
        ["train", "--method", "bogus", "--data", str(pipeline["data"]), "--out", str(tmp_path / "m.json")],
        ["gen-data", "--out", str(tmp_path / "d"), "--seed", "abc"],
        ["eval-kshot", "--data", str(pipeline["data"]), "--out", str(tmp_path / "k.json")],
        ["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "t.jsonl"), "--max-attempts", "many"],
        ["fly"],
    ]
    for flag, value in [("--policy", "bogus"), ("--gamma", "-1"), ("--gamma", "nan"), ("--gamma", "inf"),
                        ("--reps", "0")]:
        bad.append(["eval-deploy", "--model", str(pipeline["ckpt"]), "--data",
                    str(pipeline["data"]), "--out", str(tmp_path / "t.jsonl"), flag, value])
    for method, flag, value in [
        ("sl", "--max-epochs-mean", "0"),
        ("dkmt", "--max-epochs-meta", "0"),
        ("kcmd-ot", "--max-epochs-mean", "-1"),
        ("kcmd-random", "--max-epochs-meta", "-3"),
    ]:
        bad.append(["train", "--method", method, "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "m.json"), "--k-folds", "2", flag, value])
    for argv in bad:
        assert cli.main(argv) == 1, argv
        assert "error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    for argv in (["--help"], ["eval-deploy", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert "usage: scoopgp" in capsys.readouterr().out
    # a report input that is not JSON, or JSON of the wrong shape, is
    # named, a trace by its line too
    lines = Path(pipeline["traces"]).read_text().splitlines()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
    shapeless = tmp_path / "shapeless.jsonl"
    shapeless.write_text(lines[0] + "\n{}\n")
    mae = tmp_path / "mae.json"
    mae.write_text(Path(pipeline["mae"]).read_text()[:-1])
    number = tmp_path / "number.json"
    number.write_text("5")
    mistyped = {}
    for name, field, value in [("meta", "meta", 5), ("cap", "max_attempts", "20"),
                               ("seedless", "meta", {"method": "sl"})]:
        mistyped[name] = tmp_path / f"{name}.jsonl"
        mistyped[name].write_text(lines[0] + "\n" + json.dumps({**json.loads(lines[1]), field: value}) + "\n")
    # success claimed although the final reward is below the threshold
    contradicting = json.loads(lines[1])
    contradicting["success"] = True
    contradicting["steps"][-1]["reward"] = contradicting["threshold"] - 1.0
    mistyped["contradiction"] = tmp_path / "contradiction.jsonl"
    mistyped["contradiction"].write_text(lines[0] + "\n" + json.dumps(contradicting) + "\n")
    # traces no episode writes: attempts above the cap, a cap of 0, a failure
    # whose only step met the threshold, and a success with a fault
    success = json.loads(lines[1])
    for name, edit in [
        ("over_cap", {"max_attempts": 2, "attempts": 4, "steps": success["steps"][1:2] + success["steps"]}),
        ("zero_cap", {"max_attempts": 0, "attempts": 0, "steps": [], "success": False}),
        ("unflagged", {"success": False, "attempts": 1, "steps": success["steps"][-1:]}),
        ("faulted_success", {"fault": "RuntimeError: boom"}),
    ]:
        mistyped[name] = tmp_path / f"{name}.jsonl"
        mistyped[name].write_text(lines[0] + "\n" + json.dumps({**success, **edit}) + "\n")
    # a first step no episode takes: an action off its ranges, a negative index
    first = success["steps"][0]
    for name, edit in [("off_yaw", {"action": {**first["action"], "yaw": 99}}),
                       ("off_depth", {"action": {**first["action"], "depth": 5.0}}),
                       ("negative_index", {"index": -3})]:
        mistyped[name] = tmp_path / f"{name}.jsonl"
        steps = [{**first, **edit}, *success["steps"][1:]]
        mistyped[name].write_text(lines[0] + "\n" + json.dumps({**success, "steps": steps}) + "\n")
    for name, field, value in [("string_mae", "mean", {"0": "abc"}), ("shotless_mae", "mean", {"zero": 1.0}),
                               ("infinite_mae", "mean", {"0": float("inf")}),
                               ("string_task_mae", "per_task", {"test-00": "x"}),
                               ("foreign_shot_mae", "mean", {"0": 1.0, "7": 2.0}),
                               ("uneven_task_mae", "per_task", {"test-00": {"0": 1.0, "3": 2.0},
                                                                "test-01": {"0": 1.0}})]:
        mistyped[name] = tmp_path / f"{name}.json"
        mistyped[name].write_text(json.dumps({**json.loads(Path(pipeline["mae"]).read_text()), field: value}))
    # shot counts eval-kshot never writes: a negative one, and none at all
    table = json.loads(Path(pipeline["mae"]).read_text())
    # a negative MAE, as the mean and as a task's
    task = next(iter(table["per_task"]))
    for name, field, value in [("negative_mae", "mean", {**table["mean"], "0": -5.0}),
                               ("negative_task_mae", "per_task",
                                {**table["per_task"], task: {**table["per_task"][task], "0": -5.0}})]:
        mistyped[name] = tmp_path / f"{name}.json"
        mistyped[name].write_text(json.dumps({**table, field: value}))
    for name, shots in [("negative_shot_mae", [-3, 0]), ("no_shot_mae", [])]:
        keyed = {str(k): 1.0 for k in shots}
        mistyped[name] = tmp_path / f"{name}.json"
        mistyped[name].write_text(json.dumps({**table, "shots": shots, "mean": keyed,
                                              "per_task": {task: keyed for task in table["per_task"]}}))
    # a second file of a task: the copy of test-00 (train-00) saved as test-07 (train-07)
    repeated = tmp_path / "repeated"
    shutil.copytree(pipeline["data"], repeated)
    copies = {}
    for prefix in ("test", "train"):
        original, copy = (repeated / "tasks" / f"{prefix}-{i:02d}.json" for i in (0, 7))
        for source, target in ((original, copy), (patches_path(original), patches_path(copy))):
            shutil.copyfile(source, target)
        copies[prefix] = f"{copy} repeats the task id '{prefix}-00' of {original}"
    for argv, where in [
        (["report", "--traces", str(truncated), "--out", str(tmp_path / "r")],
         f"{truncated}: line 2"),
        (["report", "--traces", str(shapeless), "--out", str(tmp_path / "r")],
         f"{shapeless}: line 2"),
        (["report", "--mae", str(mae), "--out", str(tmp_path / "r")], str(mae)),
        (["report", "--mae", str(number), "--out", str(tmp_path / "r")], str(number)),
        *[(["report", "--traces", str(mistyped[name]), "--out", str(tmp_path / "r")],
           f"{mistyped[name]}: line 2")
          for name in ("meta", "cap", "seedless", "contradiction", "over_cap", "zero_cap", "unflagged",
                       "faulted_success", "off_yaw", "off_depth", "negative_index")],
        *[(["report", "--mae", str(mistyped[name]), "--out", str(tmp_path / "r")], str(mistyped[name]))
          for name in ("string_mae", "shotless_mae", "infinite_mae", "string_task_mae", "foreign_shot_mae",
                       "uneven_task_mae", "negative_shot_mae", "no_shot_mae", "negative_mae",
                       "negative_task_mae")],
        (["train", "--method", "sl", "--data", str(repeated), "--out", str(tmp_path / "m.json")],
         copies["train"]),
        *[([*argv, "--model", str(pipeline["ckpt"]), "--data", str(repeated), "--out", str(tmp_path / out)],
           copies["test"])
          for argv, out in [(["eval-deploy"], "t.jsonl"), (["eval-deploy", "--mode", "live"], "t.jsonl"),
                            (["eval-kshot", "--shots", "0,3"], "k.json")]],
    ]:
        assert cli.main(argv) == 1, argv
        assert where in capsys.readouterr().err
    for out in ("d", "m.json", "t.jsonl", "k.json", "r"):
        assert not (tmp_path / out).exists(), out  # refused before any output was made


# every flag with a range: its command, the lowest value the parser
# accepts, what that parses to, and the value just below it
RANGED_FLAGS = [
    ("gen-data", "--seed", "0", 0, "-1"),
    ("gen-data", "--n-train", "2", 2, "1"),
    ("gen-data", "--n-test", "1", 1, "0"),
    ("gen-data", "--samples", "5", 5, "4"),
    ("eval-deploy", "--gamma", "0", 0.0, "-5e-324"),
    ("eval-deploy", "--max-attempts", "1", 1, "0"),
    ("eval-deploy", "--reps", "1", 1, "0"),
    ("eval-deploy", "--seed", "0", 0, "-1"),
    ("eval-kshot", "--seed", "0", 0, "-1"),
    ("eval-kshot", "--shots", "0", [0], "-1"),
]


@pytest.mark.parametrize("command, flag, lowest, parsed, below", RANGED_FLAGS,
                         ids=[f"{c}{f}" for c, f, *_ in RANGED_FLAGS])
def test_flag_range_boundaries(tmp_path, capsys, command, flag, lowest, parsed, below):
    """The lowest value of a ranged flag parses; the value just below it
    exits 1 before the command reads or writes a file."""
    argv = [command, "--out", str(tmp_path / "out")]
    if command != "gen-data":
        argv += ["--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data")]
    args = cli.build_parser().parse_args([*argv, f"{flag}={lowest}"])
    assert getattr(args, flag[2:].replace("-", "_")) == parsed
    assert cli.main([*argv, f"{flag}={below}"]) == 1
    assert "error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_shots_parse_sorted_without_repeats():
    args = cli.build_parser().parse_args(["eval-kshot", "--model", "m", "--data", "d", "--out", "o",
                                          "--shots", "5,0,5"])
    assert args.shots == [0, 5]
    assert cli.build_parser().parse_args(["eval-kshot", "--model", "m", "--data", "d", "--out", "o"]).shots == [0, 5, 10]


def test_eval_deploy_on_too_few_records_exits_1(pipeline, tmp_path, capsys):
    """A test dataset with fewer than 5 records has no success threshold."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "tasks" / "test-00.json"
    ds = load_task_dataset(path, view="oracle")
    short = TaskDataset(ds.task_id, ds.patches[:4], ds.actions[:4], ds.rewards[:4], ds.constants, ds.ground_truth)
    save_task_dataset(short, path)
    out = tmp_path / "t.jsonl"
    assert cli.main(["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(data),
                     "--out", str(out), "--max-attempts", "3", "--reps", "1"]) == 1
    assert "test-00.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("materials", [None, "train-1", [], [3, 7]], ids=["null", "string", "empty", "numbers"])
def test_kcmd_manual_refuses_untyped_materials(pipeline, tmp_path, capsys, materials):
    """kcmd-manual splits by the ground truth's material ids, so a train
    dataset without a non-empty list of string ids is refused by name."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "tasks" / "train-01.json"
    payload = json.loads(path.read_text())
    if materials is None:
        payload["ground_truth"] = None
    else:
        payload["ground_truth"]["materials"] = materials
    path.write_text(json.dumps(payload))
    assert cli.main(["train", "--method", "kcmd-manual", "--data", str(data), "--out",
                     str(tmp_path / "m.json"), "--k-folds", "2"]) == 1
    assert "train-01.json" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_version_mismatched_checkpoint_rejected(pipeline, tmp_path):
    payload = json.loads(Path(pipeline["ckpt"]).read_text())
    payload["schema_version"] = 42
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = cli.main(
        ["eval-kshot", "--model", str(bad), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "m.json"), "--shots", "0"]
    )
    assert rc == 1


def _set_schema_version(payload):
    payload["schema_version"] = 1


def _yaw_out_of_range(payload):
    payload["records"][4]["action"]["yaw"] = 8


def _depth_out_of_range(payload):
    payload["records"][4]["action"]["depth"] = 0.2


def _infinite_reward(payload):
    payload["records"][4]["reward"] = float("inf")


def _missing_reward(payload):
    del payload["records"][4]["reward"]


def _no_records(payload):
    payload["records"] = []


def _fractional_yaw(payload):
    payload["records"][4]["action"]["yaw"] = 2.7


def _fractional_stiffness(payload):
    payload["records"][4]["action"]["stiffness"] = 0.5


def _boolean_depth(payload):
    payload["records"][4]["action"]["depth"] = False


def _string_reward(payload):
    payload["records"][4]["reward"] = "12.5"


def _action_unknown_key(payload):
    payload["records"][4]["action"]["force"] = 1.0


def _fractional_patch_shape(payload):
    payload["patch_shape"][0] += 0.7


def _patch_shape_of_another_size(payload):
    payload["patch_shape"][2] //= 2


def _numeric_task_id(payload):
    payload["task_id"] = 5


def _numeric_ground_truth(payload):
    payload["ground_truth"] = 5


def _record_with_patch(payload):
    payload["records"][4]["patch"] = [0.5] * 1024


def _train_sl_exits_1_naming_train_01(data, tmp_path, capsys):
    rc = cli.main(["train", "--method", "sl", "--data", str(data),
                   "--out", str(tmp_path / "sl.json")])
    assert rc == 1
    assert "train-01.json" in capsys.readouterr().err
    assert not (tmp_path / "sl.json").exists()


@pytest.mark.parametrize(
    "corrupt",
    [_set_schema_version, _yaw_out_of_range, _depth_out_of_range, _infinite_reward,
     _missing_reward, _no_records, _fractional_yaw, _fractional_stiffness, _boolean_depth,
     _string_reward, _action_unknown_key, _fractional_patch_shape, _patch_shape_of_another_size,
     _numeric_task_id, _numeric_ground_truth, _record_with_patch],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_dataset_exits_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "tasks" / "train-01.json"
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    _train_sl_exits_1_naming_train_01(data, tmp_path, capsys)


def _missing_sidecar(sidecar):
    sidecar.unlink()


def _truncated_sidecar(sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-100])


def _float32_patches(sidecar):
    np.save(sidecar, np.load(sidecar).astype(np.float32))


def _boolean_patches(sidecar):
    np.save(sidecar, np.load(sidecar) > 0.5)


def _string_patches(sidecar):
    np.save(sidecar, np.load(sidecar).astype(str))


def _pickled_patches(sidecar):
    np.save(sidecar, np.load(sidecar).astype(object), allow_pickle=True)


def _drop_patch(sidecar):
    np.save(sidecar, np.load(sidecar)[:-1])


def _flattened_patches(sidecar):
    patches = np.load(sidecar)
    np.save(sidecar, patches.reshape(len(patches), -1))


def _nan_patch_value(sidecar):
    patches = np.load(sidecar)
    patches[4, -1, -1, -1] = np.nan
    np.save(sidecar, patches)


def _appearance_out_of_range(sidecar):
    patches = np.load(sidecar)
    patches[4, 0, 0, 0] = 1.5
    np.save(sidecar, patches)


@pytest.mark.parametrize(
    "corrupt",
    [_missing_sidecar, _truncated_sidecar, _float32_patches, _boolean_patches, _string_patches,
     _pickled_patches, _drop_patch, _flattened_patches, _nan_patch_value, _appearance_out_of_range],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_patches_exit_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    corrupt(patches_path(data / "tasks" / "train-01.json"))
    _train_sl_exits_1_naming_train_01(data, tmp_path, capsys)


def _terrain(suite):
    return suite["tasks"][-1]


def _grid_off_extent(suite):
    _terrain(suite)["extent"] = [0.5, 0.6]


def _layer_depth_without_layer(suite):
    # a layer depth whose hidden grid the sidecar lacks
    _terrain(suite)["layer_depth"] = 0.05


def _material_color_out_of_range(suite):
    _terrain(suite)["materials"][0]["color"][1] = 1.4


def _material_unknown_key(suite):
    _terrain(suite)["materials"][0]["hardness"] = 0.5


def _missing_cell(suite):
    del _terrain(suite)["cell"]


def _suite_not_json(suite):
    return "{not json"


def _fractional_seed(suite):
    _terrain(suite)["seed"] = 5.7


def _terrain_unknown_key(suite):
    _terrain(suite)["roughness"] = 0.1


def _numeric_suite_task_id(suite):
    suite["tasks"][0]["task_id"] = 7  # a train task, which live deployment never looks up


def _string_is_test(suite):
    suite["tasks"][-1]["is_test"] = "no"


def _wrong_composition(suite):
    suite["tasks"][-1]["composition"] = "Marsh"


def _missing_composition(suite):
    del suite["tasks"][-1]["composition"]


def _suite_task_unknown_key(suite):
    suite["tasks"][-1]["difficulty"] = 3


def _tasks_not_a_list(suite):
    suite["tasks"] = 5


def _missing_tasks(suite):
    del suite["tasks"]


def _suite_unknown_key(suite):
    suite["generator"] = "v2"


def _string_samples(suite):
    suite["samples"] = "x"


def _repeated_task_id(suite):
    # a train task under a test task's id, which the later test task would replace
    suite["tasks"][0]["task_id"] = suite["tasks"][-1]["task_id"]


def _old_schema(suite):
    suite["schema_version"] = 1


def _missing_layer_depth(suite):
    del _terrain(suite)["layer_depth"]


@pytest.mark.parametrize(
    "corrupt",
    [_grid_off_extent, _layer_depth_without_layer,
     _material_color_out_of_range, _material_unknown_key, _missing_cell, _suite_not_json,
     _fractional_seed, _terrain_unknown_key, _numeric_suite_task_id, _string_is_test,
     _wrong_composition, _missing_composition, _suite_task_unknown_key, _tasks_not_a_list,
     _missing_tasks, _suite_unknown_key, _string_samples, _repeated_task_id,
     _old_schema, _missing_layer_depth],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_suite_terrain_exits_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "suite.json"
    suite = json.loads(path.read_text())
    text = corrupt(suite)
    path.write_text(text if text is not None else json.dumps(suite))
    _live_exits_1_naming(pipeline, data, tmp_path, capsys, "suite.json")


def _live_exits_1_naming(pipeline, data, tmp_path, capsys, name):
    out = tmp_path / "live.jsonl"
    rc = cli.main(["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(data),
                   "--out", str(out), "--mode", "live", "--max-attempts", "2", "--reps", "1"])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# the suite's last task, test-01, a Partition tray without a hidden layer
LAST = "test-01"


def _grids(sidecar) -> dict:
    with np.load(sidecar) as npz:
        return dict(npz)


def _set_grid(sidecar, name, value):
    grids = _grids(sidecar)
    grids[name] = value(grids) if callable(value) else value
    np.savez(sidecar, **grids)


def _missing_grids_file(suite, sidecar):
    sidecar.unlink()


def _truncated_grids(suite, sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-100])


def _grids_not_a_zip(suite, sidecar):
    surface = _grids(sidecar)[f"{LAST}/surface"]
    with sidecar.open("wb") as fh:
        np.save(fh, surface)


def _member_not_an_array(suite, sidecar):
    with zipfile.ZipFile(sidecar, "a") as zf:
        zf.writestr("notes.txt", "the surface of test-01 is wet")


def _pickled_grid(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/surface", lambda g: g[f"{LAST}/surface"].astype(object))


def _terrain_missing_surface(suite, sidecar):
    grids = _grids(sidecar)
    del grids[f"{LAST}/surface"]
    np.savez(sidecar, **grids)


def _missing_heightfield(suite, sidecar):
    grids = _grids(sidecar)
    del grids["train-00/heightfield"]
    np.savez(sidecar, **grids)


def _unknown_grid_name(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/roughness", np.zeros((90, 60)))


def _grid_of_an_unknown_task(suite, sidecar):
    _set_grid(sidecar, "test-07/surface", lambda g: g[f"{LAST}/surface"])


def _fractional_surface_index(suite, sidecar):
    def fractional(grids):
        surface = grids[f"{LAST}/surface"].astype(np.float64)
        surface[3, 4] = 1.5
        return surface
    _set_grid(sidecar, f"{LAST}/surface", fractional)


def _boolean_surface(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/surface", lambda g: g[f"{LAST}/surface"] > 0)


def _float_hidden(suite, sidecar):
    _terrain(suite)["layer_depth"] = 0.05
    _set_grid(sidecar, f"{LAST}/hidden", lambda g: g[f"{LAST}/surface"].astype(np.float64))


def _string_height(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/heightfield", lambda g: g[f"{LAST}/heightfield"].astype(str))


def _float32_heightfield(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/heightfield", lambda g: g[f"{LAST}/heightfield"].astype(np.float32))


def _integer_heightfield(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/heightfield", lambda g: np.zeros((90, 60), dtype=np.int64))


def _ragged_heightfield(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/heightfield", lambda g: g[f"{LAST}/heightfield"][:, :-1].copy())


def _transposed_surface(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/surface", lambda g: g[f"{LAST}/surface"].T.copy())


def _flattened_heightfield(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/heightfield", lambda g: g[f"{LAST}/heightfield"].ravel())


def _nan_height(suite, sidecar):
    def nan(grids):
        h = grids[f"{LAST}/heightfield"]
        h[3, 4] = np.nan
        return h
    _set_grid(sidecar, f"{LAST}/heightfield", nan)


def _infinite_height(suite, sidecar):
    def inf(grids):
        h = grids[f"{LAST}/heightfield"]
        h[0, -1] = np.inf
        return h
    _set_grid(sidecar, f"{LAST}/heightfield", inf)


def _surface_index_out_of_range(suite, sidecar):
    def out_of_range(grids):
        surface = grids[f"{LAST}/surface"]
        surface[3, 4] = len(_terrain(suite)["materials"])
        return surface
    _set_grid(sidecar, f"{LAST}/surface", out_of_range)


def _negative_hidden_index(suite, sidecar):
    _terrain(suite)["layer_depth"] = 0.05
    _set_grid(sidecar, f"{LAST}/hidden", lambda g: np.minimum(g[f"{LAST}/surface"], -1))


def _hidden_without_layer_depth(suite, sidecar):
    _set_grid(sidecar, f"{LAST}/hidden", lambda g: g[f"{LAST}/surface"])


@pytest.mark.parametrize(
    "corrupt",
    [_missing_grids_file, _truncated_grids, _grids_not_a_zip, _member_not_an_array, _pickled_grid,
     _terrain_missing_surface,
     _missing_heightfield, _unknown_grid_name, _grid_of_an_unknown_task, _fractional_surface_index,
     _boolean_surface, _float_hidden, _string_height, _float32_heightfield, _integer_heightfield,
     _ragged_heightfield, _transposed_surface, _flattened_heightfield, _nan_height, _infinite_height,
     _surface_index_out_of_range, _negative_hidden_index, _hidden_without_layer_depth],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_suite_grids_exit_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "suite.json"
    suite = json.loads(path.read_text())
    corrupt(suite, cli.grids_path(path))
    path.write_text(json.dumps(suite))
    _live_exits_1_naming(pipeline, data, tmp_path, capsys, "suite.json.grids.npz")


def test_a_layered_edit_of_the_suite_loads(pipeline, tmp_path):
    """The edits the hidden-grid rows above break, made whole: a hidden
    grid of valid indices beside a layer depth loads."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "suite.json"
    suite = json.loads(path.read_text())
    _terrain(suite)["layer_depth"] = 0.05
    path.write_text(json.dumps(suite))
    _set_grid(cli.grids_path(path), f"{LAST}/hidden", lambda g: g[f"{LAST}/surface"])
    terrain = cli.load_suite_terrains(data)[LAST].terrain
    assert terrain.layer_depth == 0.05 and terrain.hidden.tolist() == terrain.surface.tolist()


def _infinite_log_noise(payload):
    payload["kernel_params"]["log_noise"] = float("inf")


def _zero_reward_std(payload):
    payload["normalization"]["reward_std"] = 0.0


def _architecture_unknown_key(payload):
    payload["architecture"]["dropout"] = 0.1


def _architecture_missing_field(payload):
    # the checkpoint's embed_dim is the default: a loader that filled a
    # missing field with its default would load this one
    assert payload["architecture"]["embed_dim"] == Architecture().embed_dim
    del payload["architecture"]["embed_dim"]


def _string_reward_mean(payload):
    payload["normalization"]["reward_mean"] = "30.0"


def _normalization_unknown_key(payload):
    payload["normalization"]["reward_sdt"] = -1.0


def _string_has_kernel(payload):
    payload["has_kernel"] = "no"


def _kernel_params_unknown_key(payload):
    payload["kernel_params"]["log_nosie"] = 5.0


def _boolean_log_noise(payload):
    payload["kernel_params"]["log_noise"] = True


def _overflowing_log_noise(payload):
    payload["kernel_params"]["log_noise"] = 1000.0


def _checkpoint_is_a_list(payload):
    return [payload]


def _architecture_empty_extractor(payload):
    payload["architecture"]["extractor_widths"] = []


@pytest.mark.parametrize(
    "corrupt", [_infinite_log_noise, _zero_reward_std, _architecture_unknown_key,
                _architecture_missing_field, _string_reward_mean, _normalization_unknown_key,
                _string_has_kernel, _kernel_params_unknown_key, _boolean_log_noise,
                _overflowing_log_noise, _checkpoint_is_a_list, _architecture_empty_extractor],
    ids=lambda f: f.__name__.strip("_"),
)
def test_corrupt_checkpoint_exits_1(pipeline, tmp_path, capsys, corrupt):
    payload = json.loads(Path(pipeline["ckpt"]).read_text())
    replaced = corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload if replaced is None else replaced))
    shutil.copy(weights_path(pipeline["ckpt"]), weights_path(bad))
    _eval_kshot_exits_1_naming_bad_json(pipeline, tmp_path, capsys)


def _narrowed_copy(data, tmp_path):
    """A copy of a suite whose every dataset holds patches half as wide,
    (4, 16, 8), as valid files."""
    narrowed = tmp_path / "narrowed"
    shutil.copytree(data, narrowed)
    for path in sorted((narrowed / "tasks").glob("*.json")):
        payload = json.loads(path.read_text())
        payload["patch_shape"][2] //= 2
        path.write_text(json.dumps(payload))
        patches = np.load(patches_path(path))
        np.save(patches_path(path), np.ascontiguousarray(patches[..., : payload["patch_shape"][2]]))
    return narrowed


@pytest.mark.parametrize("command", ["eval-kshot", "eval-deploy", "train"])
def test_patch_shape_not_the_models_exits_1(pipeline, tmp_path, capsys, command):
    """Datasets that are valid files, but whose patches are narrower than
    the architecture's (the checkpoint's, or the default one that train
    builds), are refused where they are loaded."""
    data = _narrowed_copy(pipeline["data"], tmp_path)
    if command == "train":
        argv, first = ["train", "--method", "sl", "--out", str(tmp_path / "m.json")], "train-00.json"
    else:
        argv, first = [command, "--model", str(pipeline["ckpt"]), "--out", str(tmp_path / "out")], "test-00.json"
    argv += ["--data", str(data)]
    if command == "eval-kshot":
        argv += ["--shots", "0,3"]  # a 30-record dataset has a 6-record support pool
    assert cli.main(argv) == 1
    assert first in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_refused_eval_deploy_keeps_an_earlier_trace_file(pipeline, tmp_path, capsys):
    """eval-deploy writes its trace file once every trace exists, so a run
    that refuses a dataset leaves the file of an earlier run byte for byte."""
    out = tmp_path / "t.jsonl"
    argv = ["eval-deploy", "--model", str(pipeline["ckpt"]), "--out", str(out), "--max-attempts", "3", "--reps", "1"]
    assert cli.main([*argv, "--data", str(pipeline["data"])]) == 0
    written = out.read_bytes()
    assert written.count(b"\n") == 2
    assert cli.main([*argv, "--data", str(_narrowed_copy(pipeline["data"], tmp_path))]) == 1
    assert "test-00.json" in capsys.readouterr().err
    assert out.read_bytes() == written


def _eval_kshot_exits_1_naming_bad_json(pipeline, tmp_path, capsys):
    rc = cli.main(
        ["eval-kshot", "--model", str(tmp_path / "bad.json"), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "m.json"), "--shots", "0"]
    )
    assert rc == 1
    assert "bad.json" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _weights(sidecar) -> dict:
    with np.load(sidecar) as npz:
        return dict(npz)


def _missing_weights_file(sidecar):
    sidecar.unlink()


def _truncated_weights(sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-100])


def _weights_not_a_zip(sidecar):
    bias = _weights(sidecar)["mean.0.b"]
    with sidecar.open("wb") as fh:
        np.save(fh, bias)


def _nan_weight(sidecar):
    w = _weights(sidecar)
    w[sorted(w)[0]][0, 3] = np.nan
    np.savez(sidecar, **w)


def _infinite_weight(sidecar):
    w = _weights(sidecar)
    w["kernel.1.b"][0, 0] = -np.inf
    np.savez(sidecar, **w)


def _missing_weight(sidecar):
    w = _weights(sidecar)
    del w["kernel.0.b"]
    np.savez(sidecar, **w)


def _extra_weight(sidecar):
    np.savez(sidecar, **_weights(sidecar), **{"kernel.2.w": np.zeros((16, 16))})


def _misshaped_weight(sidecar):
    w = _weights(sidecar)
    w["mean.1.b"] = np.zeros((1, 2))
    np.savez(sidecar, **w)


def _float32_weight(sidecar):
    w = _weights(sidecar)
    w["extractor.0.w"] = w["extractor.0.w"].astype(np.float32)
    np.savez(sidecar, **w)


def _pickled_weight(sidecar):
    w = _weights(sidecar)
    w["mean.0.b"] = w["mean.0.b"].astype(object)
    np.savez(sidecar, **w)


@pytest.mark.parametrize(
    "corrupt", [_missing_weights_file, _truncated_weights, _weights_not_a_zip, _nan_weight,
                _infinite_weight, _missing_weight, _extra_weight, _misshaped_weight,
                _float32_weight, _pickled_weight],
    ids=lambda f: f.__name__.strip("_"),
)
def test_corrupt_weights_exit_1(pipeline, tmp_path, capsys, corrupt):
    shutil.copy(pipeline["ckpt"], tmp_path / "bad.json")
    shutil.copy(weights_path(pipeline["ckpt"]), weights_path(tmp_path / "bad.json"))
    corrupt(weights_path(tmp_path / "bad.json"))
    _eval_kshot_exits_1_naming_bad_json(pipeline, tmp_path, capsys)


def test_artifacts_independent_of_blas_thread_count(tmp_path):
    """The criterion-10 training config, run as fresh CLI processes whose
    environment asks OpenBLAS for 1 and for 2 threads, writes the same
    checkpoint and manifest bytes: the CLI pins the count itself."""
    src = str(Path(scoopgp.__file__).resolve().parents[1])

    def run(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        base = tmp_path / f"threads-{threads}"
        for argv in (
            ["gen-data", "--seed", "11", "--out", str(base / "data"), "--n-train", "4",
             "--n-test", "2", "--samples", "40"],
            ["train", "--method", "kcmd-ot", "--data", str(base / "data"),
             "--out", str(base / "model.json"), "--seed", "2", "--k-folds", "2",
             "--max-epochs-mean", "25", "--max-epochs-meta", "12"],
        ):
            proc = subprocess.run([sys.executable, "-m", "scoopgp.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        return base

    one, two = run(1), run(2)
    for rel in ("model.json", "model.json.manifest.json", "model.json.weights.npz"):
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_gen_data_and_train_rewrite_every_file_byte_for_byte(tmp_path, monkeypatch):
    """gen-data and train, run twice into two directories, write the same
    bytes to every JSON, .npy and .npz file; the second run's clock reads
    three years later, so no file holds the time it was written."""
    def run(base):
        assert cli.main(["gen-data", "--seed", "5", "--out", str(base / "data"), "--n-train", "3",
                         "--n-test", "1", "--samples", "20"]) == 0
        assert cli.main(["train", "--method", "dkmt", "--data", str(base / "data"),
                         "--out", str(base / "dkmt.json"), "--seed", "1",
                         "--max-epochs-mean", "5", "--max-epochs-meta", "5"]) == 0
        return sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())

    files = run(tmp_path / "first")
    later = time.time() + 3 * 365 * 86400
    monkeypatch.setattr(time, "time", lambda: later)
    assert run(tmp_path / "second") == files
    assert {p.suffix for p in files} == {".json", ".npy", ".npz"}
    assert Path("data/suite.json.grids.npz") in files
    for rel in files:
        assert (tmp_path / "first" / rel).read_bytes() == (tmp_path / "second" / rel).read_bytes(), rel


def test_artifact_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SCOOPGP_ARTIFACTS", str(tmp_path))
    assert cli.main(
        ["gen-data", "--seed", "0", "--out", "envdata", "--n-train", "2",
         "--n-test", "1", "--samples", "6"]
    ) == 0
    assert (tmp_path / "envdata" / "suite.json").exists()


SHOTS_0_3 = {"0": 1.0, "3": 2.0}
KSHOT_KEYS = [
    ("foreign_mean", {"0": 1.0, "7": 2.0}, {"t": SHOTS_0_3}),
    ("missing_mean", {"0": 1.0}, {"t": SHOTS_0_3}),
    ("padded_mean", {"0": 1.0, "03": 2.0}, {"t": SHOTS_0_3}),
    ("missing_task_shot", SHOTS_0_3, {"t": SHOTS_0_3, "u": {"0": 1.0}}),
    ("extra_task_shot", SHOTS_0_3, {"t": {**SHOTS_0_3, "5": 3.0}}),
]


@pytest.mark.parametrize("mean, per_task", [row[1:] for row in KSHOT_KEYS], ids=[row[0] for row in KSHOT_KEYS])
def test_kshot_table_refuses_keys_other_than_its_shots(mean, per_task):
    with pytest.raises(ValueError, match=r"not the shot counts \[0, 3\]"):
        cli.KShotTable("sl", 0, 0, [0, 3], per_task, mean)


def test_kshot_table_takes_its_shots_in_any_key_order():
    table = cli.KShotTable("sl", 0, 0, [0, 3], {"t": {"3": 2.0, "0": 1.0}}, {"3": 2.0, "0": 1.0})
    assert table.mean == {"3": 2.0, "0": 1.0}


def test_aggregate_metrics_unit_cases(tmp_path):
    def trace(method, seed, task, attempts, success, cap=20):
        steps = [
            {"index": i, "action": {"x": 0.2, "y": 0.2, "yaw": 0, "depth": 0.05,
                                    "stiffness": 0}, "reward": 1.0, "score": 0.0}
            for i in range(attempts)
        ]
        if success:
            steps[-1]["reward"] = 99.0
        return read_fields(EpisodeTrace, {
            "task_id": task, "policy": "greedy", "threshold": 50.0,
            "max_attempts": cap, "success": success, "attempts": attempts,
            "fault": None, "meta": {"method": method, "model_seed": seed, "rep": 0},
            "steps": steps,
        })

    single = cli.aggregate_metrics([trace("sl", 0, "t", 3, True)], [])
    assert single["deploy"]["sl"]["mean_attempts"] == 3.0
    assert single["deploy"]["sl"]["max_attempts"] == 3

    failed = cli.aggregate_metrics([trace("sl", 0, "t", 20, False)], [])
    assert failed["deploy"]["sl"]["max_attempts"] == 20
    assert failed["deploy"]["sl"]["n_failures"] == 1

    traces = [
        trace("kcmd-ot", seed, f"task-{t}", 2 + seed, True)
        for seed in range(3)
        for t in range(4)
    ]
    multi = cli.aggregate_metrics(traces, [])
    assert len(multi["rows"]) == 12
    assert multi["deploy"]["kcmd-ot"]["per_seed_mean"] == {
        "0": 2.0, "1": 3.0, "2": 4.0,
    }

    bad = tmp_path / "bad.jsonl"
    for meta in ({}, {"method": "sl"}, {"model_seed": 0}, {"method": 3, "model_seed": 0}):
        bad.write_text(json.dumps({**record_dict(trace("sl", 0, "t", 2, True)), "meta": meta}) + "\n")
        with pytest.raises(cli.ConfigError, match=f"{bad}: line 1"):
            cli.read_traces([bad])
