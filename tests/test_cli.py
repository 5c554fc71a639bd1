import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import kshot_mae_reference

import scoopgp
from scoopgp import cli
from scoopgp.checkpoint import load_checkpoint, save_checkpoint
from scoopgp.data import load_task_dataset
from scoopgp.decision import EpisodeTrace


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
    suite = json.loads((data / "suite.json").read_text())
    assert suite["seed"] == 3 and len(suite["tasks"]) == 6
    ds = load_task_dataset(data / "tasks" / "test-00.json")
    assert len(ds) == 30 and ds.ground_truth is None
    oracle = load_task_dataset(data / "tasks" / "test-00.json", view="oracle")
    assert oracle.ground_truth and "material_table" in oracle.ground_truth


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
        (suite["tasks"][0]["terrain"]["materials"][0], ["id", "color", "texture_scale",
                                                        "peak_volume", "peak_depth",
                                                        "depth_width", "jam_penalty",
                                                        "stiffness_pref"]),
        (step, ["index", "action", "reward", "score"]),
        (step["action"], action),
    ]:
        assert list(record) == keys


def test_checkpoint_roundtrip_bit_exact(pipeline, tmp_path):
    model, meta = load_checkpoint(pipeline["ckpt"])
    assert meta["method"] == "kcmd-ot" and meta["seed"] == 1
    copy = tmp_path / "copy.json"
    save_checkpoint(model, copy, method=meta["method"], seed=meta["seed"],
                    manifest_digest=meta["manifest_digest"])
    assert copy.read_bytes() == Path(pipeline["ckpt"]).read_bytes()


def test_trace_bookkeeping(pipeline):
    traces = [
        EpisodeTrace.from_dict(json.loads(line))
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

    def spy(path, view="learner"):
        views.append(view)
        return orig(path, view=view)

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
    for flag, value in [("--policy", "bogus"), ("--gamma", "-1"), ("--reps", "0")]:
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
    for name, field, value in [("meta", "meta", 5), ("cap", "max_attempts", "20")]:
        mistyped[name] = tmp_path / f"{name}.jsonl"
        mistyped[name].write_text(lines[0] + "\n" + json.dumps({**json.loads(lines[1]), field: value}) + "\n")
    for name, mean in [("string_mae", {"0": "abc"}), ("shotless_mae", {"zero": 1.0})]:
        mistyped[name] = tmp_path / f"{name}.json"
        mistyped[name].write_text(json.dumps({**json.loads(Path(pipeline["mae"]).read_text()), "mean": mean}))
    for argv, where in [
        (["report", "--traces", str(truncated), "--out", str(tmp_path / "r")],
         f"{truncated}: line 2"),
        (["report", "--traces", str(shapeless), "--out", str(tmp_path / "r")],
         f"{shapeless}: line 2"),
        (["report", "--mae", str(mae), "--out", str(tmp_path / "r")], str(mae)),
        (["report", "--mae", str(number), "--out", str(tmp_path / "r")], str(number)),
        *[(["report", "--traces", str(mistyped[name]), "--out", str(tmp_path / "r")],
           f"{mistyped[name]}: line 2") for name in ("meta", "cap")],
        *[(["report", "--mae", str(mistyped[name]), "--out", str(tmp_path / "r")],
           str(mistyped[name])) for name in ("string_mae", "shotless_mae")],
    ]:
        assert cli.main(argv) == 1, argv
        assert where in capsys.readouterr().err
    for out in ("d", "m.json", "t.jsonl", "k.json", "r"):
        assert not (tmp_path / out).exists(), out  # refused before any output was made


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
    payload["schema_version"] = 2


def _drop_patch_value(payload):
    payload["records"][4]["patch"].pop()


def _nan_patch_value(payload):
    payload["records"][4]["patch"][-1] = float("nan")


def _appearance_out_of_range(payload):
    payload["records"][4]["patch"][0] = 1.5


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


def _string_patch_value(payload):
    payload["records"][4]["patch"][7] = "0.5"


def _boolean_patch_value(payload):
    payload["records"][4]["patch"][7] = True


def _boolean_depth(payload):
    payload["records"][4]["action"]["depth"] = False


def _string_reward(payload):
    payload["records"][4]["reward"] = "12.5"


@pytest.mark.parametrize(
    "corrupt",
    [_set_schema_version, _drop_patch_value, _nan_patch_value, _appearance_out_of_range,
     _yaw_out_of_range, _depth_out_of_range, _infinite_reward, _missing_reward, _no_records,
     _fractional_yaw, _fractional_stiffness, _string_patch_value, _boolean_patch_value,
     _boolean_depth, _string_reward],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_dataset_exits_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "tasks" / "train-01.json"
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    rc = cli.main(["train", "--method", "sl", "--data", str(data),
                   "--out", str(tmp_path / "sl.json")])
    assert rc == 1
    assert "train-01.json" in capsys.readouterr().err
    assert not (tmp_path / "sl.json").exists()


def _terrain(suite):
    return suite["tasks"][-1]["terrain"]


def _fractional_surface_index(suite):
    _terrain(suite)["surface"][3][4] = 1.5


def _surface_index_out_of_range(suite):
    _terrain(suite)["surface"][3][4] = len(_terrain(suite)["materials"])


def _string_height(suite):
    _terrain(suite)["heightfield"][3][4] = "0.01"


def _ragged_heightfield(suite):
    _terrain(suite)["heightfield"][3].pop()


def _grid_off_extent(suite):
    _terrain(suite)["extent"] = [0.5, 0.6]


def _layer_depth_without_layer(suite):
    terrain = _terrain(suite)
    terrain["hidden"], terrain["layer_depth"] = None, 0.05


def _material_color_out_of_range(suite):
    _terrain(suite)["materials"][0]["color"][1] = 1.4


def _missing_cell(suite):
    del _terrain(suite)["cell"]


def _suite_not_json(suite):
    return "{not json"


@pytest.mark.parametrize(
    "corrupt",
    [_fractional_surface_index, _surface_index_out_of_range, _string_height,
     _ragged_heightfield, _grid_off_extent, _layer_depth_without_layer,
     _material_color_out_of_range, _missing_cell, _suite_not_json],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_suite_terrain_exits_1(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "suite.json"
    suite = json.loads(path.read_text())
    text = corrupt(suite)
    path.write_text(text if text is not None else json.dumps(suite))
    out = tmp_path / "live.jsonl"
    rc = cli.main(["eval-deploy", "--model", str(pipeline["ckpt"]), "--data", str(data),
                   "--out", str(out), "--mode", "live", "--max-attempts", "2", "--reps", "1"])
    assert rc == 1
    assert "suite.json" in capsys.readouterr().err
    assert not out.exists()


def _nan_weight(payload):
    name = sorted(payload["weights"])[0]
    payload["weights"][name]["data"][3] = float("nan")


def _infinite_log_noise(payload):
    payload["kernel_params"]["log_noise"] = float("inf")


def _zero_reward_std(payload):
    payload["normalization"]["reward_std"] = 0.0


@pytest.mark.parametrize(
    "corrupt", [_nan_weight, _infinite_log_noise, _zero_reward_std],
    ids=lambda f: f.__name__.strip("_"),
)
def test_corrupt_checkpoint_exits_1(pipeline, tmp_path, capsys, corrupt):
    payload = json.loads(Path(pipeline["ckpt"]).read_text())
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = cli.main(
        ["eval-kshot", "--model", str(bad), "--data", str(pipeline["data"]),
         "--out", str(tmp_path / "m.json"), "--shots", "0"]
    )
    assert rc == 1
    assert "bad.json" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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
    for rel in ("model.json", "model.json.manifest.json"):
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_artifact_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SCOOPGP_ARTIFACTS", str(tmp_path))
    assert cli.main(
        ["gen-data", "--seed", "0", "--out", "envdata", "--n-train", "2",
         "--n-test", "1", "--samples", "6"]
    ) == 0
    assert (tmp_path / "envdata" / "suite.json").exists()


def test_aggregate_metrics_unit_cases():
    def trace(method, seed, task, attempts, success, cap=20):
        steps = [
            {"index": i, "action": {"x": 0.2, "y": 0.2, "yaw": 0, "depth": 0.05,
                                    "stiffness": 0}, "reward": 1.0, "score": 0.0}
            for i in range(attempts)
        ]
        if success:
            steps[-1]["reward"] = 99.0
        return EpisodeTrace.from_dict({
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

    with pytest.raises(cli.ConfigError):
        bad = trace("sl", 0, "t", 2, True)
        bad.meta = {}
        cli.aggregate_metrics([bad], [])
