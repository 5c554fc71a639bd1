import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_task, save_task_dataset_reference
from scoopgp import data
from scoopgp.data import DatasetError, load_task_dataset, save_task_dataset
from scoopgp.model import TrajectoryConstants, record_dict
from scoopgp.terrain import collect_offline, generate_suite


def _adversarial_values():
    """Values where a vectorized rounding or encoding can go wrong: every
    half-way point (k + 0.5) / 1e6 for |k| <= 3,000 and its two neighbours,
    signed zeros, values below 1e-4 (exponent form), values from 10 up
    (more integer digits), and round values with trailing zeros."""
    k = np.arange(-3000, 3001)
    ties = (k + 0.5) / 1e6
    special = [
        0.0, -0.0, -1e-9, 5e-7, -5e-7, 4.9999e-7, 1e-6, 5e-5, -5e-5, 9.99995e-5,
        1e-4, -1e-4, 0.1, 0.5, -0.25, 1.0, 2.5, 9.9999994, 9.9999995, 9.999999,
        10.0, -10.0, 10.5, 123.4567895, -98765.4321, 1.2e8, -1.2e8, 2.0**52, 1e300,
    ]
    return np.concatenate(
        [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), special]
    )


def test_writer_matches_reference_on_generated_suite(tmp_path):
    train, test = generate_suite(3, 12, 4)
    for index, task in enumerate(train + test):
        ds = collect_offline(task, n_samples=40, seed=300_009 + index)
        save_task_dataset(ds, tmp_path / "fast.json")
        save_task_dataset_reference(ds, tmp_path / "reference.json")
        assert (tmp_path / "fast.json").read_bytes() == (
            tmp_path / "reference.json"
        ).read_bytes(), task.task_id


def test_writer_matches_reference_on_adversarial_patches(tmp_path):
    """Adversarial values in the height channel of 3x5x7 patches; the
    appearance channels get the ones that lie in [0, 1]."""
    values = _adversarial_values()
    unit = values[(values >= 0.0) & (values <= 1.0)]
    per_record = 5 * 7
    n = -(-values.size // per_record)
    ds = make_task("adversarial", n, seed=4, channels=3, h=5, w=7)
    heights = np.resize(values, n * per_record).reshape(n, 5, 7)
    appearance = np.resize(unit[::-1], n * 2 * per_record).reshape(n, 2, 5, 7)
    for i, rec in enumerate(ds.records):
        rec.obs[:2] = appearance[i]
        rec.obs[2] = heights[i]
        rec.reward = float(values[i])
    save_task_dataset(ds, tmp_path / "fast.json")
    save_task_dataset_reference(ds, tmp_path / "reference.json")
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_round_exact_matches_python_round():
    values = _adversarial_values()
    expected = np.array([round(float(v), 6) for v in values])
    assert data.round_exact(values).tobytes() == expected.tobytes()


@pytest.mark.parametrize("fault", ["patch", "reward"])
def test_writer_refuses_non_finite_values(tmp_path, fault):
    ds = make_task("t", 4, seed=5)
    if fault == "patch":
        ds.records[2].obs[1, 0, 3] = np.nan
    else:
        ds.records[3].reward = np.inf
    path = tmp_path / "t.json"
    with pytest.raises(DatasetError, match=fault):
        save_task_dataset(ds, path)
    assert not path.exists()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    appearance=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    heights=st.lists(finite, min_size=4, max_size=4),
)
def test_save_load_roundtrip_equals_python_round(tmp_path_factory, appearance, heights):
    patch = np.concatenate([appearance, heights]).reshape(3, 2, 2)
    ds = make_task("prop", 1, seed=0, channels=3, h=2, w=2)
    ds.records[0].obs[...] = patch
    path = tmp_path_factory.mktemp("prop") / "prop.json"
    save_task_dataset(ds, path)
    loaded = load_task_dataset(path).records[0].obs
    expected = np.array([round(float(v), 6) for v in patch.ravel()]).reshape(patch.shape)
    assert loaded.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_float_encoder_equals_json_dumps(values):
    rounded = [round(v, 6) for v in values]
    (body,) = data._json_rows(np.array(rounded).reshape(1, -1))
    assert body == json.dumps(rounded)[1:-1]


def test_load_refuses_boolean_patch_values_but_not_equal_floats(tmp_path):
    ds = make_task("edges", 3, seed=2)
    ds.records[1].obs[0, 0, :2] = (0.0, 1.0)
    path = tmp_path / "edges.json"
    save_task_dataset(ds, path)
    assert load_task_dataset(path).records[1].obs[0, 0, :2].tolist() == [0.0, 1.0]
    payload = json.loads(path.read_text())
    for k, value in ((0, False), (1, True)):
        bad = json.loads(json.dumps(payload))
        bad["records"][1]["patch"][k] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(DatasetError, match=f"record 1: patch value {k} is a boolean"):
            load_task_dataset(path)


_CONSTANTS = record_dict(TrajectoryConstants())


@pytest.mark.parametrize(
    "constants",
    [
        {"attack_angle_deg": "abc"},
        {**_CONSTANTS, "attack_angle_deg": "abc"},
        {**_CONSTANTS, "drag_length_m": True},
        {**_CONSTANTS, "lift_height_m": float("nan")},
        {**_CONSTANTS, "closing_angle_deg": None},
        {k: v for k, v in _CONSTANTS.items() if k != "torsion_stiffness_hard"},
        {**_CONSTANTS, "scoop_speed": 1.0},
        [135.0],
    ],
    ids=["one-string", "string", "boolean", "nan", "null", "missing", "extra", "list"],
)
def test_load_refuses_malformed_trajectory_constants(tmp_path, constants):
    path = tmp_path / "constants.json"
    save_task_dataset(make_task("constants", 3, seed=2), path)
    payload = json.loads(path.read_text())
    payload["trajectory_constants"] = {**_CONSTANTS, "attack_angle_deg": 135}
    path.write_text(json.dumps(payload))
    assert load_task_dataset(path).constants == TrajectoryConstants()  # an integer is a number
    payload["trajectory_constants"] = constants
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match="trajectory constants"):
        load_task_dataset(path)
