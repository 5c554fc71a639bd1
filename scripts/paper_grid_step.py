"""Time one live UCB episode on the paper-scale action grid.

Runs a 20-attempt LiveEnvironment episode on ActionGrid.paper_scale()
(11,520 actions) for the Layers test task of suite 1, environment seed 5,
with an untrained default-architecture model (init seed 0) and UCB(2),
and prints one JSON line: the median and p90 step times (observe, select
and execute, as perfbench times a step), the process's peak RSS and the
chosen grid indices, so two source trees can be compared side by side.
Importing scoopgp first pins BLAS to one thread. Run it in a fresh
process from the repository root:

    PYTHONPATH=src python scripts/paper_grid_step.py
"""
import json
import resource
import time

import scoopgp  # noqa: F401  - first, so BLAS is pinned before numpy loads

import numpy as np

from scoopgp import decision, model, terrain

SUITE_SEED = 1
ENV_SEED = 5
ATTEMPTS = 20


class TimedEnv:
    """Passes an environment through, timing candidates() to execute()."""

    def __init__(self, env):
        self.task_id = env.task_id
        self._env = env
        self._t0 = 0.0
        self.steps_s: list[float] = []

    def candidates(self):
        self._t0 = time.perf_counter()
        return self._env.candidates()

    def excluded(self):
        return self._env.excluded()

    def execute(self, index):
        reward = self._env.execute(index)
        self.steps_s.append(time.perf_counter() - self._t0)
        return reward


def main() -> None:
    _, test = terrain.generate_suite(SUITE_SEED)
    task = next(t for t in test if t.composition == "Layers")
    m = model.DeepGPModel.init(model.Architecture(), seed=0)
    m.reward_mean, m.reward_std = 30.0, 15.0
    env = TimedEnv(decision.LiveEnvironment(task, decision.ActionGrid.paper_scale(), seed=ENV_SEED))
    trace = decision.run_episode(m, env, float("inf"), ATTEMPTS, decision.Policy.ucb(2.0))
    ms = np.array(env.steps_s) * 1e3
    print(json.dumps({
        "attempts": trace.attempts,
        "step_ms_p50": round(float(np.median(ms)), 1),
        "step_ms_p90": round(float(np.percentile(ms, 90)), 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "indices": [s.index for s in trace.steps],
    }))


if __name__ == "__main__":
    main()
