"""The benchmark's workloads.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from the
seed and returns ``(state, outputs)``, and a ``job(state)`` that runs the work
it measures and returns an ``Outcome``.  ``outputs`` must repeat exactly at a
fixed seed.  The calls into geoaware go through module attributes
(``training.bc_train``, ``bench.evaluate``, ...) so that a ``Tracer`` sees
them.  Every workload trains and evaluates through the public API only.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from geoaware import bench, training
from geoaware.deskworld import dataset as demos
from geoaware.deskworld.world import SimConfig, make_tasks
from geoaware.policy import Policy, PolicyConfig

LOSS_TAIL = 20                      # train_loss_final averages this many last losses
BATCH_SIZE = 64
EVAL_CATEGORY = "novel_medium"      # a fresh in-band camera pair per rollout


@dataclass
class TrainRun:
    samples: int                    # optimizer steps x batch size
    seconds: float                  # wall time of the bc_train call
    losses: list

    @property
    def final_loss(self):
        """Mean of the last LOSS_TAIL losses."""
        tail = self.losses[-LOSS_TAIL:]
        return sum(tail) / len(tail)


@dataclass
class EvalRun:
    steps: int                      # control steps over all rollouts
    seconds: float                  # wall time of the evaluate call


@dataclass
class Outcome:
    """What one job did: its timed calls, its outputs (which must repeat
    exactly at a fixed seed) and named pass/fail checks."""

    train: TrainRun
    evaluation: EvalRun
    outputs: dict
    checks: dict


def _control_steps(report):
    rollouts = sum(task["rollouts"] for task in report["tasks"])
    return int(round(rollouts * report["mean_episode_length"]))


def _report_consistent(report, rollouts, cap):
    """Every rollout counted, rates in range, episode lengths within the cap."""
    return (
        sum(task["rollouts"] for task in report["tasks"]) == rollouts
        and all(0.0 <= task["rate"] <= 100.0 for task in report["tasks"])
        and 0.0 < report["mean_episode_length"] <= cap
    )


@dataclass
class TrainWorkload:
    """``bc_train`` of one backbone/head pair on a generated demo set; the
    trained policy goes through a checkpoint round trip and a short
    closed-loop evaluation on novel cameras."""

    name: str
    backbone: str
    head: str
    episodes_per_task: int
    steps: int
    vq_pretrain_steps: int = 1
    eval_rollouts_per_task: int = 8
    eval_step_cap: int = 25

    def setup(self, seed, workdir) -> tuple:
        """Generate, save and reload the demo set, and build the policy."""
        generated = demos.generate_dataset(make_tasks(), self.episodes_per_task, seed)
        path = workdir / "demos.jsonl"
        demos.save_dataset(generated, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        dataset = demos.load_dataset(path)
        cfg = PolicyConfig(head_kind=self.head, backbone_kind=self.backbone)
        policy = Policy(cfg, tuple(dataset.instructions()), seed=seed)
        outputs = {"demos": digest, "params": policy.params.hash_of()}
        return (dataset, policy, seed, workdir), outputs

    def job(self, state) -> Outcome:
        dataset, template, seed, workdir = state
        policy = copy.deepcopy(template)
        cfg = training.TrainConfig(
            steps=self.steps,
            batch_size=BATCH_SIZE,
            seed=seed,
            head_kind=self.head,
            backbone_kind=self.backbone,
            vq_pretrain_steps=self.vq_pretrain_steps,
            eval_every=0,
        )
        start = time.perf_counter()
        _, losses = training.bc_train(dataset, cfg, policy=policy)
        train = TrainRun(len(losses) * cfg.batch_size, time.perf_counter() - start, [float(x) for x in losses])

        path = workdir / "policy.ckpt"
        training.save_checkpoint(policy, path, step=cfg.steps, train=cfg, sim=SimConfig())
        reloaded = training.load_checkpoint(path).policy
        saved_hash = policy.params.hash_of()

        sim = SimConfig(max_episode_steps=self.eval_step_cap)
        start = time.perf_counter()
        report = bench.evaluate(
            reloaded, EVAL_CATEGORY, rollouts_per_task=self.eval_rollouts_per_task, seeds=(seed,), sim=sim,
            model=self.name,
        )
        seconds = time.perf_counter() - start
        report = report.to_dict()
        rollouts = self.eval_rollouts_per_task * len(make_tasks())
        return Outcome(
            train=train,
            evaluation=EvalRun(_control_steps(report), seconds),
            outputs={"losses": train.losses, "params": saved_hash, "report": report},
            checks={
                "losses_finite": bool(train.losses) and bool(np.all(np.isfinite(train.losses))),
                "checkpoint_hash": reloaded.params.hash_of() == saved_hash,
                "report_consistent": _report_consistent(report, rollouts, self.eval_step_cap),
            },
        )


# Sizes: a job (training, then evaluation for about 40 % of its time) takes
# 5-8 s on a 2-core x86-64 VM, so a 50-second run repeats it several times.
# The pixel demo set is three times the geo one so that its frame cache keeps
# missing through the run; 300 VQ steps keep the pixel loss within about 10 %
# across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-geo-mlp",
            backbone="geo",
            head="mlp",
            episodes_per_task=16,
            steps=40,
        ),
        TrainWorkload(
            name="train-pixel-vqbet",
            backbone="pixel",
            head="vqbet",
            episodes_per_task=48,
            steps=40,
            vq_pretrain_steps=300,
        ),
    )
}
