"""Closed-loop evaluation: per-category rollouts, backbone comparison,
layer-selection ablation, and report serialization.

Success rates follow the protocol of 10 rollouts per task; novel-view
categories draw a fresh camera pair per rollout, and the pair never matches
the training cameras.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from geoaware.backbones import GeoStubConfig
from geoaware.deskworld.camera import sample_viewpoints, seen_cameras
from geoaware.deskworld.world import Action, SimConfig, make_tasks, reset, step, success
from geoaware.errors import CameraError, ConfigMismatchError, ConfigError, NumericError
from geoaware.persist import write_atomic
from geoaware.policy import Policy, PolicyConfig
from geoaware.training import TrainConfig, bc_train, save_checkpoint

REPORT_SCHEMA_VERSION = 1
CSV_FIELDS = ("model", "category", "task", "successes", "rollouts", "rate")


@dataclass
class RolloutResult:
    task_id: str
    seed: int
    succeeded: bool
    steps: int
    failure: str | None = None


@dataclass
class EvalReport:
    model: str
    category: str
    tasks: list                    # [{id, successes, rollouts, rate}]
    average_rate: float
    mean_episode_length: float
    seeds: list

    def to_dict(self):
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "model": self.model,
            "category": self.category,
            "tasks": self.tasks,
            "average_rate": self.average_rate,
            "mean_episode_length": self.mean_episode_length,
            "seeds": self.seeds,
        }


def rollout(policy, task, cameras, seed, sim: SimConfig | None = None, max_steps=None) -> RolloutResult:
    """Run the policy closed-loop from a seeded reset until success or the
    step cap.  A non-finite action marks the rollout failed instead of
    raising, also when the forward pass itself goes non-finite; the gripper
    command is thresholded by sign inside the world."""
    sim = sim or SimConfig()
    cap = max_steps or sim.max_episode_steps
    scene = reset(task, seed=seed, sim=sim)
    for t in range(cap):
        try:
            vec = np.asarray(policy.action(scene, task.instruction, cameras), dtype=float)
        except NumericError:
            vec = None
        if vec is None or vec.shape != (7,) or not np.all(np.isfinite(vec)):
            return RolloutResult(task.task_id, seed, False, t, failure="non-finite or malformed action")
        scene = step(scene, Action(d_pos=vec[:3], d_rot=vec[3:6], gripper_cmd=float(vec[6])), sim)
        if success(scene, task):
            return RolloutResult(task.task_id, seed, True, t + 1)
    return RolloutResult(task.task_id, seed, False, cap)


def _rollout_cameras(category, seed, sim):
    if category == "seen":
        return seen_cameras(sim)
    return sample_viewpoints(category, 2, seed=seed, sim=sim)


def evaluate(policy, category, rollouts_per_task=10, seeds=(0,), sim: SimConfig | None = None, tasks=None, model="policy") -> EvalReport:
    """Success rates per task and overall for one viewpoint category.

    Each (seed, task, repeat) triple gets its own reset and, for novel
    categories, its own camera pair; rates are percents over all rollouts.
    At least one task, one rollout per task and one seed are required.
    """
    sim = sim or SimConfig()
    tasks = list(tasks) if tasks is not None else make_tasks()
    seeds = list(seeds)
    if not tasks or rollouts_per_task < 1 or not seeds:
        raise ConfigError(
            "evaluation needs at least one task, rollouts_per_task >= 1 and at least one seed, "
            f"got {len(tasks)} tasks, {rollouts_per_task} and {seeds}"
        )
    training_cams = seen_cameras(sim)
    rows = []
    lengths = []
    for ti, task in enumerate(tasks):
        wins = 0
        total = 0
        for seed in seeds:
            for r in range(rollouts_per_task):
                rollout_seed = 1_000_000 * seed + 997 * ti + r
                cams = _rollout_cameras(category, rollout_seed, sim)
                if category != "seen":
                    for cam in cams:
                        if any(cam.same_pose(tc) for tc in training_cams):
                            raise CameraError("novel-view rollout drew a training camera")
                result = rollout(policy, task, cams, seed=rollout_seed, sim=sim)
                wins += result.succeeded
                total += 1
                lengths.append(result.steps)
        rows.append(
            {"id": task.task_id, "successes": wins, "rollouts": total, "rate": 100.0 * wins / total}
        )
    avg = float(np.mean([row["rate"] for row in rows]))
    return EvalReport(
        model=model,
        category=category,
        tasks=rows,
        average_rate=avg,
        mean_episode_length=float(np.mean(lengths)),
        seeds=seeds,
    )


def compare(geo_policy, pixel_policy, categories, rollouts_per_task=10, seeds=(0,), sim: SimConfig | None = None, geo_sim: SimConfig | None = None, pixel_sim: SimConfig | None = None):
    """Side-by-side success rates and the geo/pixel ratio per category.

    When both policies carry simulator snapshots they must agree; ratios
    against a zero pixel rate are reported as infinity (or 1 when both zero).
    """
    if geo_sim is not None and pixel_sim is not None and geo_sim != pixel_sim:
        raise ConfigMismatchError("checkpoints were trained under different simulator settings")
    sim = sim or geo_sim or SimConfig()
    rows = []
    for category in categories:
        geo_rep = evaluate(geo_policy, category, rollouts_per_task, seeds, sim, model="geo")
        pix_rep = evaluate(pixel_policy, category, rollouts_per_task, seeds, sim, model="pixel")
        if pix_rep.average_rate > 0:
            ratio = geo_rep.average_rate / pix_rep.average_rate
        else:
            ratio = 1.0 if geo_rep.average_rate == 0 else float("inf")
        rows.append(
            {
                "category": category,
                "geo": geo_rep.to_dict(),
                "pixel": pix_rep.to_dict(),
                "geo_rate": geo_rep.average_rate,
                "pixel_rate": pix_rep.average_rate,
                "ratio": ratio,
            }
        )
    return {"schema_version": REPORT_SCHEMA_VERSION, "comparison": rows}


ABLATION_MODES = (("all", 0), ("even", 4), ("last", 4))


@dataclass
class AblationReport:
    rows: list                     # one per layer-selection mode

    def to_dict(self):
        return {"schema_version": REPORT_SCHEMA_VERSION, "ablation": self.rows}


def ablate_layers(dataset, train_cfg: TrainConfig, policy_cfg=None, rollouts_per_task=10, eval_seeds=(0,), sim: SimConfig | None = None, geo: GeoStubConfig | None = None, modes=None, checkpoint_dir=None) -> AblationReport:
    """Train one geo policy per layer-selection mode (shared seeds, shared
    data, shared ``geo`` stub) and evaluate each on seen and medium novel views.

    ``modes`` overrides the default (mode, count) triple; ``checkpoint_dir``
    (when given) receives one ``ablate-<mode>.ckpt`` per trained policy."""
    if train_cfg.backbone_kind != "geo":
        raise ConfigError("layer ablation only applies to the geo backbone")
    sim = sim or SimConfig()
    base = policy_cfg if policy_cfg is not None else PolicyConfig()
    rows = []
    for mode, count in (tuple(modes) if modes is not None else ABLATION_MODES):
        pcfg = replace(base, select_mode=mode, select_count=count or base.select_count)
        policy = Policy(pcfg, tuple(dataset.instructions()), seed=train_cfg.seed, geo=geo)
        policy, _ = bc_train(dataset, train_cfg, policy=policy)
        if checkpoint_dir is not None:
            save_checkpoint(policy, os.path.join(checkpoint_dir, f"ablate-{mode}.ckpt"), step=train_cfg.steps, train=train_cfg, sim=sim)
        selected = len(policy.backbone.layers)
        label = f"{mode}({selected})" if mode != "all" else "all"
        row = {
            "mode": mode,
            "selected": selected,
            "label": label,
            "default": mode == "even",
            "seen": evaluate(
                policy, "seen", rollouts_per_task, eval_seeds, sim, tasks=dataset.tasks, model=label
            ).to_dict(),
            "novel_medium": evaluate(
                policy, "novel_medium", rollouts_per_task, eval_seeds, sim, tasks=dataset.tasks, model=label
            ).to_dict(),
        }
        rows.append(row)
    return AblationReport(rows=rows)


# -- serialization -----------------------------------------------------------


def _fmt_rate(value):
    if value == float("inf"):
        return "inf"
    return f"{value:.1f}"


def _eval_markdown(rep: dict):
    lines = [
        f"### {rep['model']}, {rep['category']} views",
        "",
        "| Task | Successes | Rollouts | Rate (%) |",
        "| --- | ---: | ---: | ---: |",
    ]
    for row in rep["tasks"]:
        lines.append(f"| {row['id']} | {row['successes']} | {row['rollouts']} | {_fmt_rate(row['rate'])} |")
    lines.append(f"| **Average** | | | **{_fmt_rate(rep['average_rate'])}** |")
    return "\n".join(lines) + "\n"


def _ablation_markdown(rep: dict):
    lines = [
        "| Layer selection | Seen (%) | Novel medium (%) |",
        "| --- | ---: | ---: |",
    ]
    for row in rep["ablation"]:
        label = row["label"] + (" (default)" if row["default"] else "")
        lines.append(
            f"| {label} | {_fmt_rate(row['seen']['average_rate'])} | {_fmt_rate(row['novel_medium']['average_rate'])} |"
        )
    return "\n".join(lines) + "\n"


def _comparison_markdown(rep: dict):
    lines = [
        "| Category | Geo (%) | Pixel (%) | Ratio |",
        "| --- | ---: | ---: | ---: |",
    ]
    for row in rep["comparison"]:
        ratio = "inf" if row["ratio"] == float("inf") else f"{row['ratio']:.2f}"
        lines.append(
            f"| {row['category']} | {_fmt_rate(row['geo_rate'])} | {_fmt_rate(row['pixel_rate'])} | {ratio} |"
        )
    return "\n".join(lines) + "\n"


def render_markdown(report):
    rep = report.to_dict() if hasattr(report, "to_dict") else report
    if "tasks" in rep:
        return _eval_markdown(rep)
    if "ablation" in rep:
        return _ablation_markdown(rep)
    if "comparison" in rep:
        return _comparison_markdown(rep)
    raise ConfigError("unrecognized report structure")


def _csv_rows(rep: dict):
    if "tasks" in rep:
        for row in rep["tasks"]:
            yield (rep["model"], rep["category"], row["id"], row["successes"], row["rollouts"], _fmt_rate(row["rate"]))
        yield (rep["model"], rep["category"], "average", "", "", _fmt_rate(rep["average_rate"]))
    elif "ablation" in rep:
        for row in rep["ablation"]:
            for cat in ("seen", "novel_medium"):
                sub = row[cat]
                yield from _csv_rows(sub)
    elif "comparison" in rep:
        for row in rep["comparison"]:
            yield from _csv_rows(row["geo"])
            yield from _csv_rows(row["pixel"])
    else:
        raise ConfigError("unrecognized report structure")


def render_csv(report):
    rep = report.to_dict() if hasattr(report, "to_dict") else report
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in _csv_rows(rep):
        writer.writerow(row)
    return out.getvalue()


def render_json(report):
    rep = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(rep, indent=2, sort_keys=True) + "\n"


def emit_report(report, fmt, path):
    """Write a report as json, markdown, or csv; json re-emits byte-stably."""
    renderers = {"json": render_json, "markdown": render_markdown, "csv": render_csv}
    if fmt not in renderers:
        raise ConfigError(f"unknown report format {fmt!r} (expected json | markdown | csv)")
    text = renderers[fmt](report)
    write_atomic(path, text)
    return text
