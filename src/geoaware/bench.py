"""Closed-loop evaluation and report rendering.

A rollout is ``dataset.run_episode`` with the policy as the actor, so it
returns the same ``Episode`` a demo is, with its visited scenes, executed
actions and ``Outcome``.  Success rates follow the protocol of 10 rollouts
per task; novel-view categories draw a fresh camera pair per rollout, and the
pair never matches the training cameras.

The layer-selection ablation loop lives in ``cli.cmd_ablate``: it trains each
mode through the helper ``train`` uses and scores it here with ``evaluate``
once per ``ABLATION_CATEGORIES`` entry.  The renderers read the report dicts
that ``geoaware report`` reads: ``EvalReport.to_dict()`` or an ablation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from geoaware.deskworld.camera import VIEWS, sample_viewpoints, seen_cameras
from geoaware.deskworld.dataset import Episode, Outcome, run_episode
from geoaware.deskworld.world import SimConfig, make_tasks
from geoaware.errors import CameraError, ConfigError, SchemaError
from geoaware.persist import write_atomic

REPORT_SCHEMA_VERSION = 1
CSV_FIELDS = ("model", "category", "task", "successes", "rollouts", "rate")
ABLATION_CATEGORIES = ("seen", "novel_medium")    # the view categories each ablation row is scored on


@dataclass
class EvalReport:
    model: str
    category: str
    tasks: list                    # [{id, successes, rollouts, rate}]
    average_rate: float
    mean_episode_length: float
    seeds: list

    def to_dict(self):
        return {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}


def rollout(policy, task, cameras, seed, sim: SimConfig | None = None) -> Episode:
    """The policy's closed-loop ``Episode`` under ``cameras``
    (``dataset.run_episode``): a malformed or non-finite action, or a forward
    pass that itself goes non-finite, ends it as ``Outcome.BAD_ACTION``
    instead of raising; the gripper command is thresholded by sign inside the
    world."""
    return run_episode(task, seed, lambda scene: policy.action(scene, task.instruction, cameras), sim or SimConfig())


def evaluate(policy, category, rollouts_per_task=10, seeds=(0,), sim: SimConfig | None = None, tasks=None, model="policy") -> EvalReport:
    """Success rates per task and overall for one viewpoint category.

    Each (seed, task, repeat) triple gets its own reset and, for novel
    categories, its own camera pair; rates are percents over all rollouts.
    At least one task, one rollout per task and one seed are required.
    """
    sim = sim or SimConfig()
    tasks = list(tasks) if tasks is not None else make_tasks()
    seeds = list(seeds)
    if not tasks or rollouts_per_task < 1 or not seeds or min(seeds) < 0:
        raise ConfigError(
            "evaluation needs at least one task, rollouts_per_task >= 1 and at least one seed, none negative, "
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
                cams = sample_viewpoints(category, VIEWS, seed=rollout_seed, sim=sim)
                if category != "seen":
                    for cam in cams:
                        if any(cam.same_pose(tc) for tc in training_cams):
                            raise CameraError("novel-view rollout drew a training camera")
                result = rollout(policy, task, cams, seed=rollout_seed, sim=sim)
                wins += result.outcome is Outcome.SUCCESS
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


# -- serialization -----------------------------------------------------------


def _fmt_rate(value):
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
    titles = [cat.replace("_", " ").capitalize() + " (%)" for cat in ABLATION_CATEGORIES]
    lines = ["| " + " | ".join(["Layer selection", *titles]) + " |", "| --- |" + " ---: |" * len(titles)]
    for row in rep["ablation"]:
        label = row["label"] + (" (default)" if row["default"] else "")
        rates = [_fmt_rate(row[cat]["average_rate"]) for cat in ABLATION_CATEGORIES]
        lines.append("| " + " | ".join([label, *rates]) + " |")
    return "\n".join(lines) + "\n"


def render_markdown(rep: dict):
    if "tasks" in rep:
        return _eval_markdown(rep)
    if "ablation" in rep:
        return _ablation_markdown(rep)
    raise SchemaError("unrecognized report structure")


def _eval_csv_rows(rep: dict):
    for row in rep["tasks"]:
        yield (rep["model"], rep["category"], row["id"], row["successes"], row["rollouts"], _fmt_rate(row["rate"]))
    yield (rep["model"], rep["category"], "average", "", "", _fmt_rate(rep["average_rate"]))


def _csv_rows(rep: dict):
    if "tasks" in rep:
        yield from _eval_csv_rows(rep)
    elif "ablation" in rep:
        for row in rep["ablation"]:
            for cat in ABLATION_CATEGORIES:
                yield from _eval_csv_rows(row[cat])
    else:
        raise SchemaError("unrecognized report structure")


def render_csv(rep: dict):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in _csv_rows(rep):
        writer.writerow(row)
    return out.getvalue()


def render_json(rep: dict):
    return json.dumps(rep, indent=2, sort_keys=True) + "\n"


REPORT_RENDERERS = {"json": render_json, "md": render_markdown, "csv": render_csv}


def emit_report(rep: dict, fmt, path):
    """Write a report dict in a ``REPORT_RENDERERS`` format; json re-emits byte-stably."""
    if fmt not in REPORT_RENDERERS:
        raise ConfigError(f"unknown report format {fmt!r} (expected {' | '.join(REPORT_RENDERERS)})")
    text = REPORT_RENDERERS[fmt](rep)
    write_atomic(path, text)
    return text
