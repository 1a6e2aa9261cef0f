"""Command-line front end: dataset generation, training, evaluation, layer
ablation, gradient checking, and report formatting.

Every subcommand is bit-reproducible given identical flags and seed.  Flag
values take precedence over config-file values, which take precedence over the
GEOAWARE_SEED environment variable, which takes precedence over built-in
defaults.  Exit codes: 0 success, 1 usage or input problem, 2 numeric abort
(non-finite loss or gradient, or a failed gradient check), 3 checkpoint
missing or config mismatch, 4 report schema mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

from geoaware.bench import REPORT_SCHEMA_VERSION, ablate_layers, emit_report, evaluate, render_csv, render_json, render_markdown
from geoaware.config import RunConfig, read_config
from geoaware.deskworld.dataset import generate_dataset, load_dataset, save_dataset
from geoaware.deskworld.world import make_tasks
from geoaware.errors import ConfigError, ConfigMismatchError, GeoAwareError, NumericAbort, SchemaError
from geoaware.gradsuite import SUITE_TOLERANCE, run_gradcheck_suite, suite_passed
from geoaware.persist import from_dict, write_atomic
from geoaware.policy import Policy
from geoaware.training import bc_train, load_checkpoint, save_checkpoint

VIEW_CATEGORIES = {
    "seen": "seen",
    "novel-small": "novel_small",
    "novel-medium": "novel_medium",
    "novel-large": "novel_large",
}


def _load_run_config(path):
    """(RunConfig, raw dict) for ``path``; defaults and {} when no file given."""
    if path is None:
        return RunConfig(), {}
    raw = read_config(path)
    return from_dict(RunConfig, raw, "top-level").validate(), raw


def _env_seed():
    raw = os.environ.get("GEOAWARE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"GEOAWARE_SEED must be an integer, got {raw!r}")


def _resolve_seed(flag_value, file_has_seed, file_value, fallback=0):
    """flag > config file > GEOAWARE_SEED > built-in default."""
    if flag_value is not None:
        return flag_value
    if file_has_seed:
        return file_value
    env = _env_seed()
    if env is not None:
        return env
    return fallback


def _parse_modes(text):
    """'all,even4,last4' -> [(mode, count), ...] for the layer ablation."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            out.append(("all", 0))
            continue
        match = re.fullmatch(r"(even|last)(\d+)", token)
        if match is None:
            raise ConfigError(f"unknown ablation mode {token!r} (expected all, evenN, or lastN)")
        out.append((match.group(1), int(match.group(2))))
    if not out:
        raise ConfigError("no ablation modes given")
    return out


def cmd_gen_data(args):
    run_cfg, raw = _load_run_config(args.config)
    seed = _resolve_seed(args.seed, "seed" in raw, run_cfg.seed)
    episodes_per_task = args.episodes_per_task if args.episodes_per_task is not None else 50
    tasks = make_tasks()
    dataset = generate_dataset(tasks, episodes_per_task, seed, sim=run_cfg.sim)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.episodes)} episodes to {args.out}")
    for task in tasks:
        n = sum(1 for ep in dataset.episodes if ep.task_id == task.task_id)
        print(f"expert success {task.task_id}: {n}/{episodes_per_task}")
    return 0


def cmd_train(args):
    run_cfg, raw = _load_run_config(args.config)
    train_raw = raw.get("train", {})
    overrides = {}
    if args.head is not None:
        overrides["head_kind"] = args.head
    if args.backbone is not None:
        overrides["backbone_kind"] = args.backbone
    if args.steps is not None:
        overrides["steps"] = args.steps
    overrides["seed"] = _resolve_seed(args.seed, "seed" in train_raw, run_cfg.train.seed)
    train_cfg = replace(run_cfg.train, **overrides).validate()
    dataset = load_dataset(args.data)
    policy_cfg = replace(run_cfg.policy, head_kind=train_cfg.head_kind, backbone_kind=train_cfg.backbone_kind)
    policy = Policy(policy_cfg, tuple(dataset.instructions()), seed=train_cfg.seed, geo=run_cfg.geo)
    policy, losses = bc_train(dataset, train_cfg, policy=policy)
    save_checkpoint(policy, args.out, step=train_cfg.steps, train=train_cfg, sim=run_cfg.sim)
    print(f"trained {train_cfg.steps} steps; final loss {losses[-1]:.6f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args):
    try:
        bundle = load_checkpoint(args.ckpt)
    except FileNotFoundError:
        print(f"error: checkpoint {args.ckpt} does not exist", file=sys.stderr)
        return 3
    seed = _resolve_seed(args.seed, False, None)
    category = VIEW_CATEGORIES[args.views]
    model = f"{bundle.policy.cfg.backbone_kind}-{bundle.policy.cfg.head_kind}"
    report = evaluate(
        bundle.policy, category, rollouts_per_task=args.rollouts, seeds=(seed,),
        sim=bundle.sim, model=model,
    )
    if args.report is not None:
        emit_report(report, "json", args.report)
    print(f"{model} {args.views}: average success rate {report.average_rate:.1f}%")
    return 0


def cmd_ablate(args):
    run_cfg, raw = _load_run_config(args.config)
    train_raw = raw.get("train", {})
    seed = _resolve_seed(None, "seed" in train_raw, run_cfg.train.seed)
    train_cfg = replace(run_cfg.train, seed=seed, backbone_kind="geo").validate()
    modes = _parse_modes(args.modes)
    dataset = load_dataset(args.data)
    os.makedirs(args.out_dir, exist_ok=True)
    report = ablate_layers(
        dataset, train_cfg, policy_cfg=run_cfg.policy, sim=run_cfg.sim, geo=run_cfg.geo,
        modes=modes, checkpoint_dir=args.out_dir,
    )
    emit_report(report, "json", os.path.join(args.out_dir, "ablation.json"))
    emit_report(report, "markdown", os.path.join(args.out_dir, "ablation.md"))
    for row in report.rows:
        print(
            f"{row['label']}: seen {row['seen']['average_rate']:.1f}%  "
            f"novel-medium {row['novel_medium']['average_rate']:.1f}%"
        )
    print(f"wrote {len(report.rows)} checkpoints and reports to {args.out_dir}")
    return 0


def cmd_gradcheck(args):
    start = time.time()
    records = run_gradcheck_suite()
    for record in records:
        verdict = "PASS" if record["passed"] else "FAIL"
        print(f"{verdict}  {record['component']:32s} max rel err {record['max_rel_err']:.3e}")
    elapsed = time.time() - start
    if suite_passed(records):
        print(f"gradient suite PASS ({len(records)} components <= {SUITE_TOLERANCE:g}, {elapsed:.1f}s)")
        return 0
    failing = [r["component"] for r in records if not r["passed"]]
    print(f"gradient suite FAIL: {', '.join(failing)}", file=sys.stderr)
    return 2


def cmd_report(args):
    try:
        with open(args.infile, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"report file {args.infile} is not valid JSON: {exc}")
    if not isinstance(payload, dict) or payload.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise SchemaError(
            f"report schema_version {payload.get('schema_version') if isinstance(payload, dict) else payload!r} "
            f"is not supported (expected {REPORT_SCHEMA_VERSION})"
        )
    if not any(key in payload for key in ("tasks", "ablation", "comparison")):
        raise SchemaError("report JSON has none of the known sections (tasks, ablation, comparison)")
    renderers = {"md": render_markdown, "csv": render_csv, "json": render_json}
    try:
        text = renderers[args.format](payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"report JSON lacks or mistypes a field the schema requires: {exc!r}")
    if args.out is not None:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoaware",
        description="Viewpoint-generalization benchmark: geometric-feature policy vs pixel baseline.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate expert demonstrations")
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--out", required=True, help="output dataset path (JSON lines)")
    p.add_argument("--episodes-per-task", type=int, help="demos per task (default: 50)")
    p.add_argument("--seed", type=int, help="generation seed (default: 0; config file or GEOAWARE_SEED override)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="behavior-clone a policy on a dataset")
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--head", choices=("mlp", "vqbet"), help="action head (default: mlp)")
    p.add_argument("--backbone", choices=("geo", "pixel"), help="vision backbone (default: geo)")
    p.add_argument("--steps", type=int, help="optimization steps (default: 5000)")
    p.add_argument("--seed", type=int, help="training seed (default: 0; config file or GEOAWARE_SEED override)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="closed-loop success rates for a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint path from train")
    p.add_argument("--views", choices=sorted(VIEW_CATEGORIES), default="seen", help="camera category (default: seen)")
    p.add_argument("--rollouts", type=int, default=10, help="rollouts per task (default: 10)")
    p.add_argument("--seed", type=int, help="evaluation seed (default: 0; GEOAWARE_SEED overrides)")
    p.add_argument("--report", help="also write the eval report JSON here (default: none)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="layer-selection ablation (one training per mode)")
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--modes", default="all,even4,last4", help="comma list of all|evenN|lastN (default: all,even4,last4)")
    p.add_argument("--out-dir", required=True, help="directory for checkpoints and reports")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive and composite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render a report JSON as markdown or csv")
    p.add_argument("--in", dest="infile", required=True, help="report JSON path")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md", help="output format (default: md)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GeoAwareError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
