"""Command-line front end: dataset generation, training, evaluation, layer
ablation, gradient checking, and report formatting.

``train`` and ``ablate`` share one training step, ``_train_and_save``: build
the policy, behaviour-clone it, checkpoint it with the dataset's sim.  The
layer-selection ablation is ``cmd_ablate``'s loop over the parsed modes; each
pass trains through that step and scores the policy with ``bench.evaluate``
on every ``bench.ABLATION_CATEGORIES`` entry.

Every subcommand is bit-reproducible given identical flags and seed.  Flag
values take precedence over config-file values, which take precedence over
built-in defaults.  Exit codes: 0 success, 1 usage or input problem,
2 numeric abort (non-finite loss or gradient, or a failed gradient check),
3 checkpoint missing or config mismatch, 4 report schema mismatch.  A path
that cannot be read or written (missing, a directory, no permission) is an
input problem, exit 1, apart from ``eval``'s missing checkpoint.

Concurrent runs: numpy's BLAS starts one thread per core by default, and
several processes that each do so contend for the cores; four trainings at
once on a 2-core host ran about 20x slower than one.  When running more than
one process at a time, start each with ``OPENBLAS_NUM_THREADS=1`` (and
``OMP_NUM_THREADS=1`` for other BLAS builds).  The program itself sets no
thread count.  Training (``train``, ``ablate``) does set glibc's malloc
thresholds for its process, so that freed buffers stay in the heap between
steps (see ``training.bc_train``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

from geoaware.backbones import select_layer_indices
from geoaware.bench import ABLATION_CATEGORIES, REPORT_RENDERERS, REPORT_SCHEMA_VERSION, emit_report, evaluate
from geoaware.config import load_config
from geoaware.deskworld.dataset import generate_dataset, load_dataset, save_dataset
from geoaware.deskworld.world import make_tasks
from geoaware.errors import ConfigError, ConfigMismatchError, GeoAwareError, NumericAbort, SchemaError
from geoaware.gradsuite import SUITE_TOLERANCE, run_gradcheck_suite, suite_passed
from geoaware.persist import write_atomic
from geoaware.policy import Policy
from geoaware.training import bc_train, load_checkpoint, save_checkpoint

VIEW_CATEGORIES = {
    "seen": "seen",
    "novel-small": "novel_small",
    "novel-medium": "novel_medium",
    "novel-large": "novel_large",
}


def _resolve_seed(flag_value, config_value):
    """flag > config file > built-in default: ``config_value`` is the file's
    seed, or the config's default when the file sets none."""
    return config_value if flag_value is None else flag_value


def _parse_modes(text):
    """'all,even4,last4' -> [(mode, count), ...] for the layer ablation;
    ``all`` keeps the config's count (None).  A count below 1, or a mode given
    twice (its checkpoint ``ablate-<mode>.ckpt`` would be overwritten), raises
    ``ConfigError``."""
    modes = {}
    for token in filter(None, (token.strip() for token in text.split(","))):
        match = re.fullmatch(r"all|(even|last)(\d+)", token)
        if match is None:
            raise ConfigError(f"unknown ablation mode {token!r} (expected all, evenN, or lastN)")
        mode, count = ("all", None) if token == "all" else (match.group(1), int(match.group(2)))
        if count == 0:
            raise ConfigError(f"ablation mode {token!r} selects no layers; the count must be at least 1")
        if mode in modes:
            raise ConfigError(f"ablation mode {mode!r} is given twice; each mode writes one ablate-{mode}.ckpt")
        modes[mode] = count
    if not modes:
        raise ConfigError("no ablation modes given")
    return list(modes.items())


def _check_recorded_sim(dataset, run_cfg, raw):
    """Raise ``ConfigMismatchError`` when the config file has a ``sim``
    section unlike the ``SimConfig`` the demos were recorded under."""
    if "sim" in raw and run_cfg.sim != dataset.sim:
        raise ConfigMismatchError(f"config sim {run_cfg.sim} differs from the dataset's {dataset.sim}")


def _train_and_save(dataset, policy_cfg, train_cfg, geo, path):
    """(policy, losses): a ``Policy`` behaviour-cloned on ``dataset`` and
    checkpointed at ``path`` with ``dataset.sim``, the sim its demos were
    recorded under."""
    policy = Policy(policy_cfg, tuple(dataset.instructions()), seed=train_cfg.seed, geo=geo)
    policy, losses = bc_train(dataset, train_cfg, policy=policy)
    save_checkpoint(policy, path, step=train_cfg.steps, train=train_cfg, sim=dataset.sim)
    return policy, losses


def cmd_gen_data(args):
    run_cfg, _ = load_config(args.config)
    seed = _resolve_seed(args.seed, run_cfg.seed)
    episodes_per_task = args.episodes_per_task if args.episodes_per_task is not None else 50
    dataset = generate_dataset(make_tasks(), episodes_per_task, seed, sim=run_cfg.sim)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.episodes)} episodes to {args.out}")
    return 0


def cmd_train(args):
    run_cfg, raw = load_config(args.config)
    kinds = {}                  # --head/--backbone set the policy and train sections alike
    if args.head is not None:
        kinds["head_kind"] = args.head
    if args.backbone is not None:
        kinds["backbone_kind"] = args.backbone
    overrides = dict(kinds, seed=_resolve_seed(args.seed, run_cfg.train.seed))
    if args.steps is not None:
        overrides["steps"] = args.steps
    train_cfg = replace(run_cfg.train, **overrides).validate()
    dataset = load_dataset(args.data)
    _check_recorded_sim(dataset, run_cfg, raw)
    _, losses = _train_and_save(dataset, replace(run_cfg.policy, **kinds), train_cfg, run_cfg.geo, args.out)
    print(f"trained {train_cfg.steps} steps; final loss {losses[-1]:.6f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args):
    try:
        bundle = load_checkpoint(args.ckpt)
    except FileNotFoundError:
        print(f"error: checkpoint {args.ckpt} does not exist", file=sys.stderr)
        return 3
    category = VIEW_CATEGORIES[args.views]
    model = f"{bundle.policy.cfg.backbone_kind}-{bundle.policy.cfg.head_kind}"
    report = evaluate(
        bundle.policy, category, rollouts_per_task=args.rollouts, seeds=(args.seed,),
        sim=bundle.sim, model=model,
    )
    if args.report is not None:
        emit_report(report.to_dict(), "json", args.report)
    print(f"{model} {args.views}: average success rate {report.average_rate:.1f}%")
    return 0


def cmd_ablate(args):
    run_cfg, raw = load_config(args.config)
    if run_cfg.train.backbone_kind != "geo":
        raise ConfigError("layer ablation only applies to the geo backbone")
    modes = _parse_modes(args.modes)
    dataset = load_dataset(args.data)
    _check_recorded_sim(dataset, run_cfg, raw)
    os.makedirs(args.out_dir, exist_ok=True)
    base = run_cfg.policy
    # the default row is the selection `geoaware train --config` would train
    default_layers = select_layer_indices(run_cfg.geo.num_layers, base.select_mode, base.select_count)
    rows = []
    for mode, count in modes:
        policy_cfg = replace(base, select_mode=mode, select_count=base.select_count if count is None else count)
        path = os.path.join(args.out_dir, f"ablate-{mode}.ckpt")
        policy, _ = _train_and_save(dataset, policy_cfg, run_cfg.train, run_cfg.geo, path)
        layers = policy.backbone.layers
        label = f"{mode}({len(layers)})" if mode != "all" else "all"
        row = {"mode": mode, "selected": len(layers), "label": label, "default": layers == default_layers}
        for category in ABLATION_CATEGORIES:
            row[category] = evaluate(policy, category, sim=dataset.sim, tasks=dataset.tasks, model=label).to_dict()
        rows.append(row)
        rates = "  ".join(f"{cat.replace('_', '-')} {row[cat]['average_rate']:.1f}%" for cat in ABLATION_CATEGORIES)
        print(f"{label}: {rates}")
    report = {"schema_version": REPORT_SCHEMA_VERSION, "ablation": rows}
    emit_report(report, "json", os.path.join(args.out_dir, "ablation.json"))
    emit_report(report, "md", os.path.join(args.out_dir, "ablation.md"))
    print(f"wrote {len(rows)} checkpoints and reports to {args.out_dir}")
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
    version = payload.get("schema_version") if isinstance(payload, dict) else payload
    if not isinstance(payload, dict) or type(version) is not int or version != REPORT_SCHEMA_VERSION:
        raise SchemaError(f"report schema_version {version!r} is not supported (expected {REPORT_SCHEMA_VERSION})")
    if not any(key in payload for key in ("tasks", "ablation")):
        raise SchemaError("report JSON has none of the known sections (tasks, ablation)")
    try:
        text = REPORT_RENDERERS[args.format](payload)
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
        epilog=(
            "Running several processes at once: start each with OPENBLAS_NUM_THREADS=1 (and OMP_NUM_THREADS=1), "
            "or their BLAS threads contend for the cores; unpinned, four concurrent trainings on 2 cores ran about "
            "20x slower."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate expert demonstrations")
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--out", required=True, help="output dataset path (JSON lines)")
    p.add_argument("--episodes-per-task", type=int, help="demos per task (default: 50)")
    p.add_argument("--seed", type=int, help="generation seed (default: 0; overrides the config file)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="behavior-clone a policy on a dataset")
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--head", choices=("mlp", "vqbet"), help="action head (default: mlp)")
    p.add_argument("--backbone", choices=("geo", "pixel"), help="vision backbone (default: geo)")
    p.add_argument("--steps", type=int, help="optimization steps (default: 5000)")
    p.add_argument("--seed", type=int, help="training seed (default: 0; overrides the config file)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="closed-loop success rates for a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint path from train")
    p.add_argument("--views", choices=sorted(VIEW_CATEGORIES), default="seen", help="camera category (default: seen)")
    p.add_argument("--rollouts", type=int, default=10, help="rollouts per task (default: 10)")
    p.add_argument("--seed", type=int, default=0, help="evaluation seed (default: 0)")
    p.add_argument("--report", help="also write the eval report JSON here (default: none)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "ablate",
        help="layer-selection ablation: one `train` run per mode, scored on seen and novel-medium views",
        description=(
            "For each mode, trains and checkpoints a geo policy as `geoaware train` does (ablate-<mode>.ckpt) and "
            "scores it as `geoaware eval` does, on seen and novel-medium views. Writes ablation.json and ablation.md; "
            "the row with the config's own layer selection is marked (default)."
        ),
    )
    p.add_argument("--config", help="run config JSON (default: built-in defaults)")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--modes", default="all,even4,last4", help="comma list of all|evenN|lastN (default: all,even4,last4)")
    p.add_argument("--out-dir", required=True, help="directory for checkpoints and reports")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive and composite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render a report JSON as markdown or csv")
    p.add_argument("--in", dest="infile", required=True, help="report JSON path")
    p.add_argument("--format", choices=tuple(REPORT_RENDERERS), default="md", help="output format (default: md)")
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
    except (GeoAwareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
