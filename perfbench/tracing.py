"""Spans and counters around the calls into geoaware's modules.

A ``Tracer`` replaces each traced function at the place its caller looks it
up (a module global or a class attribute) with a wrapper that times the call,
and puts every original back when it exits.  Spans nest on one thread, so a
span's self time is its duration minus the time of the spans it encloses.
Nothing inside the program changes: with no tracer active, the benchmark runs
the plain functions.

A ``PieceClock`` is the untraced run's light counterpart: it cuts each timed
section (a setup, the training call, the evaluation call) into short pieces
at the returns of inner functions (expert demos, training steps, rollouts)
and probes the host's speed between pieces, outside their times.

A lookup site that no longer exists (a later change removed or renamed the
function) is skipped; a span whose sites are all missing is reported as
absent rather than raising.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# span name -> the (module, attribute) sites its callers look it up at.  A
# function imported by name into another module needs that module's site too.
SPANS = {
    "backbones.pyramid_batch": (("geoaware.backbones", "GeoBackbone.pyramid_batch"),),
    "backbones.pixel_pooled": (("geoaware.backbones", "pixel_pooled"), ("geoaware.training", "pixel_pooled")),
    "camera.render_image": (("geoaware.policy", "render_image"),),
    "camera.sample_viewpoints": (("geoaware.bench", "sample_viewpoints"),),
    "world.reset": (("geoaware.bench", "reset"), ("geoaware.deskworld.dataset", "reset")),
    "world.step": (("geoaware.bench", "step"), ("geoaware.deskworld.dataset", "step")),
    "world.success": (("geoaware.bench", "success"), ("geoaware.deskworld.dataset", "success")),
    "world.expert_action": (("geoaware.deskworld.dataset", "expert_action"),),
    "dataset.generate_dataset": (("geoaware.deskworld.dataset", "generate_dataset"),),
    "dataset.save_dataset": (("geoaware.deskworld.dataset", "save_dataset"),),
    "dataset.load_dataset": (("geoaware.deskworld.dataset", "load_dataset"),),
    "policy.featurize": (("geoaware.policy", "Policy.featurize"),),
    "policy.forward": (("geoaware.policy", "Policy.forward"),),
    "policy.project_vision": (("geoaware.policy", "project_vision"),),
    "policy.encode_language": (("geoaware.policy", "encode_language"), ("geoaware.training", "encode_language")),
    "policy.encode_proprio": (("geoaware.policy", "encode_proprio"),),
    "policy.trunk_forward": (("geoaware.policy", "trunk_forward"),),
    "policy.mlp_head": (("geoaware.policy", "mlp_head"),),
    "policy.vqbet_train_loss": (("geoaware.training", "vqbet_train_loss"),),
    "policy.vqvae_loss": (("geoaware.training", "vqvae_loss"),),
    "policy.action": (("geoaware.policy", "Policy.action"),),
    "policy.vqbet_head": (("geoaware.policy", "vqbet_head"),),
    "numerics.backward": (("geoaware.numerics.tensor", "Tensor.backward"),),
    "numerics.adamw_step": (("geoaware.training", "adamw_step"),),
    "training.bc_train": (("geoaware.training", "bc_train"),),
    "training.make_batch": (("geoaware.training", "make_batch"),),
    "training.calibrate_input_stats": (("geoaware.training", "calibrate_input_stats"),),
    "training.save_checkpoint": (("geoaware.training", "save_checkpoint"),),
    "training.load_checkpoint": (("geoaware.training", "load_checkpoint"),),
    "bench.evaluate": (("geoaware.bench", "evaluate"),),
    "bench.rollout": (("geoaware.bench", "rollout"),),
}

COUNTERS = (
    "backbones.pyramid_batch.rows",
    "training.make_batch.rows",
    "training.featurize.rows",
    "bench.rollout.steps",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_pyramid_rows(counters, parent, args, kwargs, result):
    scenes, cameras = _arg(args, kwargs, 1, "scenes"), _arg(args, kwargs, 2, "cameras")
    counters["backbones.pyramid_batch.rows"] += len(scenes) * len(cameras)


def _count_batch_rows(counters, parent, args, kwargs, result):
    counters["training.make_batch.rows"] += len(_arg(args, kwargs, 1, "indices"))


def _count_featurized_rows(counters, parent, args, kwargs, result):
    # Only rows featurized for a training batch; rollouts featurize too.
    if parent == "training.make_batch":
        counters["training.featurize.rows"] += len(_arg(args, kwargs, 1, "scenes"))


def _count_rollout_steps(counters, parent, args, kwargs, result):
    counters["bench.rollout.steps"] += result.steps


COUNT_HOOKS = {
    "backbones.pyramid_batch": _count_pyramid_rows,
    "training.make_batch": _count_batch_rows,
    "policy.featurize": _count_featurized_rows,
    "bench.rollout": _count_rollout_steps,
}


def _resolve(module_name, path):
    """(owner, attribute, current value) for a lookup site, or None when the
    module or attribute does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class _Patches:
    """Base of the context managers that replace functions at their lookup
    sites; every original is put back on exit, or if entering fails."""

    def __init__(self):
        self._restore = []          # (owner, attribute, original)

    def __enter__(self):
        try:
            self._patch_all()
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def _swap(self, site_name, make_wrapper):
        """Replace the function at ``site_name`` (module, dotted attribute)
        with ``make_wrapper(function)``; False when the site does not exist."""
        site = _resolve(*site_name)
        if site is None:
            return False
        owner, attr, original = site
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def _unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class Tracer(_Patches):
    """Context manager that traces ``spans`` (default: ``SPANS``) while active.

    After exit, ``calls`` and ``self_s`` hold per-span call counts and self
    times, ``counters`` the row and step counts, and ``absent`` the spans none
    of whose sites exist.
    """

    def __init__(self, spans=None):
        super().__init__()
        self.spans = SPANS if spans is None else spans
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.absent = []
        self._stack = []            # [span name, seconds spent in child spans]

    def _patch_all(self):
        for name, sites in self.spans.items():
            found = [self._swap(site, functools.partial(self._wrap, name)) for site in sites]
            if not any(found):
                self.absent.append(name)

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self.counters, parent, args, kwargs, result)
            return result

        return traced


# timed section -> (outer site, inner sites).  Each call of the outer
# function is a section, cut into pieces at every return of an inner one; a
# section without an outer site is opened with ``PieceClock.section``.
PIECES = {
    "setup": (None, (
        ("geoaware.deskworld.dataset", "run_expert_episode"),
        ("geoaware.deskworld.dataset", "save_dataset"),
        ("geoaware.deskworld.dataset", "load_dataset"),
    )),
    "train": (("geoaware.training", "bc_train"), (("geoaware.training", "adamw_step"),)),
    "eval": (("geoaware.bench", "evaluate"), (("geoaware.bench", "rollout"),)),
}


class PieceClock(_Patches):
    """Context manager that cuts each timed section in ``PIECES`` into pieces
    and runs ``probe`` (a function returning its own seconds) between them.

    A piece runs from the end of one probe to the next return of an inner
    function (or the end of the section); a probe runs before the first
    piece and after each one, outside the timed pieces.  After exit,
    ``pieces[name]`` lists ``(seconds, probe seconds)`` over all sections,
    the probe seconds being the lesser of the two probes around the piece.
    Missing inner sites leave longer pieces; a name whose outer site is
    missing has no pieces.
    """

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.pieces = {name: [] for name in PIECES}
        self._open = {name: [] for name in PIECES}   # [probe seconds before, piece start]

    def _patch_all(self):
        for name, (outer, inners) in PIECES.items():
            if outer:
                self._swap(outer, functools.partial(self._wrap_outer, name))
            for inner in inners:
                self._swap(inner, functools.partial(self._wrap_inner, name))

    @contextlib.contextmanager
    def section(self, name):
        """Time the enclosed code as section ``name``; a section that raises
        records nothing after its last cut."""
        running = self._open[name]
        before = self.probe()
        running[:] = [before, time.perf_counter()]
        try:
            yield
            self._cut(name)
        finally:
            running.clear()

    def _cut(self, name):
        running = self._open[name]
        end = time.perf_counter()
        after = self.probe()
        self.pieces[name].append((end - running[1], min(running[0], after)))
        running[:] = [after, time.perf_counter()]

    def _wrap_outer(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.section(name):
                return fn(*args, **kwargs)

        return timed

    def _wrap_inner(self, name, fn):
        @functools.wraps(fn)
        def cut(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._open[name]:
                self._cut(name)
            return result

        return cut
