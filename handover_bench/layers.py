"""Outside-in span tracing of the simulator's layers.

Wrappers are installed on the module attribute each caller looks the
function up through (``sim.py``, ``refinement.py``, ``selection.py`` and
``trace.py`` import names directly), so no program file changes. Spans
stay in memory as ``[name, start, end, parent, run_id, note]`` and are
written out once the traced pass is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _size_in_out(args, kwargs, result):
    return [len(args[0]), len(result)]


def _sample_note(args, kwargs, result):
    requested = args[1] if len(args) > 1 else kwargs.get("n", 50)
    return [int(requested), len(result)]


def _is_none(args, kwargs, result):
    return result is None


def _select_note(args, kwargs, result):
    return [len(args[0]), result is None]


# (module, attribute looked up by the caller, span name, note on the call)
# geometry is called from every layer and is left inside their self time;
# batch and cli only call into the other layers and are not timed.
# sample_grasps scores its trial grasps through the evaluator module's own
# ``evaluate``, which is left unwrapped: those calls stay in the sampler's
# self time, and evaluator.evaluate counts only refinement's MH calls.
ENTRY_POINTS = (
    ("handover_sim.sim", "run", "sim.run", None),
    ("handover_sim.scenario", "scenario_from_dict", "scenario.parse", None),
    ("handover_sim.sim", "synthesize_cloud", "scene.synthesize", lambda a, k, r: len(r)),
    ("handover_sim.sim", "crop_around_palm", "scene.crop", None),
    ("handover_sim.sim", "apply_label_noise", "scene.noise", None),
    ("handover_sim.refinement", "evaluate", "evaluator.evaluate", None),
    ("handover_sim.sim", "sample_grasps", "evaluator.sample", _sample_note),
    ("handover_sim.refinement", "sample_grasps", "evaluator.sample", _sample_note),
    ("handover_sim.sim", "maintain", "refinement.maintain", None),
    ("handover_sim.refinement", "mh_step", "refinement.mh", None),
    ("handover_sim.sim", "prune_hand_collisions", "refinement.prune", _size_in_out),
    ("handover_sim.refinement", "prune_hand_collisions", "refinement.prune", _size_in_out),
    ("handover_sim.sim", "grasp_collides_hand", "refinement.recheck", None),
    ("handover_sim.sim", "expand_flips", "selection.flip", None),
    ("handover_sim.sim", "select_target", "selection.select", _select_note),
    ("handover_sim.sim", "segment_collision_free", "motion.segment", None),
    ("handover_sim.selection", "segment_collision_free", "motion.segment", None),
    ("handover_sim.sim", "rrt_connect", "motion.rrt", _is_none),
    ("handover_sim.sim", "servo_step", "motion.servo", None),
    ("handover_sim.sim", "decide", "planner.decide", None),
    ("handover_sim.sim", "at_standoff", "planner.predicate", None),
    ("handover_sim.sim", "hand_above_table", "planner.predicate", None),
    ("handover_sim.sim", "execute_take", "planner.take", lambda a, k, r: bool(r)),
    ("handover_sim.trace", "write_trace", "trace.write", None),
    ("handover_sim.trace", "read_trace", "trace.read", None),
    ("handover_sim.trace", "verify_records", "trace.verify", None),
    ("handover_sim.trace", "trace_digest", "trace.digest", None),
)


class Tracer:
    """Span recorder; ``install`` wraps every entry point until ``restore``."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, note in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover (s)."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, oc_runs=frozenset()) -> dict:
    """Per-layer counts, self times (ms) and ratios from one traced pass.

    ``oc_runs`` holds the run ids of object-center runs, whose share of
    loop, scene and trace time is reported on its own.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    layer_ms: dict[str, float] = defaultdict(float)
    oc_layer_ms: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    direct_samples = 0
    oc_maintain = 0
    for span, s in zip(spans, own):
        name, _, _, parent, run_id, note = span
        calls[name] += 1
        self_ms[name] += s * 1e3
        layer_ms[name.split(".")[0]] += s * 1e3
        if run_id in oc_runs:
            oc_layer_ms[name.split(".")[0]] += s * 1e3
            oc_maintain += name == "refinement.maintain"
        if note is not None:
            notes[name].append(note)
        if name == "evaluator.sample" and parent >= 0 and spans[parent][0] == "sim.run":
            direct_samples += 1

    def ratio(num, den):
        return num / den if den else 0.0

    sample_notes = notes["evaluator.sample"]
    prune_notes = notes["refinement.prune"]
    select_notes = notes["selection.select"]
    take_notes = notes["planner.take"]
    refine_calls = calls["refinement.maintain"] + direct_samples
    host_ms = sum(layer_ms.values())
    oc_host_ms = sum(oc_layer_ms.values())
    grasp_ms = layer_ms["evaluator"] + layer_ms["refinement"] + layer_ms["selection"]
    return {
        "scenario.parse_ms": self_ms["scenario.parse"],
        "scene.calls": calls["scene.synthesize"],
        "scene.self_ms": layer_ms["scene"],
        "scene.points_out": sum(notes["scene.synthesize"]),
        "evaluator.evaluate_calls": calls["evaluator.evaluate"],
        "evaluator.evaluate_self_ms": self_ms["evaluator.evaluate"],
        "evaluator.sample_calls": calls["evaluator.sample"],
        "evaluator.sample_self_ms": self_ms["evaluator.sample"],
        "evaluator.sample_yield": ratio(sum(n[1] for n in sample_notes), sum(n[0] for n in sample_notes)),
        "refinement.maintain_calls": calls["refinement.maintain"],
        "refinement.mh_self_ms": self_ms["refinement.mh"],
        "refinement.resample_rate": ratio(calls["evaluator.sample"], refine_calls),
        "refinement.prune_calls": calls["refinement.prune"],
        "refinement.prune_self_ms": self_ms["refinement.prune"],
        "refinement.prune_grasps_in": sum(n[0] for n in prune_notes),
        "refinement.prune_survival": ratio(sum(n[1] for n in prune_notes), sum(n[0] for n in prune_notes)),
        "refinement.recheck_calls": calls["refinement.recheck"],
        "selection.select_calls": calls["selection.select"],
        "selection.select_self_ms": self_ms["selection.select"],
        "selection.flip_self_ms": self_ms["selection.flip"],
        "selection.candidates_in": sum(n[0] for n in select_notes),
        "selection.none_rate": ratio(sum(n[1] for n in select_notes), len(select_notes)),
        "motion.segment_calls": calls["motion.segment"],
        "motion.segment_self_ms": self_ms["motion.segment"],
        "motion.rrt_calls": calls["motion.rrt"],
        "motion.rrt_self_ms": self_ms["motion.rrt"],
        "motion.rrt_fail_rate": ratio(sum(notes["motion.rrt"]), calls["motion.rrt"]),
        "motion.servo_calls": calls["motion.servo"],
        "motion.servo_self_ms": self_ms["motion.servo"],
        "planner.decide_calls": calls["planner.decide"],
        "planner.take_calls": calls["planner.take"],
        "planner.take_success_rate": ratio(sum(take_notes), len(take_notes)),
        "trace.write_ms": self_ms["trace.write"],
        "trace.read_ms": self_ms["trace.read"],
        "trace.verify_self_ms": self_ms["trace.verify"],
        "trace.digest_ms": self_ms["trace.digest"],
        "sim.self_ms": self_ms["sim.run"],
        "share.rrt": ratio(self_ms["motion.rrt"], host_ms),
        "share.grasp_layers": ratio(grasp_ms, host_ms),
        "share.object_center_loop": ratio(
            oc_layer_ms["sim"] + oc_layer_ms["scene"] + oc_layer_ms["trace"], oc_host_ms
        ),
        "_host_ms": host_ms,
        "_object_center_maintain_calls": oc_maintain,
    }
