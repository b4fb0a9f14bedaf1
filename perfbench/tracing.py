"""Outside-in tracing of one CLI job: wrap each layer's entry points, call
``posedit.cli.main`` in-process, write self times and work counts as JSON.

Spans wrap functions at the names ``posedit.pipeline`` and ``posedit.editor``
bind (plus the ``run_*`` stage functions the CLI calls through the pipeline
module), so the program itself is unchanged.  Cosine evaluations are counted
at the ``cosine`` that ``posedit.retrieval`` and ``posedit.metrics`` call, so
those counts are work done, not input sizes.  A span's self time is its
duration minus the time of the spans it encloses.  A wrap target that no
longer exists is an error: the traced run fails instead of losing a span.

    python3 perfbench/tracing.py <spec.json>

``spec.json`` holds ``argv`` (the CLI arguments), ``clip_paths`` (pose-video
files that count as retrieved clips) and ``result`` (where to write).
"""

import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STAGES = ("run_align", "run_retrieve", "run_edit", "run_blend_demo",
          "run_ddim_demo", "run_metrics")


class Tracer:
    """Accumulates self time per span name and named work counts."""

    def __init__(self):
        self.self_ms = {}
        self.counts = {}
        self._child = []  # time covered by child spans, one slot per open span

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, counter=None):
        """``fn`` wrapped in a span; ``counter(tracer, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._child.pop()
                self.self_ms[name] = self.self_ms.get(name, 0.0) + 1e3 * (elapsed - inner)
                if self._child:
                    self._child[-1] += elapsed
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


def _keypoints(video):
    joints = len(video.skeleton)
    return sum(len(frame.instances) for frame in video.frames) * joints


def _stack_cells(stack):
    return sum(
        (r.inversion_cross.tokens + r.denoise_cross.tokens + 2) * r.denoise_self.h
        * r.denoise_self.w
        for r in stack.steps
    )


def install(tracer, clip_texts):
    """Wrap every layer entry point; return the (module, name, original) list."""
    import posedit.editor as editor
    import posedit.metrics as metrics
    import posedit.pipeline as pipeline
    import posedit.retrieval as retrieval

    def parsed(t, args, video):
        t.count("pose_model.keypoints_parsed", _keypoints(video))
        path = clip_texts.get(args[0])
        if path is not None:
            t.count("pose_model.clip_parses")
            t.counts.setdefault("_clips", set()).add(path)

    def serialized(t, args, text):
        t.count("pose_model.keypoints_serialized", _keypoints(args[0]))

    def applied(t, args, video):
        t.count("procrustes.keypoints_transformed", _keypoints(args[1]))

    def edited(t, args, video):
        t.count("editor.instances_replaced", len(args[1].pairs))

    def manifest(t, args, entries):
        t.count("retrieval.values_parsed", sum(e.embedding.dim for e in entries))

    def queried(t, args, ranked):
        t.count("retrieval.returned", len(ranked))

    def read(t, args, text):
        t.count("pipeline.bytes_read", os.path.getsize(args[0]))

    def written(t, args, name):
        t.count("pipeline.bytes_written", os.path.getsize(os.path.join(args[0], name)))

    calls = lambda key: lambda t, args, result: t.count(key)  # noqa: E731
    plan = [(pipeline, name, "pipeline", None) for name in STAGES] + [
        (pipeline, "_read", None, read),
        (pipeline, "_write", None, written),
        (pipeline, "parse_pose_video", "pose_model.parse", parsed),
        (pipeline, "serialize_pose_video", "pose_model.serialize", serialized),
        (pipeline, "solve_similarity", "procrustes.solve", calls("procrustes.solve_calls")),
        (editor, "solve_similarity", "procrustes.solve", calls("procrustes.solve_calls")),
        (pipeline, "apply_transform", "procrustes.apply", applied),
        (editor, "apply_transform", "procrustes.apply", applied),
        (pipeline, "residual", "procrustes.residual", None),
        (pipeline, "parse_detections", "editor.parse_detections", None),
        (pipeline, "assign_detections", "editor.assign", None),
        (pipeline, "resample_video", "editor.resample", None),
        (editor, "resample_video", "editor.resample", None),
        (pipeline, "edit_pose_video", "editor.edit", edited),
        (pipeline, "alignment_transforms", "editor.edit", None),
        (pipeline, "out_of_bounds_detections", "editor.edit", None),
        (pipeline, "parse_db_manifest", "retrieval.parse_manifest", manifest),
        (pipeline, "parse_embedding", "retrieval.parse_embedding", None),
        (pipeline, "build_index", "retrieval.build_index", None),
        (pipeline, "query", "retrieval.query", queried),
        (retrieval, "cosine", None, calls("retrieval.scored")),
        (pipeline, "parse_attention_stack", "blending.parse_stack",
         lambda t, args, stack: t.count("blending.cells_parsed", _stack_cells(stack))),
        (pipeline, "run_blend_schedule_with_masks", "blending.schedule", None),
        (pipeline, "make_schedule", "ddim.schedule", None),
        (pipeline, "ddim_invert_step", "ddim.invert", calls("ddim.steps")),
        (pipeline, "sample_with_blend", "ddim.sample", None),
        (pipeline, "parse_metric_cases", "metrics.parse_cases", None),
        (pipeline, "prompt_hit", "metrics.score", None),
        (pipeline, "vid_con", "metrics.score", None),
        (pipeline, "gt_con", "metrics.score", None),
        (metrics, "cosine", None, calls("metrics.cosine_evals")),
    ]
    missing = [f"{m.__name__}.{name}" for m, name, _, _ in plan if not hasattr(m, name)]
    if missing:
        raise RuntimeError(f"wrap targets not found: {', '.join(missing)}")

    originals = []
    for module, name, span, counter in plan:
        fn = getattr(module, name)
        originals.append((module, name, fn))
        if span is None:  # a counter only: its time stays with the caller
            wrapped = _counting(tracer, fn, counter)
        else:
            wrapped = tracer.span(span, fn, counter)
        setattr(module, name, wrapped)
    return originals


def _counting(tracer, fn, counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        counter(tracer, args, result)
        return result

    return counted


def run(spec):
    """Trace one CLI invocation; return (exit code, summary dict)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import posedit.cli as cli

    clip_texts = {}
    for path in spec.get("clip_paths", []):
        with open(path, "r", encoding="utf-8") as fh:
            clip_texts[fh.read()] = path
    tracer = Tracer()
    install(tracer, clip_texts)
    code = tracer.span("cli", cli.main)(spec["argv"])
    counts = dict(tracer.counts)
    counts["pose_model.distinct_clips"] = len(counts.pop("_clips", ()))
    return code, {"exit": code, "self_ms": tracer.self_ms, "counts": counts}


def main():
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    code, summary = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
