"""Stage orchestration behind the CLI commands.

Each ``run_*`` function reads its input files, executes the library stages,
and only then hands every output to :func:`_publish`, so a command that fails
writes nothing.  Publishing ends with ``manifest.json`` naming the files the
run produced, and reports refer to outputs by out-dir-relative name only, so
a rerun on the same inputs is byte-identical wherever the directory lives.

The three model-shaped dependencies (answer text, detections, embeddings)
arrive as files.  Optionally an external embedder command can be configured;
it receives the raw answer text on stdin and must print an embedding document,
which keeps real models pluggable without this package importing any.
"""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .blending import (
    AttentionStack,
    Mask,
    SpatialMap,
    SyntheticAttentionPredictor,
    parse_attention_stack,
    run_blend_schedule_with_masks,
)
from .config import PipelineConfig
from .ddim import (
    LatentState,
    ddim_invert_step,
    linear_predictor,
    make_schedule,
    sample_with_blend,
)
from .editor import (
    alignment_transforms,
    assign_detections,
    edit_pose_video,
    out_of_bounds_detections,
    parse_detections,
    resample_video,
)
from .errors import ParseError, StageError
from .metrics import gt_con, parse_metric_cases, prompt_hit, vid_con
from .pose_model import parse_pose_video, serialize_pose_video
from .procrustes import (
    KeypointSet,
    SimilarityTransform2D,
    apply_transform,
    residual,
    solve_similarity,
)
from .retrieval import build_index, parse_db_manifest, parse_embedding, query


@dataclass(frozen=True)
class AnswerRecord:
    """The structured "someone / do something" answer."""

    subject: str
    action: str
    raw: str


def parse_answer(text: str) -> AnswerRecord:
    """Parse a line-oriented answer file with ``subject:`` and ``action:`` lines.

    Blank lines are ignored; values are whitespace-trimmed and must be
    non-empty; a repeated or unknown key is an error.  The raw text is kept
    verbatim for the external-embedder hook.
    """
    found = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in ("subject", "action"):
            raise ParseError(
                f"line {lineno}: expected 'subject: <text>' or 'action: <text>'"
            )
        if key in found:
            raise ParseError(f"line {lineno}: duplicate field {key!r}")
        value = value.strip()
        if not value:
            raise ParseError(f"line {lineno}: field {key!r} is empty")
        found[key] = value
    for key in ("subject", "action"):
        if key not in found:
            raise ParseError(
                f"missing field {key!r}: supply the structured form "
                f"'subject: <who>' / 'action: <what>'"
            )
    return AnswerRecord(subject=found["subject"], action=found["action"], raw=text)


# --- small IO helpers -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise StageError(f"cannot read {path}: {exc}") from exc


def _write(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` to a temp file in ``out_dir``, then rename it to ``name``."""
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        with contextlib.suppress(OSError, ValueError):
            os.remove(tmp)
        raise StageError(f"cannot write {path}: {exc}") from exc
    return name


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _publish(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write one run's ``{name: text}`` outputs, then ``manifest.json`` naming
    them; return the sorted names.  An older manifest goes first, so the files
    a ``manifest.json`` names always come from one complete run."""
    manifest = os.path.join(out_dir, "manifest.json")
    try:
        if os.path.lexists(manifest):
            os.remove(manifest)
    except OSError as exc:
        raise StageError(f"cannot write {manifest}: {exc}") from exc
    names = sorted(_write(out_dir, name, text) for name, text in files.items())
    _write(out_dir, "manifest.json", _dump({"files": names}))
    return names


def _needed(value, flag: str):
    if value is None:
        raise StageError(f"missing required input: supply {flag}")
    return value


def _transform_doc(tr: SimilarityTransform2D) -> dict:
    return {
        "scale": tr.scale,
        "theta": tr.theta,
        "translation": [tr.translation[0], tr.translation[1]],
    }


def _map_doc(m: SpatialMap) -> dict:
    return {"h": m.h, "w": m.w, "values": [float(v) for v in m.values.ravel()]}


def _mask_doc(m: Mask) -> dict:
    return {"h": m.h, "w": m.w, "bits": [int(b) for b in m.bits.ravel()]}


def _steps_doc(records) -> list[dict]:
    """The per-step documents of a blend schedule's (step, mask, s_edit)."""
    return [
        {"step": step, "mask": _mask_doc(mask), "s_edit": _map_doc(s_edit)}
        for step, mask, s_edit in records
    ]


# --- commands ---------------------------------------------------------------------


def run_align(config: PipelineConfig, fixed_path: str, moving_path: str) -> dict:
    """Solve the first-frame similarity transform and apply it to a whole clip.

    Both clips must carry exactly one instance in their first frame.  Writes
    ``transform.json`` and the transformed clip ``aligned.json``.
    """
    out_dir = _needed(config.out_dir, "--out-dir")
    fixed = parse_pose_video(_read(fixed_path))
    moving = parse_pose_video(_read(moving_path))
    for name, video in (("fixed", fixed), ("moving", moving)):
        if not len(video.frame_index):
            raise StageError(f"{name} video has no frames")
        if video.offsets[1] != 1:
            raise StageError(
                f"{name} video must have exactly 1 instance in its first frame, "
                f"got {video.offsets[1]}"
            )
    fixed_set = KeypointSet(points=fixed.xy[0], mask=fixed.visible[0])
    moving_set = KeypointSet(points=moving.xy[0], mask=moving.visible[0])
    tr = solve_similarity(fixed_set, moving_set)
    aligned = apply_transform(tr, moving)

    names = _publish(
        out_dir,
        {
            "transform.json": _dump(
                {
                    "transform": _transform_doc(tr),
                    "residual": residual(tr, fixed_set, moving_set),
                }
            ),
            "aligned.json": serialize_pose_video(aligned),
        },
    )
    return {"transform": _transform_doc(tr), "outputs": names}


def run_retrieve(config: PipelineConfig) -> dict:
    """Rank database entries against the query embedding; write the ranking."""
    out_dir = _needed(config.out_dir, "--out-dir")
    db_path = _needed(config.db, "--db")
    q_path = _needed(config.query_embedding, "--query-embedding")
    entries = parse_db_manifest(_read(db_path))
    db = build_index(entries)
    q = parse_embedding(_read(q_path))
    ranked = query(db, q, min(config.top_k, len(db)))
    by_id = {e.entry_id: e for e in db.entries}
    ranking = [
        {
            "rank": i + 1,
            "entry_id": entry_id,
            "label": by_id[entry_id].label,
            "score": score,
            "pose_video_path": by_id[entry_id].pose_video_path,
        }
        for i, (entry_id, score) in enumerate(ranked)
    ]
    names = _publish(out_dir, {"retrieval.json": _dump({"ranking": ranking})})
    return {"ranking": ranking, "outputs": names}


def _embed_answer(config: PipelineConfig, answer: AnswerRecord):
    """Query embedding: from the configured file, or the external command."""
    if config.query_embedding is not None:
        return parse_embedding(_read(config.query_embedding))
    if config.embedder_command is None:
        raise StageError(
            "missing required input: supply --query-embedding or configure "
            "embedder_command"
        )
    try:
        proc = subprocess.run(
            shlex.split(config.embedder_command),
            input=answer.raw,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except OSError as exc:
        raise StageError(f"embedder command failed to start: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise StageError("embedder command timed out") from exc
    if proc.returncode != 0:
        raise StageError(
            f"embedder command exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    return parse_embedding(proc.stdout)


def run_edit(config: PipelineConfig) -> dict:
    """The full editing pipeline: retrieve, assign, align, substitute.

    Writes one edited pose video per retrieved entry (``edited.json`` for
    top-1, ``edited_01.json`` ... for diverse results) plus ``report.json``.
    """
    out_dir = _needed(config.out_dir, "--out-dir")
    source = parse_pose_video(_read(_needed(config.source, "--source")))
    dset = parse_detections(_read(_needed(config.detections, "--detections")))
    answer = parse_answer(_read(_needed(config.answer, "--answer")))
    db_path = _needed(config.db, "--db")
    entries = parse_db_manifest(_read(db_path))
    db = build_index(entries)
    q = _embed_answer(config, answer)

    if not len(source.frame_index):
        raise StageError("source video has no frames")
    first_index = int(source.frame_index[0])
    if dset.frame_index != first_index:
        raise StageError(
            f"detections are for frame_index {dset.frame_index}, but the source "
            f"starts at frame_index {first_index}"
        )
    working = resample_video(source, config.frame_count)
    assignment = assign_detections(dset, working, config.iou_threshold)

    ranked = query(db, q, min(config.top_k, len(db)))
    by_id = {e.entry_id: e for e in db.entries}
    db_dir = os.path.dirname(os.path.abspath(db_path))

    files = {}
    per_entry = []
    for i, (entry_id, score) in enumerate(ranked):
        entry = by_id[entry_id]
        video_path = entry.pose_video_path
        if not os.path.isabs(video_path):
            video_path = os.path.join(db_dir, video_path)
        retrieved = parse_pose_video(_read(video_path))
        transforms = alignment_transforms(working, assignment, retrieved)
        edited = edit_pose_video(working, assignment, retrieved, transforms)
        out_name = "edited.json" if len(ranked) == 1 else f"edited_{i + 1:02d}.json"
        files[out_name] = serialize_pose_video(edited)
        per_entry.append(
            {
                "rank": i + 1,
                "entry_id": entry_id,
                "label": entry.label,
                "score": score,
                "output": out_name,
                "transforms": {
                    str(inst_id): _transform_doc(tr)
                    for inst_id, tr in sorted(transforms.items())
                },
            }
        )

    report = {
        "answer": {"subject": answer.subject, "action": answer.action},
        "frame_count": len(working.frame_index),
        "assignment": {
            "pairs": [
                {
                    "detection": d_idx,
                    "phrase": dset.detections[d_idx].phrase,
                    "instance_id": inst_id,
                }
                for d_idx, inst_id in assignment.pairs
            ],
            "unmatched_detections": list(assignment.unmatched_detections),
            "unmatched_instances": list(assignment.unmatched_instances),
        },
        "out_of_bounds_detections": list(
            out_of_bounds_detections(dset, source.width, source.height)
        ),
        "retrieved": per_entry,
    }
    if not assignment.pairs:
        report["note"] = "no individuals matched"
    files["report.json"] = _dump(report)
    _publish(out_dir, files)
    return report


def run_blend_demo(config: PipelineConfig) -> dict:
    """Run the blend schedule over a stack file; write masks and blended maps."""
    out_dir = _needed(config.out_dir, "--out-dir")
    stack = parse_attention_stack(_read(_needed(config.stack, "--stack")))
    for t in config.tokens:
        if t >= stack.tokens:
            raise StageError(
                f"token index {t} out of range: stack has {stack.tokens} tokens"
            )
    records = run_blend_schedule_with_masks(
        stack, config.tokens, config.blend_ratio, config.union_initial_mask
    )
    doc = {
        "ratio": config.blend_ratio,
        "tokens": list(config.tokens),
        "union_initial_mask": config.union_initial_mask,
        "steps": _steps_doc(records),
    }
    names = _publish(out_dir, {"blended.json": _dump(doc)})
    return {"steps": len(records), "outputs": names}


def run_ddim_demo(config: PipelineConfig) -> dict:
    """Exercise the schedule, the exact inversion round trip, and the hook.

    A seeded latent is inverted from step 0 up to T with a linear noise
    predictor, recording each step's noise vector, then denoised back while
    replaying those vectors, which makes the round trip exact up to rounding.
    The denoising pass also feeds synthetic attention records to a blending
    hook; each blended map lands in ``blend_log.json``.
    """
    out_dir = _needed(config.out_dir, "--out-dir")
    try:
        sched = make_schedule(config.ddim_steps, config.beta_start, config.beta_end)
    except ValueError as exc:  # e.g. cumulative alphas underflowing to 0
        raise ParseError(f"invalid configuration: {exc}") from exc
    rng = np.random.default_rng(config.seed)
    z0 = LatentState(values=rng.standard_normal(config.latent_dim), t=0)
    matrix = 0.1 * rng.standard_normal((config.latent_dim, config.latent_dim))
    base = linear_predictor(matrix)

    z = z0
    noise_log = [None]  # index by step, 1..T
    for _ in range(sched.steps):
        eps = base(z.values, z.t + 1, None)
        noise_log.append(eps)
        z = ddim_invert_step(z, eps, sched)
    z_top = z

    # replaying the recorded noise makes the denoise pass the exact inverse
    replay = SyntheticAttentionPredictor(
        lambda zv, t, tau: noise_log[t], tokens=max(config.tokens) + 1
    )
    records = []
    trajectory = sample_with_blend(
        z_top, replay, None, sched, blend_hook=records.append
    )
    reconstructed = trajectory[-1]
    round_trip_error = float(np.max(np.abs(reconstructed.values - z0.values)))

    stack = AttentionStack(steps=tuple(records))
    blended = run_blend_schedule_with_masks(
        stack, config.tokens, config.blend_ratio, config.union_initial_mask
    )

    schedule = {
        "T": sched.steps,
        "beta_start": sched.beta_start,
        "beta_end": sched.beta_end,
        "alphas": list(sched.alphas),
    }
    round_trip = {
        "seed": config.seed,
        "latent_dim": config.latent_dim,
        "z0": [float(v) for v in z0.values],
        "z_top": [float(v) for v in z_top.values],
        "z0_reconstructed": [float(v) for v in reconstructed.values],
        "max_abs_error": round_trip_error,
    }
    names = _publish(
        out_dir,
        {
            "schedule.json": _dump(schedule),
            "round_trip.json": _dump(round_trip),
            "blend_log.json": _dump({"steps": _steps_doc(blended)}),
        },
    )
    return {"max_abs_error": round_trip_error, "outputs": names}


def run_metrics(config: PipelineConfig) -> dict:
    """Evaluate every manifest case; write machine- and human-readable reports."""
    out_dir = _needed(config.out_dir, "--out-dir")
    manifest_path = _needed(config.manifest, "--manifest")
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    # sidecar paths resolve against the manifest; absolute ones stay as given
    cases = parse_metric_cases(
        _read(manifest_path), lambda ref: _read(os.path.join(base_dir, ref))
    )

    per_case = []
    hits = 0
    con_total = 0.0
    gt_values = []
    for case in cases:
        hit = prompt_hit(case)
        hits += 1 if hit else 0
        con = vid_con(case.edited, case.source)
        con_total += con
        row = {
            "case_id": case.case_id,
            "prompt_hit": hit,
            "vid_con": round(con, 6),
        }
        if case.ground_truth is not None:
            g = gt_con(case.edited, case.ground_truth)
            gt_values.append(g)
            row["gt_con"] = round(g, 6)
        per_case.append(row)

    aggregates = {
        "vid_acc": round(hits / len(cases), 6),
        "vid_con": round(con_total / len(cases), 6),
    }
    if gt_values:
        aggregates["gt_con"] = round(sum(gt_values) / len(gt_values), 6)

    report = {"cases": per_case, "aggregates": aggregates, "case_count": len(cases)}

    has_gt = bool(gt_values)
    width = max(len("case_id"), max(len(c.case_id) for c in cases))
    lines = [
        f"{'case_id':<{width}}  {'prompt_hit':>10}  {'vid_con':>10}"
        + (f"  {'gt_con':>10}" if has_gt else "")
    ]
    for row in per_case:
        line = (
            f"{row['case_id']:<{width}}  "
            f"{('yes' if row['prompt_hit'] else 'no'):>10}  "
            f"{row['vid_con']:>10.6f}"
        )
        if has_gt:
            line += f"  {row['gt_con']:>10.6f}" if "gt_con" in row else f"  {'-':>10}"
        lines.append(line)
    lines.append("")
    lines.append(f"vid_acc  {aggregates['vid_acc']:.6f}")
    lines.append(f"vid_con  {aggregates['vid_con']:.6f}")
    if has_gt:
        lines.append(f"gt_con   {aggregates['gt_con']:.6f}")

    _publish(
        out_dir, {"report.json": _dump(report), "report.txt": "\n".join(lines) + "\n"}
    )
    return report
