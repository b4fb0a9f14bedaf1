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

This module is the package's only file boundary.  Every file (inputs, the
config, an earlier run's ``manifest.json``, database-cache entries) is read
as bytes by :func:`_load`, every text is decoded by :func:`_decode`'s one
rule, and every output and cache entry is written by :func:`_atomic_write`,
the one temp-then-rename writer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from ._schema import load_json
from .blending import (
    parse_attention_stack,
    run_blend_schedule_with_masks,
    synthetic_attention_stack,
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
    same_skeleton_or_raise,
)
from .errors import ParseError, StageError
from .metrics import gt_con, parse_metric_cases, prompt_hit, vid_con
from .pose_model import PoseVideo, parse_pose_video, serialize_pose_video
from .procrustes import (
    KeypointSet,
    SimilarityTransform2D,
    apply_transform,
    residual,
    solve_similarity,
)
from .retrieval import (
    PoseDatabase,
    build_index,
    decode_index,
    encode_index,
    parse_db_manifest,
    parse_embedding,
    query,
    sha256_hex,
)


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


# --- the file boundary ------------------------------------------------------------


def _load(path: str) -> bytes:
    """The bytes of the file at ``path``; StageError when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise StageError(f"cannot read {path}: {exc}") from exc


def _decode(path: str, data: bytes) -> str:
    """``data``, read from ``path``, as UTF-8 text with universal newlines,
    as ``open(path, encoding="utf-8")`` would read it; StageError when it is
    not UTF-8."""
    try:  # an in-memory wrapper holds nothing to close
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except ValueError as exc:
        raise StageError(f"cannot read {path}: {exc}") from exc


def _read(path: str) -> str:
    """The text of the file at ``path``, by :func:`_load` and :func:`_decode`."""
    return _decode(path, _load(path))


def _pose_video(path: str, role: str) -> PoseVideo:
    """The ``role`` pose video at ``path``: a ParseError names the file, and
    a video with no frames is refused."""
    try:
        video = parse_pose_video(_read(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not len(video.frame_index):
        raise StageError(f"{role} video has no frames")
    return video


def _beside(owner: str, path: str) -> str:
    """``path``, named inside the file ``owner``, resolved against that
    file's directory; an absolute ``path`` stays as it is."""
    return os.path.join(os.path.dirname(os.path.abspath(owner)), path)


def _atomic_write(directory: str, name: str, data) -> str:
    """Write ``data`` (bytes, or a str written as UTF-8) to a temp file in
    ``directory``, made if missing, then rename it to ``name``, so no reader
    sees a half-written file; return ``name``.  StageError, and no temp file
    left, on failure."""
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, os.path.join(directory, name))
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or unencodable text
        with contextlib.suppress(OSError, ValueError):
            os.remove(tmp)
        raise StageError(f"cannot write {os.path.join(directory, name)}: {exc}") from exc
    return name


def _write(out_dir: str, name: str, text: str) -> str:
    """Write the output ``name`` in ``out_dir`` by :func:`_atomic_write`."""
    return _atomic_write(out_dir, name, text)


def _cache_dir() -> str | None:
    """Where compiled databases are kept: ``$XDG_CACHE_HOME/posedit/db``, or
    ``~/.cache/posedit/db`` when that is unset or not absolute; None when
    there is no absolute home either."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "posedit", "db") if os.path.isabs(base) else None


def save_index(db: PoseDatabase, directory: str, key: str) -> None:
    """Store ``db`` under ``key`` in ``directory`` as ``<key>.npy`` and then
    ``<key>.json``, on a best-effort basis: a failed write is ignored."""
    npy, doc = encode_index(db, key)
    with contextlib.suppress(StageError):
        _atomic_write(directory, f"{key}.npy", npy)
        _atomic_write(directory, f"{key}.json", doc)


def load_index(directory: str, key: str) -> PoseDatabase | None:
    """The database :func:`save_index` stored under ``key`` in ``directory``,
    or None when a file is missing, unreadable or fails a check of
    :func:`~posedit.retrieval.decode_index`."""
    try:
        npy, doc = (_load(os.path.join(directory, key + ext)) for ext in (".npy", ".json"))
    except StageError:
        return None
    return decode_index(key, npy, doc)


def _database(path: str) -> PoseDatabase:
    """The database the manifest at ``path`` holds.

    A manifest whose bytes were compiled before is loaded from the index
    cache under their sha256; any other is decoded by :func:`_decode`,
    parsed and indexed, and a database that builds is stored for the next
    run.  Either way the database, and so every output, is the same.
    """
    data = _load(path)
    cache, key = _cache_dir(), sha256_hex(data)
    db = load_index(cache, key) if cache else None
    if db is None:
        db = build_index(parse_db_manifest(_decode(path, data)))
        if cache:
            save_index(db, cache, key)
    return db


def _dump(name: str, doc) -> str:
    """``doc`` as the JSON text of the output file ``name``: one line, sorted
    keys, no spaces, then a newline.  A value JSON cannot hold (NaN, an
    infinity) is refused rather than written."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise StageError(f"cannot write {name}: {exc}") from exc


def _named_by_manifest(manifest: str) -> set[str]:
    """The plain file names (no directory part, not ``.``, ``..`` or
    ``manifest.json``) that an earlier run's ``manifest`` lists; none when it
    is missing or unreadable."""
    if not os.path.isfile(manifest):  # never open a FIFO or a directory
        return set()
    try:
        doc = load_json(_read(manifest))
    except (StageError, ParseError):
        return set()
    names = doc.get("files") if isinstance(doc, dict) else None
    if not isinstance(names, list):
        return set()
    return {
        name
        for name in names
        if isinstance(name, str)
        and name not in ("", ".", "..", "manifest.json")
        and os.path.basename(name) == name
    }


def _publish(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write one run's ``{name: text}`` outputs, then ``manifest.json`` naming
    them; return the sorted names.  An older manifest goes first, together
    with the files it names that this run does not write: the files a
    ``manifest.json`` names always come from one complete run, and a rerun
    leaves none of the previous run's outputs behind."""
    manifest = os.path.join(out_dir, "manifest.json")
    stale = sorted(_named_by_manifest(manifest) - set(files))
    try:
        if os.path.lexists(manifest):
            os.remove(manifest)
        for name in stale:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                os.remove(path)
    except OSError as exc:
        raise StageError(f"cannot write {exc.filename}: {exc}") from exc
    names = sorted(_write(out_dir, name, text) for name, text in files.items())
    _write(out_dir, "manifest.json", _dump("manifest.json", {"files": names}))
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


def _ranking(db: PoseDatabase, q, top_k: int) -> list[dict]:
    """The first ``top_k`` entries (all, when there are fewer) that
    :func:`query` ranks against ``q``, best first, as ``rank``, ``entry_id``,
    ``label``, ``score`` and ``pose_video_path`` (verbatim) rows."""
    row = {entry_id: i for i, entry_id in enumerate(db.ids)}
    return [
        {
            "rank": rank,
            "entry_id": entry_id,
            "label": db.labels[row[entry_id]],
            "score": score,
            "pose_video_path": db.paths[row[entry_id]],
        }
        for rank, (entry_id, score) in enumerate(query(db, q, min(top_k, len(db))), start=1)
    ]


def _step_docs(records) -> list[dict]:
    """A blend schedule's ``(step, mask, s_edit)`` records as documents."""
    return [
        {
            "step": step,
            "mask": {"h": mask.h, "w": mask.w, "bits": mask.bits.ravel().tolist()},
            "s_edit": {"h": s_edit.h, "w": s_edit.w, "values": s_edit.values.ravel().tolist()},
        }
        for step, mask, s_edit in records
    ]


# --- commands ---------------------------------------------------------------------


def run_align(config: PipelineConfig, fixed_path: str, moving_path: str) -> dict:
    """Solve the first-frame similarity transform and apply it to a whole clip.

    Both clips must carry exactly one instance in their first frame and list
    the same joints in the same order.  Writes ``transform.json`` and the
    transformed clip ``aligned.json``.
    """
    out_dir = _needed(config.out_dir, "--out-dir")
    fixed = _pose_video(fixed_path, "fixed")
    moving = _pose_video(moving_path, "moving")
    for name, video in (("fixed", fixed), ("moving", moving)):
        if video.offsets[1] != 1:
            raise StageError(
                f"{name} video must have exactly 1 instance in its first frame, "
                f"got {video.offsets[1]}"
            )
    same_skeleton_or_raise(fixed, moving, ("fixed", "moving"))
    fixed_set = KeypointSet(points=fixed.xy[0], mask=fixed.visible[0])
    moving_set = KeypointSet(points=moving.xy[0], mask=moving.visible[0])
    tr = solve_similarity(fixed_set, moving_set)
    aligned = apply_transform(tr, moving)

    names = _publish(
        out_dir,
        {
            "transform.json": _dump(
                "transform.json",
                {
                    "transform": _transform_doc(tr),
                    "residual": residual(tr, fixed_set, moving_set),
                },
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
    db = _database(db_path)
    ranking = _ranking(db, parse_embedding(_read(q_path)), config.top_k)
    names = _publish(
        out_dir, {"retrieval.json": _dump("retrieval.json", {"ranking": ranking})}
    )
    return {"ranking": ranking, "outputs": names}


# how long the external embedder may run before it is killed
_EMBEDDER_TIMEOUT_S = 60


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
            encoding="utf-8",
            timeout=_EMBEDDER_TIMEOUT_S,
        )
    except OSError as exc:
        raise StageError(f"embedder command failed to start: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise StageError("embedder command timed out") from exc
    except UnicodeDecodeError as exc:
        raise StageError(f"embedder command output is not UTF-8: {exc}") from exc
    if proc.returncode != 0:
        # the last line a traceback or a message ends with, so the error stays one line
        last = next((line.strip() for line in reversed(proc.stderr.splitlines())
                     if line.strip()), "")
        raise StageError(f"embedder command exited with {proc.returncode}: {last}")
    return parse_embedding(proc.stdout)


def run_edit(config: PipelineConfig) -> dict:
    """The full editing pipeline: retrieve, assign, align, substitute.

    Writes one edited pose video per retrieved entry (``edited.json`` for
    top-1, ``edited_01.json`` ... for diverse results) plus ``report.json``.
    """
    out_dir = _needed(config.out_dir, "--out-dir")
    source = _pose_video(_needed(config.source, "--source"), "source")
    dset = parse_detections(_read(_needed(config.detections, "--detections")))
    first_index = int(source.frame_index[0])
    if dset.frame_index != first_index:
        raise StageError(
            f"detections are for frame_index {dset.frame_index}, but the source "
            f"starts at frame_index {first_index}"
        )
    answer = parse_answer(_read(_needed(config.answer, "--answer")))
    db_path = _needed(config.db, "--db")
    db = _database(db_path)
    q = _embed_answer(config, answer)

    working = resample_video(source, config.frame_count)
    assignment = assign_detections(dset, working, config.iou_threshold)

    ranking = _ranking(db, q, config.top_k)

    files = {}
    edits = {}  # real path -> (text, aligned, unaligned): entries may share a clip file
    for entry_doc in ranking:
        video_path = _beside(db_path, entry_doc.pop("pose_video_path"))
        key = os.path.realpath(video_path)
        if key not in edits:
            retrieved = _pose_video(video_path, "retrieved")
            aligned, unaligned = alignment_transforms(working, assignment, retrieved)
            edited = edit_pose_video(working, assignment, aligned)
            edits[key] = (serialize_pose_video(edited), aligned, unaligned)
        text, aligned, unaligned = edits[key]
        out_name = (
            "edited.json" if len(ranking) == 1 else f"edited_{entry_doc['rank']:02d}.json"
        )
        files[out_name] = text
        entry_doc["output"] = out_name
        entry_doc["transforms"] = {
            str(inst_id): _transform_doc(tr) for inst_id, (tr, _) in sorted(aligned.items())
        }
        if unaligned:
            entry_doc["unaligned"] = [
                {"instance_id": inst_id, "reason": reason}
                for inst_id, reason in sorted(unaligned.items())
            ]

    report = {
        "answer": {"subject": answer.subject, "action": answer.action},
        "frame_count": len(working.frame_index),
        "assignment": {
            "pairs": [
                {
                    "detection": d_idx,
                    "phrase": dset.phrases[d_idx],
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
        "retrieved": ranking,
    }
    if not assignment.pairs:
        report["note"] = "no individuals matched"
    files["report.json"] = _dump("report.json", report)
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
        "steps": _step_docs(records),
    }
    names = _publish(out_dir, {"blended.json": _dump("blended.json", doc)})
    return {"steps": len(records), "outputs": names}


def run_ddim_demo(config: PipelineConfig) -> dict:
    """Exercise the schedule, the exact inversion round trip, and blending.

    A seeded latent is inverted from step 0 up to T with a linear noise
    predictor, recording each step's noise vector, then denoised back while
    replaying those vectors, which makes the round trip exact up to rounding.
    Synthetic attention derived from the denoising trajectory is then blended
    step by step; each blended map lands in ``blend_log.json``.
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
    trajectory = sample_with_blend(z_top, lambda zv, t, tau: noise_log[t], sched)
    reconstructed = trajectory[-1]
    round_trip_error = float(np.max(np.abs(reconstructed.values - z0.values)))

    stack = synthetic_attention_stack(trajectory, max(config.tokens) + 1)
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
            "schedule.json": _dump("schedule.json", schedule),
            "round_trip.json": _dump("round_trip.json", round_trip),
            "blend_log.json": _dump("blend_log.json", {"steps": _step_docs(blended)}),
        },
    )
    return {"max_abs_error": round_trip_error, "outputs": names}


def run_metrics(config: PipelineConfig) -> dict:
    """Evaluate every manifest case; write machine- and human-readable reports."""
    out_dir = _needed(config.out_dir, "--out-dir")
    manifest_path = _needed(config.manifest, "--manifest")
    cases = parse_metric_cases(
        _read(manifest_path), lambda ref: _read(_beside(manifest_path, ref))
    )

    per_case = []
    hits = 0
    con_total = 0.0
    gt_total = 0.0
    gt_count = 0
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
            gt_total += g
            gt_count += 1
            row["gt_con"] = round(g, 6)
        per_case.append(row)

    aggregates = {
        "vid_acc": round(hits / len(cases), 6),
        "vid_con": round(con_total / len(cases), 6),
    }
    if gt_count:
        aggregates["gt_con"] = round(gt_total / gt_count, 6)

    report = {"cases": per_case, "aggregates": aggregates, "case_count": len(cases)}

    width = max(len("case_id"), max(len(c.case_id) for c in cases))
    lines = [
        f"{'case_id':<{width}}  {'prompt_hit':>10}  {'vid_con':>10}"
        + (f"  {'gt_con':>10}" if gt_count else "")
    ]
    for row in per_case:
        line = (
            f"{row['case_id']:<{width}}  "
            f"{('yes' if row['prompt_hit'] else 'no'):>10}  "
            f"{row['vid_con']:>10.6f}"
        )
        if gt_count:
            line += f"  {row['gt_con']:>10.6f}" if "gt_con" in row else f"  {'-':>10}"
        lines.append(line)
    lines.append("")
    lines.append(f"vid_acc  {aggregates['vid_acc']:.6f}")
    lines.append(f"vid_con  {aggregates['vid_con']:.6f}")
    if gt_count:
        lines.append(f"gt_con   {aggregates['gt_con']:.6f}")

    _publish(
        out_dir,
        {
            "report.json": _dump("report.json", report),
            "report.txt": "\n".join(lines) + "\n",
        },
    )
    return report
