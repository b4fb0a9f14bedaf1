"""Seeded inputs and job lists for the benchmark workloads.

Nothing here imports ``posedit``: inputs are built with the scalar helpers of
``scripts/make_fixtures.py`` (person templates, the canonical serializer), so
they never depend on the code under test.  The same seed gives byte-identical
files; the amount of work per cycle of jobs is fixed, only the content moves
with the seed, so runs on different seeds measure the same load.

A job is one ``posedit <command> --config <file>`` invocation; the timed loop
appends ``--out-dir``.  Each workload is a fixed cycle of jobs.
"""

import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import make_fixtures as mf  # noqa: E402

# --- sizes --------------------------------------------------------------------
# edit_crowd: long multi-person sources, one long retrieved clip, tiny DB.
CROWD_FRAMES = 240
CROWD_PEOPLE = (6, 8, 10, 8)  # one job each; two people per job go undetected
CROWD_UNMATCHED = 2
CROWD_CLIP_FRAMES = 200  # resampled onto the 240 source frames
CROWD_DB_DIM = 16

# edit_catalog: short one-person clips against one large shared DB.
CATALOG_JOBS = 4
CATALOG_ENTRIES = 2000
CATALOG_DIM = 512
CATALOG_CLIPS = 8  # every entry points at one of these few clip files
CATALOG_FRAMES = 24
CATALOG_CLIP_FRAMES = 16
CATALOG_TOP_K = 3

# sample_eval: one blend-demo, one metrics and one ddim-demo job per cycle.
STACK_STEPS = 50
STACK_GRID = 32
STACK_TOKENS = 8
BLEND_TOKENS = [0, 3, 5]
METRIC_CASES = 660
METRIC_VDIM = 64
METRIC_FDIM = 32
METRIC_FRAMES = 8
DDIM_STEPS = 2400
DDIM_LATENT = 64
DDIM_TOKENS = [0, 1]

WORKLOADS = ("edit_crowd", "edit_catalog", "sample_eval")

LABELS = (
    "dance", "sit down", "wave hands", "run", "jump",
    "squat", "clap", "bow", "kick", "stretch",
)


def _write(path, text):
    mf.write(path, text)
    return path


def _write_json(path, obj):
    return _write(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _moving_person(base, frame, drift, sway, hidden=()):
    """Template keypoints shifted along a drift with a small sway per frame."""
    dx = drift[0] * frame + sway * math.sin(2.0 * math.pi * frame / 48.0)
    dy = drift[1] * frame
    kps = mf.shift(base, mf.q6(dx), mf.q6(dy))
    for j in hidden:
        kps[j] = {**kps[j], "visible": False}
    return kps


def _action_clip(rng, n_frames, label):
    """One-person clip: a waving template with a few joints hidden mid-clip."""
    base = mf.person(rng, 128, 60, 45)
    frames = []
    for f in range(n_frames):
        kps = mf.wave_arm(base, f, 18.0)
        kps = mf.shift(kps, mf.q6(3.0 * math.sin(2.0 * math.pi * f / n_frames)), 0.0)
        if f % 7 == 3:
            kps[10] = {**kps[10], "visible": False}
        frames.append([{"instance_id": 0, "keypoints": kps}])
    return mf.make_video(256, 256, mf.frames_from(frames), label=label)


def _detection(kps, rng, phrase):
    box = mf.margin_box(mf.kp_box(kps), 6.0)
    return {"phrase": phrase, "box": box, "score": mf.q6(rng.uniform(0.6, 0.99))}


def _query_near(rng, embedding, noise):
    q = np.array(embedding) + rng.normal(0.0, noise, len(embedding))
    return {"dim": len(embedding), "values": [mf.q6(x) for x in q]}


def _edit_config(job_dir, frames, top_k):
    return _write_json(
        os.path.join(job_dir, "config.json"),
        {
            "source": "source.json",
            "detections": "detections.json",
            "answer": "answer.txt",
            "db": "../db/manifest.json",
            "query_embedding": "query.json",
            "frame_count": frames,
            "top_k": top_k,
        },
    )


def _job(name, command, config, kind, **info):
    return {"name": name, "argv": [command, "--config", config], "kind": kind, **info}


# --- edit_crowd -------------------------------------------------------------------


def _crowd_source(rng, people, frames):
    """People on a loose grid, each drifting and swaying; 1280x720 frame."""
    slots = [(160 + 240 * (i % 5), 90 + 330 * (i // 5)) for i in range(10)]
    order = rng.permutation(len(slots))[:people]
    persons = []
    for k, slot in enumerate(order):
        cx, cy = slots[slot]
        base = mf.person(rng, cx + rng.uniform(-20, 20), cy + rng.uniform(-10, 10),
                         rng.uniform(45, 60))
        drift = (rng.uniform(-0.15, 0.15), rng.uniform(-0.05, 0.05))
        hidden = (3,) if k % 3 == 1 else ()
        persons.append((base, drift, rng.uniform(2.0, 6.0), hidden))
    per_frame = []
    for f in range(frames):
        per_frame.append(
            [
                {"instance_id": i,
                 "keypoints": _moving_person(base, f, drift, sway, hidden if f else ())}
                for i, (base, drift, sway, hidden) in enumerate(persons)
            ]
        )
    return mf.make_video(1280, 720, mf.frames_from(per_frame))


def make_edit_crowd(out, seed, frames=CROWD_FRAMES, people=CROWD_PEOPLE,
                    clip_frames=CROWD_CLIP_FRAMES):
    rng = np.random.default_rng([seed, 1])
    db_dir = os.path.join(out, "db")
    clips = [
        ("crowd_action", "dance", clip_frames),
        ("short_sit", "sit down", 12),
        ("short_wave", "wave hands", 12),
    ]
    entries = []
    for entry_id, label, n in clips:
        rel = f"clips/{entry_id}.json"
        _write(os.path.join(db_dir, rel),
               mf.serialize_video(_action_clip(rng, n, label)))
        entries.append({"entry_id": entry_id, "label": label,
                        "embedding": mf.unit(rng, CROWD_DB_DIM), "pose_video_path": rel})
    _write_json(os.path.join(db_dir, "manifest.json"), entries)
    clip_paths = [os.path.join(db_dir, e["pose_video_path"]) for e in entries]

    jobs = []
    for j, n_people in enumerate(people):
        job_dir = os.path.join(out, f"crowd_{j:02d}")
        source = _crowd_source(rng, n_people, frames)
        _write(os.path.join(job_dir, "source.json"), mf.serialize_video(source))
        first = source["frames"][0]["instances"]
        matched = sorted(rng.permutation(n_people)[: n_people - CROWD_UNMATCHED])
        dets = [_detection(first[i]["keypoints"], rng, f"person {i}") for i in matched]
        _write_json(os.path.join(job_dir, "detections.json"),
                    {"frame_index": 0, "detections": dets})
        _write(os.path.join(job_dir, "answer.txt"), "subject: the crowd\naction: dance\n")
        _write_json(os.path.join(job_dir, "query.json"),
                    _query_near(rng, entries[0]["embedding"], 0.03))
        config = _edit_config(job_dir, frames, 1)
        jobs.append(_job(f"crowd_{j:02d}", "edit", config, "edit", clip_paths=clip_paths))
    sizes = {
        "jobs_per_cycle": len(jobs), "source_frames": frames,
        "people_per_job": list(people), "unmatched_per_job": CROWD_UNMATCHED,
        "db_entries": len(entries), "db_dim": CROWD_DB_DIM,
        "retrieved_clip_frames": clip_frames, "top_k": 1,
    }
    return jobs, sizes


# --- edit_catalog -----------------------------------------------------------------


def make_edit_catalog(out, seed, entries=CATALOG_ENTRIES, dim=CATALOG_DIM,
                      jobs_per_cycle=CATALOG_JOBS):
    rng = np.random.default_rng([seed, 2])
    db_dir = os.path.join(out, "db")
    clip_rels = []
    for c in range(CATALOG_CLIPS):
        rel = f"clips/clip_{c:02d}.json"
        video = _action_clip(rng, CATALOG_CLIP_FRAMES, LABELS[c % len(LABELS)])
        _write(os.path.join(db_dir, rel), mf.serialize_video(video))
        clip_rels.append(rel)
    # unit vectors straight from the normal draw, quantized like make_fixtures.unit
    raw = rng.standard_normal((entries, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    manifest = [
        {"entry_id": f"e{i:05d}", "label": LABELS[i % len(LABELS)],
         "embedding": [mf.q6(x) for x in raw[i]],
         "pose_video_path": clip_rels[int(rng.integers(len(clip_rels)))]}
        for i in range(entries)
    ]
    _write_json(os.path.join(db_dir, "manifest.json"), manifest)

    jobs = []
    for j in range(jobs_per_cycle):
        job_dir = os.path.join(out, f"catalog_{j:02d}")
        base = mf.person(rng, 128 + rng.uniform(-30, 30), 70, rng.uniform(40, 55))
        per_frame = [[{"instance_id": 0,
                       "keypoints": _moving_person(base, f, (0.4, 0.0), 2.0)}]
                     for f in range(CATALOG_FRAMES)]
        source = mf.make_video(320, 320, mf.frames_from(per_frame))
        _write(os.path.join(job_dir, "source.json"), mf.serialize_video(source))
        det = _detection(source["frames"][0]["instances"][0]["keypoints"], rng, "the dancer")
        _write_json(os.path.join(job_dir, "detections.json"),
                    {"frame_index": 0, "detections": [det]})
        target = manifest[int(rng.integers(entries))]
        _write(os.path.join(job_dir, "answer.txt"),
               f"subject: the dancer\naction: {target['label']}\n")
        _write_json(os.path.join(job_dir, "query.json"),
                    _query_near(rng, target["embedding"], 0.02))
        config = _edit_config(job_dir, CATALOG_FRAMES, CATALOG_TOP_K)
        jobs.append(_job(f"catalog_{j:02d}", "edit", config, "edit",
                         clip_paths=[os.path.join(db_dir, rel) for rel in clip_rels]))
    sizes = {
        "jobs_per_cycle": jobs_per_cycle, "db_entries": entries, "db_dim": dim,
        "clip_files": CATALOG_CLIPS, "clip_frames": CATALOG_CLIP_FRAMES,
        "source_frames": CATALOG_FRAMES, "people_per_job": 1, "top_k": CATALOG_TOP_K,
    }
    return jobs, sizes


# --- sample_eval ------------------------------------------------------------------


def _map_doc(rng, grid, scale):
    return {"h": grid, "w": grid,
            "values": [mf.q6(scale * v) for v in rng.uniform(0.0, 1.0, grid * grid)]}


def _emb(rng, dim):
    return {"dim": dim, "values": [mf.q6(x) for x in rng.standard_normal(dim)]}


def _record(rng, video_id, frames):
    return {"video_id": video_id, "video_embedding": _emb(rng, METRIC_VDIM),
            "frame_embeddings": [_emb(rng, METRIC_FDIM) for _ in range(frames)]}


def make_sample_eval(out, seed, steps=STACK_STEPS, grid=STACK_GRID,
                     tokens=STACK_TOKENS, cases=METRIC_CASES, ddim_steps=DDIM_STEPS):
    rng = np.random.default_rng([seed, 3])
    stack = {"steps": [
        {"step": step,
         "c_inv": [_map_doc(rng, grid, 1.0 + 0.1 * k) for k in range(tokens)],
         "s_inv": _map_doc(rng, grid, 2.0),
         "c_den": [_map_doc(rng, grid, 0.9 + 0.1 * k) for k in range(tokens)],
         "s_den": _map_doc(rng, grid, 3.0)}
        for step in range(steps, 0, -1)
    ]}
    blend_dir = os.path.join(out, "blend")
    _write_json(os.path.join(blend_dir, "stack.json"), stack)
    blend_cfg = _write_json(os.path.join(blend_dir, "config.json"),
                            {"stack": "stack.json", "tokens": BLEND_TOKENS,
                             "blend_ratio": mf.q6(rng.uniform(0.25, 0.5))})

    manifest = []
    for i in range(cases):
        case = {
            "case_id": f"case_{i:04d}",
            "edited": _record(rng, f"edited_{i:04d}", METRIC_FRAMES),
            "source": _record(rng, f"source_{i:04d}", METRIC_FRAMES),
            "target_prompt_embedding": _emb(rng, METRIC_VDIM),
            "source_prompt_embedding": _emb(rng, METRIC_VDIM),
        }
        if i % 3 != 2:
            case["ground_truth"] = _record(rng, f"gt_{i:04d}", METRIC_FRAMES)
        manifest.append(case)
    metrics_dir = os.path.join(out, "metrics")
    _write_json(os.path.join(metrics_dir, "manifest.json"), manifest)
    metrics_cfg = _write_json(os.path.join(metrics_dir, "config.json"),
                              {"manifest": "manifest.json"})

    ddim_cfg = _write_json(os.path.join(out, "ddim", "config.json"),
                           {"ddim_steps": ddim_steps, "latent_dim": DDIM_LATENT,
                            "beta_start": 0.00085, "beta_end": 0.012,
                            "tokens": DDIM_TOKENS, "seed": int(rng.integers(2**31))})
    jobs = [
        _job("blend", "blend-demo", blend_cfg, "blend"),
        _job("metrics", "metrics", metrics_cfg, "metrics"),
        _job("ddim", "ddim-demo", ddim_cfg, "ddim"),
    ]
    sizes = {
        "jobs_per_cycle": 3,
        "stack": {"steps": steps, "grid": [grid, grid], "tokens": tokens,
                  "blend_tokens": BLEND_TOKENS},
        "metrics": {"cases": cases, "video_dim": METRIC_VDIM, "frame_dim": METRIC_FDIM,
                    "frames": METRIC_FRAMES, "ground_truth_share": "2/3"},
        "ddim": {"steps": ddim_steps, "latent_dim": DDIM_LATENT, "tokens": DDIM_TOKENS},
    }
    return jobs, sizes


MAKERS = {
    "edit_crowd": make_edit_crowd,
    "edit_catalog": make_edit_catalog,
    "sample_eval": make_sample_eval,
}


def generate(workload, out, seed):
    """Write the workload's inputs for ``seed`` under ``out``; return (jobs, sizes)."""
    return MAKERS[workload](out, seed)
