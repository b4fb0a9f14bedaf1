#!/usr/bin/env python3
"""Regenerate tests/fixtures from scratch.

Everything here is deliberately independent of the package under test: the
canonical serializer, the similarity solve, the temporal resampling, and the
substitution logic are all reimplemented with plain scalar math.  The edit
goldens this script writes are therefore an oracle: the package must reproduce
them byte-for-byte without ever having produced them.

The one shared piece is the similarity solve's formula: the package's
``solve_similarity`` and ``SimilarityTransform2D.apply`` perform the same IEEE
operations in the same order as ``solve_scalar`` and ``apply_scalar`` below,
so the two agree bit for bit.  The independent check of the solve is the
angle-scan oracle in ``tests/oracles.py`` (``best_similarity_by_scan``).

Deterministic by construction: fixed seeds, fixed iteration order.  Run from
anywhere:

    python3 scripts/make_fixtures.py
"""

import json
import math
import os
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.normpath(os.path.join(HERE, "..", "tests", "fixtures"))

COCO17 = [
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
]

# unit-space joint offsets (x right, y down), scaled per person
TEMPLATE = [
    (0.00, 0.00),    # nose
    (0.10, -0.05), (-0.10, -0.05),   # eyes
    (0.20, 0.00), (-0.20, 0.00),     # ears
    (0.35, 0.35), (-0.35, 0.35),     # shoulders
    (0.55, 0.75), (-0.55, 0.75),     # elbows
    (0.60, 1.15), (-0.60, 1.15),     # wrists
    (0.25, 1.10), (-0.25, 1.10),     # hips
    (0.28, 1.65), (-0.28, 1.65),     # knees
    (0.30, 2.20), (-0.30, 2.20),     # ankles
]


def q6(x):
    return round(float(x), 6)


def fmt(x):
    out = f"{float(x):.6f}"
    return "0.000000" if out == "-0.000000" else out


# --- independent canonical serializer -------------------------------------------


def serialize_video(video):
    parts = ['{"frames":[']
    for fi, frame in enumerate(video["frames"]):
        if fi:
            parts.append(",")
        parts.append('{"frame_index":%d,"instances":[' % frame["frame_index"])
        for ii, inst in enumerate(frame["instances"]):
            if ii:
                parts.append(",")
            parts.append('{"instance_id":%d,"keypoints":[' % inst["instance_id"])
            for ki, kp in enumerate(inst["keypoints"]):
                if ki:
                    parts.append(",")
                parts.append(
                    '{"confidence":%s,"visible":%s,"x":%s,"y":%s}'
                    % (
                        fmt(kp["confidence"]),
                        "true" if kp["visible"] else "false",
                        fmt(kp["x"]),
                        fmt(kp["y"]),
                    )
                )
            parts.append("]}")
        parts.append("]}")
    parts.append('],"height":%d,' % video["height"])
    if video.get("label") is not None:
        parts.append('"label":%s,' % json.dumps(video["label"]))
    parts.append('"skeleton":[')
    parts.append(",".join(json.dumps(n) for n in video["skeleton"]))
    parts.append('],"width":%d}\n' % video["width"])
    return "".join(parts)


# --- independent geometry ---------------------------------------------------------


def solve_scalar(fixed_pts, moving_pts, usable):
    """Similarity solve via the direct angle parameterization.

    Over usable pairs, with centered coordinates p (fixed) and q (moving):
    theta = atan2(B, A) with A = sum(px*qx + py*qy), B = sum(py*qx - px*qy);
    scale = hypot(A, B) / sum(|q|^2); translation closes the centroids.  Every
    sum is a 0.0-started left-to-right loop, never the builtin ``sum`` (which
    is compensated from Python 3.12 on).
    """
    pairs = [(fixed_pts[i], moving_pts[i]) for i in range(len(fixed_pts)) if usable[i]]
    n = len(pairs)
    assert n >= 2, "under-determined fixture"
    mpx = mpy = mqx = mqy = 0.0
    for (px, py), (qx, qy) in pairs:
        mpx, mpy, mqx, mqy = mpx + px, mpy + py, mqx + qx, mqy + qy
    mpx, mpy, mqx, mqy = mpx / n, mpy / n, mqx / n, mqy / n
    a = b = qq = 0.0
    for (px, py), (qx, qy) in pairs:
        cpx, cpy = px - mpx, py - mpy
        cqx, cqy = qx - mqx, qy - mqy
        a += cpx * cqx + cpy * cqy
        b += cpy * cqx - cpx * cqy
        qq += cqx * cqx + cqy * cqy
    # coincidence is also tested exactly, as a float centroid can round
    assert qq > 0.0 and any(q != pairs[0][1] for _, q in pairs), \
        "coincident moving points in fixture"
    theta = math.atan2(b, a)
    scale = math.hypot(a, b) / qq
    assert scale > 0.0 and any(p != pairs[0][0] for p, _ in pairs), \
        "degenerate scale in fixture"
    c, s = math.cos(theta), math.sin(theta)
    tx = mpx - scale * (c * mqx - s * mqy)
    ty = mpy - scale * (s * mqx + c * mqy)
    return scale, theta, (tx, ty)


def apply_scalar(tr, x, y):
    scale, theta, (tx, ty) = tr
    c, s = math.cos(theta), math.sin(theta)
    return scale * (x * c - y * s) + tx, scale * (x * s + y * c) + ty


def resample_picks(src_len, dst_len):
    if src_len == 1 or dst_len == 1:
        return [0] * dst_len
    return [math.floor(j * (src_len - 1) / (dst_len - 1) + 0.5) for j in range(dst_len)]


def iou_scalar(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, iw) * max(0.0, ih)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return 0.0 if union <= 0.0 else inter / union


def greedy_pairs(det_boxes, inst_boxes, threshold):
    """(value, det, inst) candidates taken best-first; ties by (det, inst id)."""
    cands = []
    for d, dbox in enumerate(det_boxes):
        for inst_id, ibox in inst_boxes.items():
            v = iou_scalar(dbox, ibox)
            if v >= threshold:
                cands.append((v, d, inst_id))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_d, used_i, pairs = set(), set(), []
    for v, d, inst_id in cands:
        if d in used_d or inst_id in used_i:
            continue
        used_d.add(d)
        used_i.add(inst_id)
        pairs.append((d, inst_id))
    return pairs


def kp_box(keypoints):
    xs = [kp["x"] for kp in keypoints if kp["visible"]]
    ys = [kp["y"] for kp in keypoints if kp["visible"]]
    return (min(xs), min(ys), max(xs), max(ys))


def compose_edit(source, pairs, retrieved):
    """Scalar re-statement of the replacement rule, used only for goldens."""
    matched = {}
    first = source["frames"][0]["instances"]
    by_id = {inst["instance_id"]: inst for inst in first}
    ret_first = retrieved["frames"][0]["instances"][0]["keypoints"]
    moving_pts = [(kp["x"], kp["y"]) for kp in ret_first]
    for _, inst_id in pairs:
        fixed_kps = by_id[inst_id]["keypoints"]
        fixed_pts = [(kp["x"], kp["y"]) for kp in fixed_kps]
        usable = [
            fixed_kps[i]["visible"] and ret_first[i]["visible"]
            for i in range(len(fixed_kps))
        ]
        tr = solve_scalar(fixed_pts, moving_pts, usable)

        aligned_frames = []
        for frame in retrieved["frames"]:
            kps = []
            for kp in frame["instances"][0]["keypoints"]:
                if kp["visible"]:
                    x, y = apply_scalar(tr, kp["x"], kp["y"])
                    kps.append(
                        {"x": x, "y": y, "visible": True, "confidence": kp["confidence"]}
                    )
                else:
                    kps.append(dict(kp))
            aligned_frames.append(kps)
        picks = resample_picks(len(aligned_frames), len(source["frames"]))
        matched[inst_id] = [aligned_frames[p] for p in picks]

    out_frames = []
    for k, frame in enumerate(source["frames"]):
        instances = []
        for inst in frame["instances"]:
            if inst["instance_id"] in matched:
                instances.append(
                    {
                        "instance_id": inst["instance_id"],
                        "keypoints": matched[inst["instance_id"]][k],
                    }
                )
            else:
                instances.append(inst)
        out_frames.append({"frame_index": frame["frame_index"], "instances": instances})
    return {
        "width": source["width"],
        "height": source["height"],
        "skeleton": source["skeleton"],
        "frames": out_frames,
        "label": source.get("label"),
    }


# --- generators -------------------------------------------------------------------


def person(rng, cx, cy, size, jitter=1.5):
    kps = []
    for dx, dy in TEMPLATE:
        kps.append(
            {
                "x": q6(cx + size * dx + rng.uniform(-jitter, jitter)),
                "y": q6(cy + size * dy + rng.uniform(-jitter, jitter)),
                "visible": True,
                "confidence": q6(rng.uniform(0.55, 1.0)),
            }
        )
    return kps


def shift(kps, dx, dy):
    return [
        {**kp, "x": q6(kp["x"] + dx), "y": q6(kp["y"] + dy)}
        for kp in kps
    ]


def wave_arm(kps, frame, amp):
    """Swing the left wrist/elbow on a sine; quantized like everything else."""
    out = [dict(kp) for kp in kps]
    phase = 2.0 * math.pi * frame / 8.0
    out[9]["x"] = q6(out[9]["x"] + amp * math.sin(phase))
    out[9]["y"] = q6(out[9]["y"] - abs(amp * 0.8 * math.cos(phase)))
    out[7]["x"] = q6(out[7]["x"] + 0.5 * amp * math.sin(phase))
    return out


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, obj):
    write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def make_video(width, height, frames, label=None):
    return {
        "width": width,
        "height": height,
        "skeleton": list(COCO17),
        "frames": frames,
        "label": label,
    }


def frames_from(instances_per_frame):
    return [
        {"frame_index": i, "instances": instances}
        for i, instances in enumerate(instances_per_frame)
    ]


# --- pose corpus ------------------------------------------------------------------

TINY_CANONICAL = (
    '{"frames":[{"frame_index":0,"instances":[{"instance_id":0,"keypoints":['
    '{"confidence":1.000000,"visible":true,"x":1.000000,"y":2.000000},'
    '{"confidence":0.500000,"visible":false,"x":0.000000,"y":0.000000},'
    '{"confidence":1.000000,"visible":true,"x":3.250000,"y":0.125000}]}]}],'
    '"height":4,"label":"tiny","skeleton":["a","b","c"],"width":4}\n'
)


def gen_pose_corpus():
    out = os.path.join(FIXTURES, "pose_corpus")
    write(os.path.join(out, "tiny.json"), TINY_CANONICAL)

    rng = np.random.default_rng(11)
    frames = []
    for f in range(3):
        p0 = person(rng, 120 + 3 * f, 100, 40)
        p1 = person(rng, 220 - 2 * f, 110, 38)
        p1[4]["visible"] = False
        frames.append(
            {
                "frame_index": f,
                "instances": [
                    {"instance_id": 0, "keypoints": p0},
                    {"instance_id": 1, "keypoints": p1},
                ],
            }
        )
    write(
        os.path.join(out, "multi.json"),
        serialize_video(make_video(400, 320, frames, label="two people")),
    )

    rng = np.random.default_rng(12)
    kps = person(rng, 30, 40, 30)
    kps[0]["x"] = -12.5   # visible but outside the frame on purpose
    frames = [{"frame_index": 0, "instances": [{"instance_id": 0, "keypoints": kps}]}]
    write(
        os.path.join(out, "out_of_frame.json"),
        serialize_video(make_video(128, 160, frames)),
    )


# --- alignment fixtures -----------------------------------------------------------


def gen_align():
    out = os.path.join(FIXTURES, "align")
    rng = np.random.default_rng(21)

    moving = [(q6(rng.uniform(-40, 40)), q6(rng.uniform(-40, 40))) for _ in range(17)]
    s_true, theta_true, t_true = 1.7, 0.6, (12.0, -4.0)
    fixed = []
    for x, y in moving:
        fx, fy = apply_scalar((s_true, theta_true, t_true), x, y)
        fixed.append((q6(fx + rng.normal(0.0, 2.0)), q6(fy + rng.normal(0.0, 2.0))))
    write_json(
        os.path.join(out, "align_noisy_01.json"),
        {
            "fixed": {"points": [[x, y] for x, y in fixed], "mask": [True] * 17},
            "moving": {"points": [[x, y] for x, y in moving], "mask": [True] * 17},
        },
    )

    rng = np.random.default_rng(22)
    fixed_frames = frames_from(
        [[{"instance_id": 0, "keypoints": person(rng, 150, 90, 45)}] for _ in range(5)]
    )
    base = person(rng, 60, 50, 20)
    moving_frames = frames_from(
        [[{"instance_id": 0, "keypoints": shift(base, 1.0 * f, 0.5 * f)}] for f in range(5)]
    )
    write(
        os.path.join(out, "fixed.json"),
        serialize_video(make_video(320, 320, fixed_frames)),
    )
    write(
        os.path.join(out, "moving.json"),
        serialize_video(make_video(320, 320, moving_frames)),
    )


# --- retrieval fixtures -----------------------------------------------------------


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return [q6(x) for x in (v / np.linalg.norm(v))]


def gen_retrieval():
    out = os.path.join(FIXTURES, "retrieval")
    rng = np.random.default_rng(31)
    labels = [
        "dance", "sit down", "wave hands", "run", "jump",
        "squat", "clap", "bow", "kick", "stretch",
    ]
    entries = []
    for i, label in enumerate(labels):
        clip_rng = np.random.default_rng(310 + i)
        base = person(clip_rng, 80, 60, 25)
        frames = frames_from(
            [[{"instance_id": 0, "keypoints": shift(base, f, 0)}] for f in range(2)]
        )
        rel = f"clips/entry_{i:02d}.json"
        write(
            os.path.join(out, rel),
            serialize_video(make_video(200, 220, frames, label=label)),
        )
        entries.append(
            {
                "entry_id": f"entry_{i:02d}",
                "label": label,
                "embedding": unit(rng, 8),
                "pose_video_path": rel,
            }
        )
    write_json(os.path.join(out, "db_manifest.json"), entries)

    target = np.array(entries[2]["embedding"])
    noise = np.random.default_rng(32).normal(0.0, 0.05, 8)
    q = target + noise
    write_json(
        os.path.join(out, "query.json"),
        {"dim": 8, "values": [q6(x) for x in q]},
    )


# --- blend fixtures ---------------------------------------------------------------


def map_doc(rng, h, w, scale=1.0):
    return {
        "h": h,
        "w": w,
        "values": [q6(scale * v) for v in rng.uniform(0.0, 1.0, h * w)],
    }


def gen_blend():
    out = os.path.join(FIXTURES, "blend")
    rng = np.random.default_rng(41)
    steps = []
    for step in (3, 2, 1):
        steps.append(
            {
                "step": step,
                "c_inv": [map_doc(rng, 4, 4), map_doc(rng, 4, 4, 0.7)],
                "s_inv": map_doc(rng, 4, 4, 2.0),
                "c_den": [map_doc(rng, 4, 4, 0.9), map_doc(rng, 4, 4, 1.1)],
                "s_den": map_doc(rng, 4, 4, 3.0),
            }
        )
    write_json(os.path.join(out, "blend_sched_01.json"), {"steps": steps})

    rng = np.random.default_rng(42)
    write_json(
        os.path.join(out, "single_step.json"),
        {
            "steps": [
                {
                    "step": 5,
                    "c_inv": [map_doc(rng, 3, 5)],
                    "s_inv": map_doc(rng, 3, 5, 2.0),
                    "c_den": [map_doc(rng, 3, 5)],
                    "s_den": map_doc(rng, 3, 5, 3.0),
                }
            ]
        },
    )
    write_json(os.path.join(out, "config_tokens01.json"), {"tokens": [0, 1]})


# --- end-to-end bundles -----------------------------------------------------------


def db_for_bundle(out_dir, rng, clips):
    """clips: list of (entry_id, label, video).  Returns label -> embedding."""
    entries = []
    embeddings = {}
    for entry_id, label, video in clips:
        rel = f"clips/{entry_id}.json"
        write(os.path.join(out_dir, "db", rel), serialize_video(video))
        emb = unit(rng, 8)
        embeddings[entry_id] = emb
        entries.append(
            {
                "entry_id": entry_id,
                "label": label,
                "embedding": emb,
                "pose_video_path": rel,
            }
        )
    write_json(os.path.join(out_dir, "db", "manifest.json"), entries)
    return embeddings


def query_near(out_dir, seed, embedding):
    rng = np.random.default_rng(seed)
    q = np.array(embedding) + rng.normal(0.0, 0.04, len(embedding))
    write_json(
        os.path.join(out_dir, "query.json"),
        {"dim": len(embedding), "values": [q6(x) for x in q]},
    )


def bundle_config(out_dir, extra=None):
    cfg = {
        "source": "source.json",
        "detections": "detections.json",
        "answer": "answer.txt",
        "db": "db/manifest.json",
        "query_embedding": "query.json",
    }
    if extra:
        cfg.update(extra)
    write_json(os.path.join(out_dir, "config.json"), cfg)


def dance_clip(seed, n_frames):
    rng = np.random.default_rng(seed)
    base = person(rng, 128, 60, 45)
    frames = []
    for f in range(n_frames):
        kps = wave_arm(base, f, 18.0)
        kps = shift(kps, q6(2.0 * math.sin(2 * math.pi * f / n_frames)), 0.0)
        frames.append(kps)
    return make_video(
        256, 256, frames_from([[{"instance_id": 0, "keypoints": k}] for k in frames]),
        label="dance",
    )


def sit_clip(seed, n_frames):
    rng = np.random.default_rng(seed)
    base = person(rng, 120, 50, 42)
    frames = []
    for f in range(n_frames):
        drop = 14.0 * f / max(1, n_frames - 1)
        kps = [dict(kp) for kp in base]
        for j in (11, 12, 13, 14):   # hips and knees sink
            kps[j]["y"] = q6(kps[j]["y"] + drop)
        if 3 <= f <= 6:
            kps[9]["visible"] = False   # left wrist occluded mid-clip
        frames.append(kps)
    frames[0] = [dict(kp) for kp in frames[0]]
    frames[0][4]["visible"] = False     # right ear hidden in the anchor frame
    return make_video(
        240, 260, frames_from([[{"instance_id": 0, "keypoints": k}] for k in frames]),
        label="sit down",
    )


def wave_clip(seed, n_frames):
    rng = np.random.default_rng(seed)
    base = person(rng, 110, 55, 40)
    frames = [wave_arm(base, f, 24.0) for f in range(n_frames)]
    return make_video(
        224, 240, frames_from([[{"instance_id": 0, "keypoints": k}] for k in frames]),
        label="wave hands",
    )


def source_video(seed, centers_sizes, n_frames, width, height, drifts):
    rng = np.random.default_rng(seed)
    people = [person(rng, cx, cy, size) for cx, cy, size in centers_sizes]
    per_frame = []
    for f in range(n_frames):
        instances = []
        for i, kps in enumerate(people):
            dx, dy = drifts[i]
            instances.append(
                {"instance_id": i, "keypoints": shift(kps, dx * f, dy * f)}
            )
        per_frame.append(instances)
    return make_video(width, height, frames_from(per_frame))


def margin_box(box, m):
    return [q6(box[0] - m), q6(box[1] - m), q6(box[2] + m), q6(box[3] + m)]


def gen_bundle(name, source, detections, answer_text, clips, top_entry,
               query_seed, expected_pairs, threshold=0.3, config_extra=None):
    out = os.path.join(FIXTURES, name)
    rng = np.random.default_rng(zlib.crc32(name.encode("utf-8")))
    write(os.path.join(out, "source.json"), serialize_video(source))
    write_json(
        os.path.join(out, "detections.json"),
        {"frame_index": 0, "detections": detections},
    )
    write(os.path.join(out, "answer.txt"), answer_text)
    embeddings = db_for_bundle(out, rng, clips)
    query_near(out, query_seed, embeddings[top_entry])
    bundle_config(out, config_extra)

    inst_boxes = {
        inst["instance_id"]: kp_box(inst["keypoints"])
        for inst in source["frames"][0]["instances"]
    }
    pairs = greedy_pairs([d["box"] for d in detections], inst_boxes, threshold)
    assert pairs == expected_pairs, f"{name}: greedy gave {pairs}, expected {expected_pairs}"

    retrieved = next(video for entry_id, _, video in clips if entry_id == top_entry)
    golden = compose_edit(source, pairs, retrieved)
    write(os.path.join(out, "golden", "edited.json"), serialize_video(golden))


def gen_e2e():
    # girl + bystander; 16-frame dance clip exercises downsampling
    source = source_video(
        51, [(170, 150, 60), (360, 160, 55)], 12, 512, 512, [(2.0, 0.0), (-1.5, 0.0)]
    )
    girl_box = margin_box(kp_box(source["frames"][0]["instances"][0]["keypoints"]), 6.0)
    gen_bundle(
        "e2e_girl_dance",
        source,
        [{"phrase": "the girl", "box": girl_box, "score": 0.92}],
        "subject: the girl\naction: dance\n",
        [
            ("dance_01", "dance", dance_clip(511, 16)),
            ("sit_01", "sit down", sit_clip(512, 12)),
            ("wave_01", "wave hands", wave_clip(513, 8)),
        ],
        "dance_01",
        515,
        expected_pairs=[(0, 0)],
    )

    # single person; 12-frame sit clip with invisible keypoints, no resampling
    source = source_video(52, [(250, 200, 70)], 12, 512, 512, [(0.0, 1.0)])
    boy_box = margin_box(kp_box(source["frames"][0]["instances"][0]["keypoints"]), 8.0)
    gen_bundle(
        "e2e_boy_sit",
        source,
        [{"phrase": "the boy", "box": boy_box, "score": 0.88}],
        "subject: the boy\naction: sit down\n",
        [
            ("sit_01", "sit down", sit_clip(521, 12)),
            ("dance_01", "dance", dance_clip(522, 10)),
            ("wave_01", "wave hands", wave_clip(523, 9)),
        ],
        "sit_01",
        525,
        expected_pairs=[(0, 0)],
    )

    # two overlapping people, crossing detections; 8-frame clip upsamples
    source = source_video(
        53, [(200, 180, 60), (250, 185, 62)], 12, 512, 512, [(1.0, 0.5), (-1.0, 0.5)]
    )
    box0 = kp_box(source["frames"][0]["instances"][0]["keypoints"])
    box1 = kp_box(source["frames"][0]["instances"][1]["keypoints"])
    det0 = [q6(box0[0] - 4), q6(box0[1] - 4), q6(box0[2] + 30), q6(box0[3] + 4)]
    det1 = margin_box(box1, 5.0)
    gen_bundle(
        "e2e_duo_wave",
        source,
        [
            {"phrase": "the man on the left", "box": det0, "score": 0.81},
            {"phrase": "the man on the right", "box": det1, "score": 0.86},
        ],
        "subject: the two men\naction: wave hands\n",
        [
            ("wave_01", "wave hands", wave_clip(531, 8)),
            ("dance_01", "dance", dance_clip(532, 14)),
            ("sit_01", "sit down", sit_clip(533, 12)),
        ],
        "wave_01",
        535,
        expected_pairs=[(1, 1), (0, 0)],
    )


# --- metric fixtures --------------------------------------------------------------


def emb_doc(rng, dim):
    v = rng.standard_normal(dim)
    return {"dim": dim, "values": [float(x) for x in v]}


def record_doc(rng, video_id, vdim, fdim, n_frames):
    return {
        "video_id": video_id,
        "video_embedding": emb_doc(rng, vdim),
        "frame_embeddings": [emb_doc(rng, fdim) for _ in range(n_frames)],
    }


def gen_metrics():
    out = os.path.join(FIXTURES, "metrics")
    rng = np.random.default_rng(61)
    vdim, fdim = 12, 6

    cases = []
    for i in range(20):
        n_frames = int(rng.integers(4, 9))
        case = {
            "case_id": f"case_{i:02d}",
            "edited": record_doc(rng, f"edited_{i:02d}", vdim, fdim, n_frames),
            "source": record_doc(rng, f"source_{i:02d}", vdim, fdim, n_frames),
            "target_prompt_embedding": emb_doc(rng, vdim),
            "source_prompt_embedding": emb_doc(rng, vdim),
        }
        if i % 3 != 2:   # 14 of 20 carry ground truth
            case["ground_truth"] = record_doc(rng, f"gt_{i:02d}", vdim, fdim, n_frames)
        cases.append(case)

    # two slots exercise the {"path": ...} indirection
    write_json(os.path.join(out, "parts", "case00_edited.json"), cases[0]["edited"])
    cases[0]["edited"] = {"path": "parts/case00_edited.json"}
    write_json(
        os.path.join(out, "parts", "case03_target.json"),
        cases[3]["target_prompt_embedding"],
    )
    cases[3]["target_prompt_embedding"] = {"path": "parts/case03_target.json"}
    write_json(os.path.join(out, "manifest.json"), cases)

    # identical prompts: the strict comparison must fail every case
    rng = np.random.default_rng(62)
    prompt = emb_doc(rng, vdim)
    tie = {
        "case_id": "tie_00",
        "edited": record_doc(rng, "edited_tie", vdim, fdim, 3),
        "source": record_doc(rng, "source_tie", vdim, fdim, 3),
        "target_prompt_embedding": prompt,
        "source_prompt_embedding": prompt,
    }
    write_json(os.path.join(out, "manifest_tie.json"), [tie])

    rng = np.random.default_rng(63)
    no_gt = [
        {
            "case_id": f"plain_{i}",
            "edited": record_doc(rng, f"edited_p{i}", vdim, fdim, 4),
            "source": record_doc(rng, f"source_p{i}", vdim, fdim, 4),
            "target_prompt_embedding": emb_doc(rng, vdim),
            "source_prompt_embedding": emb_doc(rng, vdim),
        }
        for i in range(2)
    ]
    write_json(os.path.join(out, "manifest_no_gt.json"), no_gt)


def main():
    gen_pose_corpus()
    gen_align()
    gen_retrieval()
    gen_blend()
    gen_e2e()
    gen_metrics()
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
