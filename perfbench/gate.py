"""Correctness gate: check job outputs against oracles that never import posedit.

* edits: detection pairing, composition and the canonical serializer from
  ``scripts/make_fixtures.py``; rankings from ``tests/oracles.ranking_by_sort``;
* blend steps: ``tests/oracles.unroll_blend_schedule`` (bit-exact);
* metric aggregates: ``tests/oracles.metric_aggregates_from_doc``, and each
  case's row from ``tests/oracles.cosine_by_sums``;
* ddim-demo: schedule from ``tests/oracles.linear_betas`` (exact), seeded
  latent (exact) and the inversion recomputed step by step (to 1e-9).

Once an output tree passes, its digest pins it: in timed runs a job counts as
failed unless its tree digest is the one recorded here.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import make_fixtures as mf  # noqa: E402
import oracles  # noqa: E402

E2E_BUNDLES = ("e2e_girl_dance", "e2e_boy_sit", "e2e_duo_wave")
# The solve under test (SVD) and the oracle's (closed-form angle) agree to a
# few ulps; at 6 printed decimals that can flip the last digit of a value that
# sits on a rounding boundary.  Such a flip is the only difference allowed.
LAST_DIGIT = 1.0000001e-6


def tree_digest(path):
    """sha256 over every file under ``path``: relative name, then content digest."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                content = hashlib.sha256(fh.read()).hexdigest()
            rel = os.path.relpath(full, path).replace(os.sep, "/")
            h.update(f"{rel}\0{content}\n".encode())
    return h.hexdigest()


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _config(job):
    path = job["argv"][job["argv"].index("--config") + 1]
    return _load(path), os.path.dirname(path)


def _last_digit_flips(got, want):
    """Count numbers differing by one printed unit; None if anything else differs."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return None
        parts = [_last_digit_flips(got[k], want[k]) for k in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return None
        parts = [_last_digit_flips(g, w) for g, w in zip(got, want)]
    elif isinstance(want, float) and isinstance(got, float):
        return 0 if got == want else (1 if abs(got - want) <= LAST_DIGIT else None)
    else:
        return 0 if type(got) is type(want) and got == want else None
    return None if None in parts else sum(parts)


def _check_manifest(out_dir, names, problems):
    try:
        listed = _load(os.path.join(out_dir, "manifest.json"))["files"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"manifest.json unreadable: {exc}")
        return
    if listed != sorted(names):
        problems.append(f"manifest lists {listed}, expected {sorted(names)}")


def check_edit(job, out_dir):
    cfg, base = _config(job)
    source = _load(os.path.join(base, cfg["source"]))
    detections = _load(os.path.join(base, cfg["detections"]))["detections"]
    db_path = os.path.join(base, cfg["db"])
    db = _load(db_path)
    query = _load(os.path.join(base, cfg["query_embedding"]))["values"]
    k = min(cfg.get("top_k", 1), len(db))
    if cfg.get("frame_count", 12) != len(source["frames"]):
        raise ValueError("the edit oracle needs frame_count equal to the source length")

    boxes = {inst["instance_id"]: mf.kp_box(inst["keypoints"])
             for inst in source["frames"][0]["instances"]}
    pairs = mf.greedy_pairs([d["box"] for d in detections], boxes,
                            cfg.get("iou_threshold", 0.3))
    order, scores = oracles.ranking_by_sort(query, [e["embedding"] for e in db], k)

    problems = []
    report = _load(os.path.join(out_dir, "report.json"))
    got_pairs = [(p["detection"], p["instance_id"]) for p in report["assignment"]["pairs"]]
    if got_pairs != pairs:
        problems.append(f"assignment {got_pairs} != oracle {pairs}")
    got_rank = [(r["entry_id"], r["score"]) for r in report["retrieved"]]
    want_rank = [(db[i]["entry_id"], scores[i]) for i in order]
    if got_rank != want_rank:
        problems.append(f"ranking {got_rank} != oracle {want_rank}")

    names = ["report.json"]
    flips = 0
    for rank, i in enumerate(order):
        name = "edited.json" if k == 1 else f"edited_{rank + 1:02d}.json"
        names.append(name)
        clip = _load(os.path.join(os.path.dirname(db_path), db[i]["pose_video_path"]))
        want = mf.serialize_video(mf.compose_edit(source, pairs, clip))
        got = _read(os.path.join(out_dir, name))
        if got != want:
            n = _last_digit_flips(json.loads(got), json.loads(want))
            if n is None:
                problems.append(f"{name} differs from the composed oracle edit")
            else:
                flips += n
    _check_manifest(out_dir, names, problems)
    return problems, {"pairs": len(pairs), "returned": k, "last_digit_flips": flips}


def check_blend(job, out_dir):
    cfg, base = _config(job)
    records = oracles.grids_from_stack_doc(_load(os.path.join(base, cfg["stack"])))
    want = oracles.unroll_blend_schedule(
        records, cfg.get("tokens", [0]), cfg.get("blend_ratio", 0.3),
        cfg.get("union_initial_mask", False),
    )
    got = _load(os.path.join(out_dir, "blended.json"))["steps"]
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} blend steps, oracle has {len(want)}")
    for g, (step, bits, s_edit) in zip(got, want):
        if (g["step"] != step
                or g["mask"]["bits"] != [b for row in bits for b in row]
                or g["s_edit"]["values"] != [v for row in s_edit for v in row]):
            problems.append(f"blend step {step} differs from the loop unroll")
            break
    _check_manifest(out_dir, ["blended.json"], problems)
    return problems, {"steps": len(want)}


def _mean_frame_cosine(a, b):
    total = 0.0
    for fa, fb in zip(a["frame_embeddings"], b["frame_embeddings"]):
        total += oracles.cosine_by_sums(fa["values"], fb["values"])
    return total / len(a["frame_embeddings"])


def _case_row(case):
    video = case["edited"]["video_embedding"]["values"]
    row = {
        "case_id": case["case_id"],
        "prompt_hit": oracles.cosine_by_sums(video, case["target_prompt_embedding"]["values"])
        > oracles.cosine_by_sums(video, case["source_prompt_embedding"]["values"]),
        "vid_con": round(_mean_frame_cosine(case["edited"], case["source"]), 6),
    }
    if "ground_truth" in case:
        row["gt_con"] = round(_mean_frame_cosine(case["edited"], case["ground_truth"]), 6)
    return row


def check_metrics(job, out_dir):
    cfg, base = _config(job)
    doc = _load(os.path.join(base, cfg["manifest"]))
    want = oracles.metric_aggregates_from_doc(doc)
    report = _load(os.path.join(out_dir, "report.json"))
    problems = []
    got = report["aggregates"]
    if sorted(got) != sorted(want) or any(got[k] != round(want[k], 6) for k in want):
        problems.append(f"aggregates {got} != oracle {want}")
    if report["case_count"] != len(doc):
        problems.append(f"case_count {report['case_count']} != {len(doc)}")
    if [_case_row(case) for case in doc] != report["cases"]:
        problems.append("per-case rows differ from the straight-line recomputation")
    _check_manifest(out_dir, ["report.json", "report.txt"], problems)
    return problems, {"cases": len(doc)}


def check_ddim(job, out_dir):
    cfg, _ = _config(job)
    steps, dim = cfg["ddim_steps"], cfg["latent_dim"]
    betas = oracles.linear_betas(cfg["beta_start"], cfg["beta_end"], steps)
    alphas = [1.0]
    for b in betas:
        alphas.append(alphas[-1] * (1.0 - b))
    rng = np.random.default_rng(cfg["seed"])
    z0 = [float(v) for v in rng.standard_normal(dim)]
    matrix = 0.1 * rng.standard_normal((dim, dim))
    z = list(z0)
    for t in range(steps):
        eps = (matrix @ np.array(z)).tolist()
        a_t, a_prev = alphas[t + 1], alphas[t]
        z = [math.sqrt(a_t) * (zi - math.sqrt(1.0 - a_prev) * e) / math.sqrt(a_prev)
             + math.sqrt(1.0 - a_t) * e for zi, e in zip(z, eps)]

    problems = []
    sched = _load(os.path.join(out_dir, "schedule.json"))
    if sched["T"] != steps or sched["alphas"] != alphas:
        problems.append("schedule differs from the linear-beta oracle")
    trip = _load(os.path.join(out_dir, "round_trip.json"))
    if trip["z0"] != z0:
        problems.append("z0 is not the seeded draw")
    scale = max(1.0, max(abs(v) for v in z))
    if max(abs(a - b) for a, b in zip(trip["z_top"], z)) > 1e-9 * scale:
        problems.append("z_top differs from the recomputed inversion")
    err = max(abs(a - b) for a, b in zip(trip["z0_reconstructed"], z0))
    if trip["max_abs_error"] != err or err > 1e-6:
        problems.append(f"round trip error {trip['max_abs_error']} (recomputed {err})")
    log = _load(os.path.join(out_dir, "blend_log.json"))["steps"]
    if [s["step"] for s in log] != list(range(steps, 0, -1)):
        problems.append("blend log does not cover every step once, highest first")
    _check_manifest(out_dir, ["blend_log.json", "round_trip.json", "schedule.json"], problems)
    return problems, {"steps": steps}


CHECKS = {"edit": check_edit, "blend": check_blend, "metrics": check_metrics,
          "ddim": check_ddim}


def check_job(job, out_dir):
    """Oracle problems for one finished job (empty when correct) and facts seen."""
    try:
        return CHECKS[job["kind"]](job, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable or malformed: {exc!r}"], {}


def golden_problems(bundle, out_dir):
    """Pre-flight: a committed e2e bundle's edit must equal its golden file."""
    golden = os.path.join(ROOT, "tests", "fixtures", bundle, "golden", "edited.json")
    try:
        if _read(os.path.join(out_dir, "edited.json")) != _read(golden):
            return [f"{bundle}: edited.json differs from its golden"]
    except OSError as exc:
        return [f"{bundle}: {exc}"]
    return []


def bundle_config(bundle):
    return os.path.join(ROOT, "tests", "fixtures", bundle, "config.json")
