"""Independent recomputations the tests check the package against.

Each oracle takes a different route than the code under test: the similarity
solve is checked by scanning rotation angles, the sampler by composing affine
maps into a single matrix, the blend schedule by straight-line loops over
python lists.  Where a comparison must be bit-exact the oracle repeats the
same IEEE operations in the same order, which is stated at the definition.
"""

import math

import numpy as np


# --- similarity alignment ----------------------------------------------------------


def pointwise_residual(fixed_pts, moving_pts, usable, scale, theta, t):
    """Objective evaluated term by term, no algebraic shortcuts."""
    c, s = math.cos(theta), math.sin(theta)
    total = 0.0
    for (px, py), (qx, qy), use in zip(fixed_pts, moving_pts, usable):
        if not use:
            continue
        rx = scale * (c * qx - s * qy) + t[0]
        ry = scale * (s * qx + c * qy) + t[1]
        total += (px - rx) ** 2 + (py - ry) ** 2
    return total


def best_similarity_by_scan(fixed_pts, moving_pts, usable, grid=131072, refine=200):
    """Minimize the alignment objective by scanning the rotation angle.

    For a candidate angle the optimal scale and translation are closed-form
    (least squares in s, then centroid matching), so the objective reduces to
    a function of theta alone.  A dense grid bracket is refined by ternary
    search, then scale, translation, and the residual are reconstructed at
    the winning angle.  Returns (scale, theta, (tx, ty), residual).
    """
    pairs = [
        (fixed_pts[i], moving_pts[i]) for i in range(len(fixed_pts)) if usable[i]
    ]
    n = len(pairs)
    if n < 2:
        raise ValueError("scan oracle needs two usable pairs")
    mpx = mpy = mqx = mqy = 0.0
    for (px, py), (qx, qy) in pairs:
        mpx, mpy, mqx, mqy = mpx + px, mpy + py, mqx + qx, mqy + qy
    mpx, mpy, mqx, mqy = mpx / n, mpy / n, mqx / n, mqy / n
    a = b = qq = pp = 0.0
    for (px, py), (qx, qy) in pairs:
        cpx, cpy = px - mpx, py - mpy
        cqx, cqy = qx - mqx, qy - mqy
        a += cpx * cqx + cpy * cqy
        b += cpy * cqx - cpx * cqy
        qq += cqx * cqx + cqy * cqy
        pp += cpx * cpx + cpy * cpy
    if qq == 0.0:
        raise ValueError("scan oracle: moving points coincide")

    def objective(theta):
        proj = a * math.cos(theta) + b * math.sin(theta)
        if proj <= 0.0:
            return pp
        return pp - proj * proj / qq

    thetas = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    proj = a * np.cos(thetas) + b * np.sin(thetas)
    objs = np.where(proj > 0.0, pp - proj * proj / qq, pp)
    k = int(np.argmin(objs))
    step = 2.0 * math.pi / grid
    lo, hi = thetas[k] - step, thetas[k] + step
    for _ in range(refine):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    theta = 0.5 * (lo + hi)
    proj = a * math.cos(theta) + b * math.sin(theta)
    scale = proj / qq
    if scale <= 0.0:
        raise ValueError("scan oracle: no positive-scale optimum")
    c, s = math.cos(theta), math.sin(theta)
    t = (mpx - scale * (c * mqx - s * mqy), mpy - scale * (s * mqx + c * mqy))
    return scale, theta, t, pointwise_residual(fixed_pts, moving_pts, usable, scale, theta, t)


# --- detection assignment ----------------------------------------------------------


def greedy_pairs_by_rescan(iou_table, threshold):
    """Repeated global-maximum scan over an explicit (det, inst) -> iou table.

    Ties prefer the lower detection index, then the lower instance id.  This
    is the quadratic restatement of the sorted-sweep under test.
    """
    pairs = []
    used_d, used_i = set(), set()
    while True:
        best = None
        for (d, i), v in sorted(iou_table.items()):
            if not v >= threshold or d in used_d or i in used_i:
                continue
            if best is None or v > best[0]:
                best = (v, d, i)
        if best is None:
            return pairs
        pairs.append((best[1], best[2]))
        used_d.add(best[1])
        used_i.add(best[2])


# --- attention blending ------------------------------------------------------------
# These loops repeat the library's arithmetic order exactly (sequential map
# sums in token order, the same >= cutoff, the same floor expression), so the
# comparison downstream can demand bit equality.


def threshold_by_loops(token_maps, token_set, ratio):
    h, w = len(token_maps[0]), len(token_maps[0][0])
    acc = [[0.0] * w for _ in range(h)]
    for tok in token_set:
        for i in range(h):
            for j in range(w):
                acc[i][j] += token_maps[tok][i][j]
    peak = max(max(row) for row in acc)
    if peak == 0.0:
        return [[0] * w for _ in range(h)]
    cut = ratio * peak
    return [[1 if acc[i][j] >= cut else 0 for j in range(w)] for i in range(h)]


def resize_by_loops(bits, h2, w2):
    h, w = len(bits), len(bits[0])
    rows = [int((i + 0.5) * h // h2) for i in range(h2)]
    cols = [int((j + 0.5) * w // w2) for j in range(w2)]
    return [[bits[r][c] for c in cols] for r in rows]


def blend_by_loops(bits, den, inv):
    h, w = len(bits), len(bits[0])
    return [
        [
            float(bits[i][j]) * den[i][j] + (1.0 - float(bits[i][j])) * inv[i][j]
            for j in range(w)
        ]
        for i in range(h)
    ]


def unroll_blend_schedule(records, token_set, ratio, union_with_initial=False):
    """Straight-line restatement of the whole schedule on nested lists.

    ``records``: list of dicts (highest step first) with keys ``step``,
    ``c_inv``, ``s_inv``, ``c_den``, ``s_den``; cross maps are lists of
    row-major grids, self maps single grids.  Returns (step, bits, s_edit)
    triples with plain lists.
    """
    out = []
    initial = None
    previous = None
    for rec in records:
        if previous is None:
            bits = threshold_by_loops(rec["c_inv"], token_set, ratio)
            initial = bits
        else:
            bits = threshold_by_loops(previous["c_den"], token_set, ratio)
            h2, w2 = len(rec["s_den"]), len(rec["s_den"][0])
            bits = resize_by_loops(bits, h2, w2)
            if union_with_initial:
                base = resize_by_loops(initial, h2, w2)
                bits = [
                    [max(bits[i][j], base[i][j]) for j in range(w2)]
                    for i in range(h2)
                ]
        out.append((rec["step"], bits, blend_by_loops(bits, rec["s_den"], rec["s_inv"])))
        previous = rec
    return out


def grids_from_stack_doc(doc):
    """Wire-format stack document -> the nested-list records above."""

    def grid(node):
        h, w = node["h"], node["w"]
        vals = node["values"]
        return [[float(vals[i * w + j]) for j in range(w)] for i in range(h)]

    records = []
    for step_doc in doc["steps"]:
        records.append(
            {
                "step": step_doc["step"],
                "c_inv": [grid(m) for m in step_doc["c_inv"]],
                "s_inv": grid(step_doc["s_inv"]),
                "c_den": [grid(m) for m in step_doc["c_den"]],
                "s_den": grid(step_doc["s_den"]),
            }
        )
    return records


# --- deterministic sampling --------------------------------------------------------


def ddim_linear_final(matrix, z_top, alphas, from_t):
    """Closed form for a linear noise model: compose the per-step affine maps
    z_{t-1} = c_t z_t + d_t (M z_t) into one matrix and apply it once."""
    matrix = np.asarray(matrix, dtype=np.float64)
    z = np.asarray(z_top, dtype=np.float64)
    eye = np.eye(len(z))
    prod = eye
    for t in range(from_t, 0, -1):
        a_t, a_prev = alphas[t], alphas[t - 1]
        c = math.sqrt(a_prev / a_t)
        d = math.sqrt(1.0 - a_prev) - c * math.sqrt(1.0 - a_t)
        prod = (c * eye + d * matrix) @ prod
    return prod @ z


def linear_betas(beta_start, beta_end, steps):
    if steps == 1:
        return [beta_start]
    return [
        beta_start + (beta_end - beta_start) * i / (steps - 1) for i in range(steps)
    ]


# --- cosine and metrics ------------------------------------------------------------
# Same summation order as the library (single left-to-right pass, division by
# the product of the two root norms), so scores compare bit-for-bit.


def cosine_by_sums(a, b):
    def dot(xs, ys):
        total = 0.0
        for x, y in zip(xs, ys):
            total += x * y
        return total

    na = math.sqrt(dot(a, a))
    nb = math.sqrt(dot(b, b))
    return dot(a, b) / (na * nb)


def ranking_by_sort(query, embeddings, k):
    scores = [cosine_by_sums(query, e) for e in embeddings]
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    return order[:k], scores


def metric_aggregates_from_doc(cases):
    """Straight-line recomputation of the three aggregate metrics from the
    decoded manifest JSON (after path indirection is resolved)."""
    hits = 0
    con_total = 0.0
    gt_values = []
    for case in cases:
        video = case["edited"]["video_embedding"]["values"]
        t = cosine_by_sums(video, case["target_prompt_embedding"]["values"])
        s = cosine_by_sums(video, case["source_prompt_embedding"]["values"])
        if t > s:
            hits += 1
        frames_e = case["edited"]["frame_embeddings"]
        frames_s = case["source"]["frame_embeddings"]
        con = 0.0
        for fe, fs in zip(frames_e, frames_s):
            con += cosine_by_sums(fe["values"], fs["values"])
        con_total += con / len(frames_e)
        if "ground_truth" in case:
            frames_g = case["ground_truth"]["frame_embeddings"]
            g = 0.0
            for fe, fg in zip(frames_e, frames_g):
                g += cosine_by_sums(fe["values"], fg["values"])
            gt_values.append(g / len(frames_e))
    out = {
        "vid_acc": hits / len(cases),
        "vid_con": con_total / len(cases),
    }
    if gt_values:
        gt_total = 0.0
        for g in gt_values:
            gt_total += g
        out["gt_con"] = gt_total / len(gt_values)
    return out
