"""Command-line entry point.

Subcommands mirror the pipeline stages:

    align       solve the first-frame similarity transform, apply to a clip
    retrieve    rank pose-database entries against a query embedding
    edit        full pipeline: retrieve, assign detections, align, substitute
    blend-demo  run the attention-blend schedule over a recorded stack file
    ddim-demo   schedule + exact inversion round trip + blending hook demo
    metrics     evaluate a manifest of embedding cases

Exit codes: 0 success, 2 malformed input (schema or usage), 3 stage failure
(missing file, missing required input, failed helper process, degenerate
geometry, unwritable --out-dir).  Every command computes all outputs before it
writes any under --out-dir, and writes manifest.json, naming them, last.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import CONFIG_FIELDS, PATH_FIELDS, make_config, parse_pipeline_config
from .errors import ParseError, PoseditError, StageError


def _load_config_file(path: str) -> dict:
    try:
        text = pipeline._read(path)
    except StageError as exc:  # a config it cannot read is a usage error: exit 2
        raise ParseError(f"cannot read config {path}: {exc.__cause__}") from exc.__cause__
    values = parse_pipeline_config(text)
    for key in PATH_FIELDS:
        value = values.get(key)
        # "" and non-strings go on unresolved, for PipelineConfig to refuse
        if isinstance(value, str) and value:
            values[key] = pipeline._beside(path, value)
    return values


def _config_from(args: argparse.Namespace):
    """Config-file values overridden by the flags; each flag's dest names the
    config field it sets."""
    file_values = _load_config_file(args.config) if args.config else None
    return make_config(file_values, {k: v for k, v in vars(args).items() if k in CONFIG_FIELDS})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file; flags override its values")
    parser.add_argument("--out-dir", dest="out_dir", help="directory for outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posedit",
        description="Deterministic pose-video editing toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="similarity-align one pose clip onto another")
    p.add_argument("fixed", help="pose video whose first frame is the target")
    p.add_argument("moving", help="pose video to transform")
    _add_common(p)

    p = sub.add_parser("retrieve", help="rank database entries by cosine score")
    p.add_argument("--db", help="database manifest file")
    p.add_argument("--query-embedding", dest="query_embedding", help="query embedding file")
    p.add_argument("--top-k", dest="top_k", type=int, help="entries to return")
    _add_common(p)

    p = sub.add_parser("edit", help="retrieve an action and replace matched people")
    p.add_argument("--source", help="source pose video")
    p.add_argument("--detections", help="detection file for the first frame")
    p.add_argument("--answer", help="structured answer file (subject:/action:)")
    p.add_argument("--db", help="database manifest file")
    p.add_argument("--query-embedding", dest="query_embedding", help="query embedding file")
    p.add_argument("--top-k", dest="top_k", type=int, help="edited variants to emit")
    p.add_argument("--frames", dest="frame_count", metavar="FRAMES", type=int,
                   help="output frame count (12 normal, 24 long)")
    p.add_argument(
        "--iou-threshold", dest="iou_threshold", type=float, help="assignment threshold"
    )
    _add_common(p)

    p = sub.add_parser("blend-demo", help="run the attention-blend schedule")
    p.add_argument("--stack", help="attention stack file")
    p.add_argument(
        "--blend-ratio", dest="blend_ratio", type=float, help="mask threshold ratio"
    )
    _add_common(p)

    p = sub.add_parser("ddim-demo", help="schedule, inversion round trip, blend hook")
    _add_common(p)

    p = sub.add_parser("metrics", help="evaluate an embedding-case manifest")
    p.add_argument("--manifest", help="metric case manifest file")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "align":
            result = pipeline.run_align(config, args.fixed, args.moving)
            tr = result["transform"]
            print(
                f"scale={tr['scale']:.6f} theta={tr['theta']:.6f} "
                f"t=({tr['translation'][0]:.6f}, {tr['translation'][1]:.6f})"
            )
        elif args.command == "retrieve":
            result = pipeline.run_retrieve(config)
            for row in result["ranking"]:
                print(f"{row['rank']}. {row['entry_id']} ({row['label']}): {row['score']:.6f}")
        elif args.command == "edit":
            report = pipeline.run_edit(config)
            matched = len(report["assignment"]["pairs"])
            top = report["retrieved"][0]
            print(
                f"retrieved {top['entry_id']!r} (score {top['score']:.6f}); "
                f"matched {matched} instance(s)"
            )
            if "note" in report:
                print(report["note"])
        elif args.command == "blend-demo":
            result = pipeline.run_blend_demo(config)
            print(f"blended {result['steps']} step(s)")
        elif args.command == "ddim-demo":
            result = pipeline.run_ddim_demo(config)
            print(f"round-trip max abs error: {result['max_abs_error']:.3e}")
        elif args.command == "metrics":
            report = pipeline.run_metrics(config)
            agg = report["aggregates"]
            line = f"vid_acc={agg['vid_acc']:.6f} vid_con={agg['vid_con']:.6f}"
            if "gt_con" in agg:
                line += f" gt_con={agg['gt_con']:.6f}"
            print(line)
        else:  # pragma: no cover - argparse enforces the choice
            raise AssertionError(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PoseditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
