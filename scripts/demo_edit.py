#!/usr/bin/env python3
"""Walk one editing bundle through the full pipeline and narrate each stage.

Points at a bundle directory of the shape used under tests/fixtures/ (source
pose video, first-frame detections, a structured answer file, a labeled clip
database, and a precomputed query embedding) and shows what the pipeline does
with it: the retrieval ranking, the detection-to-person assignment, the
per-person alignment transforms, and where the edited clip landed.

    python3 scripts/demo_edit.py tests/fixtures/e2e_girl_dance /tmp/demo_out
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from posedit.config import make_config
from posedit.pipeline import run_edit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bundle", help="bundle directory (source.json, detections.json, ...)")
    ap.add_argument("out_dir", help="directory for the edited clip and report")
    ap.add_argument("--top-k", type=int, help="edited variants to emit")
    ap.add_argument("--frames", type=int, help="output frame count")
    args = ap.parse_args()

    config = make_config(
        {
            "source": os.path.join(args.bundle, "source.json"),
            "detections": os.path.join(args.bundle, "detections.json"),
            "answer": os.path.join(args.bundle, "answer.txt"),
            "db": os.path.join(args.bundle, "db", "manifest.json"),
            "query_embedding": os.path.join(args.bundle, "query.json"),
            "out_dir": args.out_dir,
        },
        {"top_k": args.top_k, "frame_count": args.frames},
    )
    report = run_edit(config)

    answer = report["answer"]
    print(f"answer: {answer['subject']!r} should {answer['action']!r}")
    print(f"output frames: {report['frame_count']}")

    print("\nretrieval ranking:")
    for row in report["retrieved"]:
        print(f"  {row['rank']}. {row['entry_id']} ({row['label']}) "
              f"score={row['score']:.6f} -> {row['output']}")

    print("\nassignment:")
    for pair in report["assignment"]["pairs"]:
        print(f"  detection {pair['detection']} ({pair['phrase']!r}) "
              f"-> instance {pair['instance_id']}")
    for inst in report["assignment"]["unmatched_instances"]:
        print(f"  instance {inst} left untouched")

    print("\nalignment transforms (per matched instance):")
    for row in report["retrieved"]:
        for inst_id, tr in row["transforms"].items():
            print(f"  {row['entry_id']} -> instance {inst_id}: "
                  f"scale={tr['scale']:.6f} theta={tr['theta']:.6f} "
                  f"t=({tr['translation'][0]:.6f}, {tr['translation'][1]:.6f})")
        for item in row.get("unaligned", ()):
            print(f"  {row['entry_id']} -> instance {item['instance_id']}: "
                  f"left untouched, {item['reason']}")

    print(f"\nwrote {args.out_dir}/: " + ", ".join(
        row["output"] for row in report["retrieved"]) + ", report.json, manifest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
