"""Deterministic toolkit for text-driven pose-video editing.

The pieces compose left to right: a structured answer selects an action clip
from a labeled pose database (cosine retrieval), detections pick which people
in the source clip to edit (greedy IoU assignment), each matched person is
replaced by the retrieved clip after first-frame similarity alignment, and the
attention-blending and diffusion-stepping utilities cover the generation-side
arithmetic.  Everything model-shaped is ingested from files.
"""

from .blending import (
    AttentionStack,
    BlendStepRecord,
    CrossAttentionMap,
    Mask,
    SpatialMap,
    blend_step,
    parse_attention_stack,
    run_blend_schedule_with_masks,
    threshold_mask,
)
from .config import PipelineConfig, make_config, parse_pipeline_config
from .ddim import (
    LatentState,
    ddim_denoise_step,
    ddim_invert_step,
    linear_predictor,
    make_schedule,
    sample_with_blend,
)
from .editor import (
    Assignment,
    DetectionSet,
    alignment_transforms,
    assign_detections,
    edit_pose_video,
    out_of_bounds_detections,
    parse_detections,
    resample_video,
)
from .errors import (
    DatabaseError,
    GeometryError,
    ParseError,
    PoseditError,
    ShapeError,
    StageError,
)
from .metrics import (
    MetricCase,
    VideoEmbeddingRecord,
    gt_con,
    parse_metric_cases,
    prompt_hit,
    vid_acc,
    vid_con,
)
from .pipeline import AnswerRecord, parse_answer
from .pose_model import (
    PoseFrame,
    PoseInstance,
    PoseVideo,
    parse_pose_video,
    serialize_pose_video,
)
from .procrustes import (
    KeypointSet,
    SimilarityTransform2D,
    apply_transform,
    residual,
    solve_similarity,
)
from .retrieval import (
    EmbeddingVector,
    PoseDbEntry,
    build_index,
    cosine,
    parse_db_manifest,
    parse_embedding,
    query,
)

__version__ = "0.1.0"
