"""Knowledge-grounded multimodal learning at desk scale.

A small, fully deterministic stack: a float64 autodiff core, a knowledge
graph encoder, cosine retrieval, gated fusion with a task adaptor,
contrastive alignment pretraining, a two-stage trainer with bit-exact
checkpoints, and a synthetic ablation benchmark.
"""

from .config import ConfigError, TrainConfig, WorldConfig, parse_config
from .data import Batch, DataError, Example, collate, read_examples, write_examples
from .encoders import EncoderParams, encode_visual, fuse_multimodal
from .fusion import (
    AdaptorParams,
    FreezePolicy,
    GateParams,
    adapt_task,
    apply_freeze_policy,
    gate_integrate,
)
from .gnn import GnnParams, encode_knowledge, gnn_layer
from .kg import (
    KnowledgeGraph,
    TripleParseError,
    build_graph,
    load_triples,
    parse_triples,
    save_triples,
    serialize_triples,
    subgraph_stats,
)
from .losses import (
    LossConfig,
    align_loss_batch,
    loss_align,
    loss_cls,
    loss_gen,
    loss_total,
)
from .model import ModelParams, init_model
from .optim import AdamState, adam_step
from .retrieval import (
    RetrievalResult,
    cosine_scores,
    retrieve_top1,
    retrieve_topk,
    sample_negatives_batch,
    topk_indices,
)
from .rng import Rng, derive_seed
from .synthbench import (
    AblationRow,
    World,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)
from .tensor import Tape, Tensor, backward, fd_check
from .trainer import (
    PipelineVariant,
    TrainerState,
    collate_dataset,
    evaluate,
    finetune_epoch,
    load_state,
    make_run,
    pretrain_epoch,
    save_state,
    start_stage,
)

__version__ = "0.1.0"
