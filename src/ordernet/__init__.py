"""Neural sentence ordering with a pointer network.

The package covers the full pipeline: corpus ingestion and shuffled-instance
construction, three sentence encoders on a from-scratch reverse-mode autodiff
engine, a pointer-network decoder with greedy/beam/exhaustive search, order
metrics, AdaGrad training with deterministic checkpoints, and word-level
saliency reports.
"""

from .autodiff import Graph, Param, Tensor, grad_check
from .corpus import (
    Corpus,
    Document,
    Instance,
    Vocab,
    build_instances,
    build_vocab,
    ingest_corpus,
    load_pretrained_embeddings,
    make_instance,
    stable_seed,
    tokenize,
)
from .decoding import beam_decode, exhaustive_decode, greedy_decode, oracle_in_beam
from .encoders import EncoderConfig, LstmCell, lstm_step
from .errors import OrdernetError
from .metrics import MetricsReport, aggregate, head_tail, lsr_scores, pm_scores, pmr
from .model import (
    START,
    Order,
    PtrNetParams,
    advance_decoder,
    batch_loss,
    decode_step,
    encode_document,
    saliency,
    sequence_log_prob,
)
from .training import (
    AdaGradState,
    Model,
    TrainConfig,
    adagrad_step,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    train,
    train_epoch,
)

__version__ = "0.1.0"
