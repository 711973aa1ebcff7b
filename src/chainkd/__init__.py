"""Stepwise distillation chains and weight-interpolation initialization for
small decoder-only language models."""

from .checkpoint import Checkpoint, Meta, load, load_header, save
from .data import Corpus, gen_arithmetic, gen_markov, load_text
from .distill import (
    BridgeSpec,
    DistillConfig,
    check_chain,
    distill_edge,
    forward_kl_loss,
    reverse_kl_loss,
    run_bridge,
    run_direct_distill,
    run_stepwise_chain,
    seqkd_generate,
    train_lm,
)
from .evaluate import (
    EvalReport,
    alpha_sweep,
    compare_init,
    perplexity,
    rouge_l,
    speedup,
    steps_to_target,
)
from .surgery import (
    TransformPlan,
    apply_transform,
    default_alpha,
    interpolate,
    invert_expand,
    plan_expand,
    plan_subset,
)
from .tensor import GradTape, Tensor, grad_check, value_and_grad
from .tokenizers import Vocabulary, byte_vocab, char_vocab, decode, encode
from .transformer import ModelConfig, count_params, forward, init_random, loss_ce, sample

__version__ = "0.1.0"
