"""Structural transforms between nested transformer configurations.

Expansion grows a model by layer replication plus tail zero-padding of the
width axes; subsetting shrinks one by keeping a deterministic subset of
layers and the prefix of each width axis.  The two directions use mirrored
index rules (prefix-keep vs tail-pad), which makes subset-with-inverted-plan
an exact inverse of expansion.  Interpolation blends the expanded small
anchor with the subsetted large anchor elementwise.

Width-axis conventions: the parameter-layout table in transformer.py names
the config axis of every dimension of every tensor, and each axis is resized
to the target config on its own.  Expansion pads the tail with zeros, so new
LN slots get gamma=0 and beta=0 and the padded dimensions stay silent; the
inner axis is n_heads * head_dim, so it gains whole zero heads.  Subsetting
keeps the prefix of every axis, and so the prefix heads.

In identity replication mode every non-first occurrence of a source layer
has wo/bo and ffn.w2/b2 zeroed, so the replica is the identity on the
residual stream and depth growth preserves the computed function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, Meta
from .tensor import Tensor
from .transformer import LAYER_AXES, ModelConfig, ParamSet, param_shapes, structurally_le


class SurgeryError(ValueError):
    pass


@dataclass(frozen=True)
class TransformPlan:
    kind: str  # "expand" | "subset"
    src: ModelConfig
    dst: ModelConfig
    layer_map: tuple[int, ...]
    replication_mode: str = "copy"  # "copy" | "identity"; expansion only

    def __post_init__(self):
        if self.kind not in ("expand", "subset"):
            raise SurgeryError(f"unknown plan kind {self.kind!r}")
        if self.replication_mode not in ("copy", "identity"):
            raise SurgeryError(f"unknown replication mode {self.replication_mode!r}")
        if self.kind == "expand":
            if len(self.layer_map) != self.dst.n_layers:
                raise SurgeryError("expansion layer_map length must equal dst.n_layers")
            if any(b < a for a, b in zip(self.layer_map, self.layer_map[1:])):
                raise SurgeryError("expansion layer_map must be non-decreasing")
            if set(self.layer_map) != set(range(self.src.n_layers)):
                raise SurgeryError("expansion layer_map must be surjective onto source layers")
        else:
            if len(self.layer_map) != self.dst.n_layers:
                raise SurgeryError("subset kept-indices length must equal dst.n_layers")
            if any(b <= a for a, b in zip(self.layer_map, self.layer_map[1:])):
                raise SurgeryError("subset kept-indices must be strictly increasing")
            if self.layer_map and not (0 <= self.layer_map[0] and self.layer_map[-1] < self.src.n_layers):
                raise SurgeryError("subset kept-indices out of range")


def plan_expand(src: ModelConfig, dst: ModelConfig, mode: str = "copy") -> TransformPlan:
    """layer_map[i] = floor(i * src.n_layers / dst.n_layers); widths tail-padded."""
    if not structurally_le(src, dst):
        raise SurgeryError("plan_expand requires src structurally <= dst")
    layer_map = tuple(i * src.n_layers // dst.n_layers for i in range(dst.n_layers))
    return TransformPlan(kind="expand", src=src, dst=dst, layer_map=layer_map, replication_mode=mode)


def plan_subset(src: ModelConfig, dst: ModelConfig) -> TransformPlan:
    """Evenly spaced kept layers with both endpoints; a single target layer
    keeps layer 0.  Rounding is half-up so the rule is platform-stable."""
    if not structurally_le(dst, src):
        raise SurgeryError("plan_subset requires dst structurally <= src")
    if dst.n_layers == 1:
        kept = (0,)
    else:
        span = (src.n_layers - 1) / (dst.n_layers - 1)
        kept = tuple(int(math.floor(j * span + 0.5)) for j in range(dst.n_layers))
    return TransformPlan(kind="subset", src=src, dst=dst, layer_map=kept)


def invert_expand(plan: TransformPlan) -> TransformPlan:
    """Subset plan keeping the first target occurrence of every source layer;
    prefix-keep mirrors the expansion's tail-padding, so applying both is the
    identity on the original checkpoint."""
    if plan.kind != "expand":
        raise SurgeryError("invert_expand expects an expansion plan")
    first = {}
    for i, j in enumerate(plan.layer_map):
        if j not in first:
            first[j] = i
    kept = tuple(first[j] for j in range(plan.src.n_layers))
    return TransformPlan(kind="subset", src=plan.dst, dst=plan.src, layer_map=kept)


def _resize(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Keep the prefix of every axis longer than `shape` and zero-pad the tail
    of every shorter one: the subset and expansion rules, mirrored."""
    kept = arr[tuple(slice(0, n) for n in shape)]
    if kept.shape == shape:
        return kept
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(slice(0, n) for n in kept.shape)] = kept
    return out


# tensors zeroed on non-first replicas so the block is the residual identity
_IDENTITY_ZEROED = ("attn.wo", "attn.bo", "ffn.w2", "ffn.b2")


def apply_transform(ckpt: Checkpoint, plan: TransformPlan) -> Checkpoint:
    if ckpt.config != plan.src:
        raise SurgeryError("checkpoint config does not match the plan's source config")
    ckpt.validate()
    source: dict[str, str] = {}  # target layer tensor -> the source tensor it comes from
    zeroed: set[str] = set()
    for i, j in enumerate(plan.layer_map):
        # only expansion repeats a source layer; subset plans keep each one once
        replica = plan.replication_mode == "identity" and j in plan.layer_map[:i]
        for suffix in LAYER_AXES:
            source[f"L{i}.{suffix}"] = f"L{j}.{suffix}"
            if replica and suffix in _IDENTITY_ZEROED:
                zeroed.add(f"L{i}.{suffix}")

    dtype = ckpt.params["embed.tok"].dtype.type
    out: ParamSet = {}
    for name, shape in param_shapes(plan.dst).items():
        arr = np.zeros(shape, dtype) if name in zeroed else _resize(ckpt.params[source.get(name, name)].data, shape)
        out[name] = Tensor(arr, dtype=dtype)

    stage = (
        f"{plan.kind}:{plan.replication_mode} {plan.src.n_layers}x{plan.src.d_model}"
        f"->{plan.dst.n_layers}x{plan.dst.d_model} from={ckpt.meta.name}"
        if plan.kind == "expand"
        else f"subset {plan.src.n_layers}x{plan.src.d_model}->{plan.dst.n_layers}x{plan.dst.d_model}"
        f" kept={list(plan.layer_map)} from={ckpt.meta.name}"
    )
    result = Checkpoint(config=plan.dst, params=out, meta=ckpt.meta.child(stage))
    result.validate()
    return result


def default_alpha(p_small: int, p_large: int, p_target: int) -> float:
    """Convex weight for the smaller anchor from relative distance in
    parameter count, clamped to [0, 1]."""
    if p_small >= p_large:
        raise SurgeryError("default_alpha requires p_small < p_large")
    alpha = (p_large - p_target) / (p_large - p_small)
    return min(1.0, max(0.0, alpha))


def interpolate(
    small: Checkpoint,
    large: Checkpoint,
    dst_config: ModelConfig,
    alpha: float,
    mode: str = "copy",
) -> Checkpoint:
    """Blend alpha * expand(small) + (1 - alpha) * subset(large) per tensor.
    alpha=1 / alpha=0 return the pure transform bitwise."""
    if not (0.0 <= alpha <= 1.0):
        raise SurgeryError(f"alpha {alpha} out of [0, 1]")
    if not structurally_le(small.config, dst_config) or not structurally_le(dst_config, large.config):
        raise SurgeryError("configs must nest: small <= target <= large")
    expanded = apply_transform(small, plan_expand(small.config, dst_config, mode=mode))
    subsetted = apply_transform(large, plan_subset(large.config, dst_config))
    stage = f"interpolated alpha={alpha:.6g} between {small.meta.name},{large.meta.name}"
    if alpha == 1.0:
        return Checkpoint(dst_config, expanded.params, expanded.meta.child(stage))
    if alpha == 0.0:
        return Checkpoint(dst_config, subsetted.params, subsetted.meta.child(stage))
    dtype = expanded.params["embed.tok"].dtype.type
    a = np.asarray(alpha, dtype=dtype)
    blended: ParamSet = {
        name: Tensor(a * expanded.params[name].data + (1 - a) * subsetted.params[name].data, dtype=dtype)
        for name in expanded.params
    }
    meta = Meta(
        name=f"interp-a{alpha:.3g}",
        seed=small.meta.seed,
        step_count=0,
        lineage=small.meta.lineage + large.meta.lineage + [stage],
    )
    return Checkpoint(dst_config, blended, meta)

