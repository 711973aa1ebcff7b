"""Command-line entry point.

Exit codes are a stable scripting contract: 0 success, 2 config/usage,
3 training failure, 4 numeric-domain error, 5 evaluation failure.
All randomness flows from seeds named in configs; --seed overrides every
seed in one shot for reproduction runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import data as D
from . import evaluate as E
from . import transformer as M
from .checkpoint import CheckpointError, load, load_header, parse_records, save
from .distill import (
    BridgeSpec,
    DistillConfig,
    DistillError,
    check_bridge,
    check_chain,
    distill_edge,
    run_bridge,
    run_stepwise_chain,
    train_lm,
)
from .surgery import (
    SurgeryError,
    apply_transform,
    default_alpha,
    interpolate,
    invert_expand,
    plan_expand,
    plan_subset,
)
from .tokenizers import get_vocab
from .transformer import ModelConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_NUMERIC = 4
EXIT_EVAL = 5


class ConfigError(Exception):
    pass


def _load_json_arg(arg: str, what: str) -> dict:
    """Accept a path to a JSON file or an inline JSON object."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"{what}: cannot read {arg}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _seed(d: dict, path: str, seed_override: int | None) -> int:
    if seed_override is not None:
        return seed_override
    seed = d.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError(f"{path}.seed: expected an integer, got {seed!r}")
    return seed


def _model_config(d: dict, path: str) -> ModelConfig:
    try:
        return ModelConfig.from_dict(_object(d, path))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _distill_config(d: dict, path: str, seed_override: int | None) -> DistillConfig:
    _object(d, path)
    if seed_override is not None:
        d = {**d, "seed": seed_override}
    try:
        return DistillConfig.from_dict(d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _corpus_from_spec(d: dict, path: str, seed_override: int | None) -> D.Corpus:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = d["kind"]
    seed = _seed(d, path, seed_override)
    params = _object(d.get("params", {}), f"{path}.params")
    if not isinstance(params.get("alphabet", ""), str):
        raise ConfigError(f"{path}.params.alphabet: expected a string")
    try:
        if kind == "markov":
            return D.gen_markov(
                seed,
                n_docs=int(params.get("n_docs", 200)),
                doc_len=int(params.get("doc_len", 100)),
                order=int(params.get("order", 2)),
                alphabet=params.get("alphabet", "abcdefgh"),
            )
        if kind == "arithmetic":
            return D.gen_arithmetic(seed, int(params.get("n_docs", 200)), int(params.get("max_operand", 99)))
        if kind == "file":
            if not isinstance(d.get("path"), str):
                raise ConfigError(f"{path}.path: a string is required for kind 'file'")
            return D.load_text(d["path"], float(params.get("split_ratio", 0.9)), seed)
    except (OSError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e
    raise ConfigError(f"{path}.kind: unknown corpus kind {kind!r}")


def _vocab_for(name: str | None, vocab_size: int, path: str):
    if name is not None:
        vocab = get_vocab(name)
    elif vocab_size == 100:
        vocab = get_vocab("char")
    elif vocab_size == 260:
        vocab = get_vocab("byte")
    else:
        raise ConfigError(f"{path}: cannot infer tokenizer for vocab_size {vocab_size}; set 'tokenizer'")
    if vocab.size != vocab_size:
        raise ConfigError(f"{path}: tokenizer '{vocab.name}' has {vocab.size} ids, model expects {vocab_size}")
    return vocab


def _out_dir(arg: str | None) -> str:
    out = arg or os.environ.get("CBD_OUT_DIR") or "."
    if not isinstance(out, str):
        raise ConfigError(f"out_dir: expected a string, got {out!r}")
    os.makedirs(out, exist_ok=True)
    return out


# -- subcommands --------------------------------------------------------------------


def cmd_chain(args) -> int:
    """Check the whole config, then run each stage and save what it makes."""
    raw = _object(_load_json_arg(args.config, "config"), "config")
    for key in ("source", "anchors", "edges", "corpus"):
        if key not in raw:
            raise ConfigError(f"config: missing required field '{key}'")
    for key in ("anchors", "edges"):
        if not isinstance(raw[key], list):
            raise ConfigError(f"{key}: expected a list")
    anchors = [_model_config(a, f"anchors[{i}]") for i, a in enumerate(raw["anchors"])]
    edges = [_distill_config(e, f"edges[{i}]", args.seed) for i, e in enumerate(raw["edges"])]

    src = _object(raw["source"], "source")
    if ("path" in src) == ("recipe" in src):
        raise ConfigError("source: exactly one of 'path' and 'recipe' is required")
    if "path" in src:
        if not isinstance(src["path"], str):
            raise ConfigError("source.path: expected a string")
        try:
            source = load(src["path"])
        except (OSError, CheckpointError) as e:
            raise ConfigError(f"source.path: {e}") from e
        source_cfg = source.config
    else:
        recipe = _object(src["recipe"], "source.recipe")
        if "config" not in recipe:
            raise ConfigError("source.recipe.config: required")
        source_cfg = _model_config(recipe["config"], "source.recipe.config")
        source_train = _distill_config(recipe.get("train", {"steps": 500}), "source.recipe.train", args.seed)

    bridge_spec = None
    if raw.get("bridge") is not None:
        b = _object(raw["bridge"], "bridge")
        for key in ("source_tokenizer", "bridge_tokenizer", "bridge_config", "n_samples"):
            if key not in b:
                raise ConfigError(f"bridge: missing required field '{key}'")
        try:
            bridge_spec = BridgeSpec(
                source_tokenizer=b["source_tokenizer"],
                bridge_tokenizer=b["bridge_tokenizer"],
                bridge_config=_model_config(b["bridge_config"], "bridge.bridge_config"),
                n_samples=b["n_samples"],
                gen_temperature=b.get("gen_temperature", 1.0),
                gen_max_len=b.get("gen_max_len", 32),
                seed=_seed(b, "bridge", args.seed),
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bridge: {e}") from e
        bridge_train = _distill_config(b.get("train", {"steps": 1000}), "bridge.train", args.seed)
        check_bridge(bridge_spec, source_cfg)
    # the bridge, when there is one, is the first edge's teacher
    check_chain(source_cfg if bridge_spec is None else bridge_spec.bridge_config, anchors, edges)

    corpus = _corpus_from_spec(raw["corpus"], "corpus", args.seed)
    vocab = _vocab_for(raw.get("tokenizer"), anchors[0].vocab_size, "tokenizer")
    out_dir = _out_dir(args.out_dir or raw.get("out_dir"))

    if "recipe" in src:
        # a bridged chain's source lives in the source tokenizer's vocabulary
        source_vocab = vocab if bridge_spec is None else get_vocab(bridge_spec.source_tokenizer)
        source = train_lm(source_cfg, corpus, source_vocab, source_train, name="source")
        save(source, os.path.join(out_dir, "source.cbdc"))
    if bridge_spec is not None:
        source = run_bridge(bridge_spec, source, corpus, bridge_train)
        save(source, os.path.join(out_dir, "anchor-0.cbdc"))
    for idx, anchor in enumerate(run_stepwise_chain(source, anchors, edges, corpus, vocab), start=1):
        path = os.path.join(out_dir, f"anchor-{idx}.cbdc")
        save(anchor, path)
        print(f"anchor-{idx}: {path} params={M.count_params(anchor.config)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _model_config(_load_json_arg(args.model, "model"), "model")
    corpus = _corpus_from_spec(_load_json_arg(args.corpus, "corpus"), "corpus", args.seed)
    vocab = _vocab_for(args.tokenizer, config.vocab_size, "tokenizer")
    cfg = DistillConfig(steps=args.steps, batch=args.batch, seq_len=args.seq_len, lr=args.lr,
                        loss_kind="ce", seed=args.seed if args.seed is not None else 0, sft_warm_epochs=0)
    ckpt = train_lm(config, corpus, vocab, cfg, name=args.name)
    save(ckpt, args.out)
    print(f"trained {args.name}: {args.out} params={M.count_params(config)}")
    return EXIT_OK


def cmd_distill(args) -> int:
    teacher = load(args.teacher)
    student_config = _model_config(_load_json_arg(args.student_config, "student-config"), "student-config")
    corpus = _corpus_from_spec(_load_json_arg(args.corpus, "corpus"), "corpus", args.seed)
    vocab = _vocab_for(args.tokenizer, student_config.vocab_size, "tokenizer")
    cfg = DistillConfig(
        steps=args.steps, batch=args.batch, seq_len=args.seq_len, lr=args.lr,
        temperature=args.temperature, loss_kind=args.loss, seed=args.seed if args.seed is not None else 0,
        sft_warm_epochs=args.sft_epochs, init_from_teacher=not args.random_init,
    )
    student = distill_edge(teacher, student_config, corpus, vocab, cfg, name=args.name)
    save(student, args.out)
    curve = student.meta.loss_curves[-1]["losses"]
    first = curve[0] if curve else float("nan")
    last = curve[-1] if curve else float("nan")
    print(f"distilled {args.name}: {args.out} loss {first:.4f} -> {last:.4f}")
    return EXIT_OK


def _single_transform(args, kind: str) -> int:
    ckpt = load(args.input)
    target = _model_config(_load_json_arg(args.target_config, "target-config"), "target-config")
    if kind == "expand":
        plan = plan_expand(ckpt.config, target, mode=args.mode)
        print(f"expand layer_map={list(plan.layer_map)} mode={plan.replication_mode}")
        print(f"inverse subset kept={list(invert_expand(plan).layer_map)}")
    else:
        plan = plan_subset(ckpt.config, target)
        print(f"subset kept={list(plan.layer_map)}")
    out = apply_transform(ckpt, plan)
    save(out, args.out)
    print(f"wrote {args.out} params={M.count_params(target)}")
    return EXIT_OK


def cmd_expand(args) -> int:
    return _single_transform(args, "expand")


def cmd_subset(args) -> int:
    return _single_transform(args, "subset")


def cmd_interpolate(args) -> int:
    small = load(args.small)
    large = load(args.large)
    target = _model_config(_load_json_arg(args.target_config, "target-config"), "target-config")
    if args.alpha == "auto":
        alpha = default_alpha(
            M.count_params(small.config), M.count_params(large.config), M.count_params(target)
        )
    else:
        try:
            alpha = float(args.alpha)
        except ValueError as e:
            raise ConfigError(f"--alpha: {args.alpha!r} is not a number or 'auto'") from e
        if not 0.0 <= alpha <= 1.0:
            print(f"error: alpha {alpha} out of [0, 1]", file=sys.stderr)
            return EXIT_NUMERIC
    out = interpolate(small, large, target, alpha, mode=args.mode)
    save(out, args.out)
    print(f"alpha={alpha:.6g}")
    print(f"wrote {args.out} params={M.count_params(target)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load(args.checkpoint)
    corpus = _corpus_from_spec(_load_json_arg(args.corpus, "corpus"), "corpus", args.seed)
    vocab = _vocab_for(args.tokenizer, ckpt.config.vocab_size, "tokenizer")
    docs = corpus.val_docs if args.split == "val" else corpus.train_docs
    ppl = E.perplexity(ckpt, docs, vocab, batch=args.batch, seq_len=args.seq_len)
    report = E.EvalReport(
        name=args.name,
        curves=E.training_curves(ckpt).curves,
        metrics={"perplexity": ppl, "loss": math.log(ppl)},
        provenance={"checkpoint": args.checkpoint, "lineage": list(ckpt.meta.lineage), "split": args.split},
    )
    if args.report_prefix:
        report.write_csv(args.report_prefix + ".csv")
        report.write_json(args.report_prefix + ".json")
    print(report.summary())
    return EXIT_OK


def cmd_compare_init(args) -> int:
    cbd = load(args.cbd)
    rand = load(args.rand)
    corpus = _corpus_from_spec(_load_json_arg(args.corpus, "corpus"), "corpus", args.seed)
    vocab = _vocab_for(args.tokenizer, cbd.config.vocab_size, "tokenizer")
    cfg = DistillConfig(steps=args.steps, batch=args.batch, seq_len=args.seq_len, lr=args.lr,
                        loss_kind="ce", seed=args.seed if args.seed is not None else 0, sft_warm_epochs=0)
    ra, rb = E.compare_init(cbd, rand, corpus, vocab, cfg, eval_every=args.eval_every)
    target = rb.metrics["final_loss"]
    try:
        ra.steps_to_target = E.steps_to_target(ra.curves["cbd"], target)
        ra.speedup = E.speedup(ra.curves["cbd"], rb.curves["rand"], target)
    except E.EvalError:
        pass
    for r, label in ((ra, "cbd"), (rb, "rand")):
        if args.report_prefix:
            r.write_csv(f"{args.report_prefix}-{label}.csv")
            r.write_json(f"{args.report_prefix}-{label}.json")
        print(r.summary())
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    small = load(args.small)
    large = load(args.large)
    target = _model_config(_load_json_arg(args.target_config, "target-config"), "target-config")
    corpus = _corpus_from_spec(_load_json_arg(args.corpus, "corpus"), "corpus", args.seed)
    vocab = _vocab_for(args.tokenizer, target.vocab_size, "tokenizer")
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError as e:
        raise ConfigError(f"--alphas: {e}") from e
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        print("error: alphas must lie in [0, 1]", file=sys.stderr)
        return EXIT_NUMERIC
    report = E.alpha_sweep(small, large, target, alphas, corpus, vocab,
                           batch=args.batch, seq_len=args.seq_len)
    if args.report_prefix:
        report.write_csv(args.report_prefix + ".csv")
        report.write_json(args.report_prefix + ".json")
    print(report.summary())
    return EXIT_OK


def cmd_inspect(args) -> int:
    header = load_header(args.checkpoint)
    config, meta = parse_records(header)
    print(f"config: {json.dumps(header['config'], sort_keys=True)}")
    print(f"params: {M.count_params(config)}")
    print(f"name: {meta.name}  seed: {meta.seed}  steps: {meta.step_count}")
    print("lineage:")
    for entry in meta.lineage:
        print(f"  - {entry}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _add_corpus_args(p, tokenizer=True):
    p.add_argument("--corpus", required=True, help="corpus spec: JSON file or inline JSON")
    if tokenizer:
        p.add_argument("--tokenizer", choices=["byte", "char"], default=None)


def _add_train_args(p):
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=48)
    p.add_argument("--lr", type=float, default=1e-3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainkd", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override every configured seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="build a distillation chain from a config file")
    p.add_argument("config")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("train", help="train a model from scratch by cross-entropy")
    p.add_argument("--model", required=True)
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--name", default="trained")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("distill", help="distill one edge: teacher -> student config")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student-config", required=True)
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--loss", choices=["reverse_kl", "forward_kl", "ce"], default="reverse_kl")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--sft-epochs", type=int, default=1)
    p.add_argument("--random-init", action="store_true", help="ablation: random student init")
    p.add_argument("--name", default="student")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("expand", help="grow a checkpoint into a larger config")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--mode", choices=["copy", "identity"], default="copy")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("subset", help="shrink a checkpoint into a smaller config")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_subset)

    p = sub.add_parser("interpolate", help="initialize a target between two anchors")
    p.add_argument("--small", required=True)
    p.add_argument("--large", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--alpha", default="auto", help="convex weight for the small anchor, or 'auto'")
    p.add_argument("--mode", choices=["copy", "identity"], default="copy")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True)
    _add_corpus_args(p)
    p.add_argument("--split", choices=["train", "val"], default="val")
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=48)
    p.add_argument("--name", default="eval")
    p.add_argument("--report-prefix", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare-init", help="train two inits identically and compare curves")
    p.add_argument("--cbd", required=True)
    p.add_argument("--rand", required=True)
    _add_corpus_args(p)
    _add_train_args(p)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument("--report-prefix", default=None)
    p.set_defaults(fn=cmd_compare_init)

    p = sub.add_parser("sweep-alpha", help="step-0 loss of the interpolated target per alpha")
    p.add_argument("--small", required=True)
    p.add_argument("--large", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    _add_corpus_args(p)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=48)
    p.add_argument("--report-prefix", default=None)
    p.set_defaults(fn=cmd_sweep_alpha)

    p = sub.add_parser("inspect", help="print config, parameter count, and lineage")
    p.add_argument("checkpoint")
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, SurgeryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DistillError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except E.EvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
