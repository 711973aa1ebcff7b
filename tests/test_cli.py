import copy
import json
import struct

import numpy as np
import pytest

from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta, load, save
from chainkd.cli import main
from chainkd.surgery import apply_transform, default_alpha, plan_expand
from chainkd.tensor import Tensor
from chainkd.transformer import ModelConfig


SMALL = {"n_layers": 1, "n_heads": 1, "head_dim": 4, "d_model": 8, "d_ff": 16,
         "vocab_size": 100, "max_seq_len": 32, "tied_lm_head": True}
MID = {**SMALL, "n_layers": 2, "n_heads": 2, "d_model": 12, "d_ff": 24}
BIG = {**SMALL, "n_layers": 3, "n_heads": 2, "d_model": 16, "d_ff": 32}

CORPUS = {"kind": "markov", "seed": 3, "params": {"n_docs": 40, "doc_len": 50, "order": 1, "alphabet": "abcd"}}


def write_ckpt(path, config_dict, seed, name):
    config = ModelConfig.from_dict(config_dict)
    save(Checkpoint(config, M.init_random(config, seed), Meta(name=name, seed=seed)), str(path))


def chain_config(out_dir):
    return {
        "source": {"recipe": {"config": BIG, "train": {"steps": 20, "seq_len": 24, "seed": 1}}},
        "anchors": [MID, SMALL],
        "edges": [
            {"steps": 8, "seq_len": 24, "seed": 2, "sft_warm_epochs": 0},
            {"steps": 8, "seq_len": 24, "seed": 3, "sft_warm_epochs": 0},
        ],
        "corpus": CORPUS,
        "tokenizer": "char",
        "out_dir": str(out_dir),
    }


def bridged_config(out_dir):
    """A byte-vocabulary source bridged into a one-anchor char chain."""
    byte_src = {**BIG, "n_layers": 2, "vocab_size": 260}
    bridge_cfg = {**SMALL, "n_heads": 2, "d_model": 12, "d_ff": 24}
    return {
        "source": {"recipe": {"config": byte_src,
                              "train": {"steps": 15, "seq_len": 32, "seed": 1, "sft_warm_epochs": 0}}},
        "anchors": [SMALL],
        "edges": [{"steps": 6, "seq_len": 32, "seed": 2, "sft_warm_epochs": 0}],
        "bridge": {"source_tokenizer": "byte", "bridge_tokenizer": "char",
                   "bridge_config": bridge_cfg, "n_samples": 6, "gen_max_len": 8, "seed": 3,
                   "train": {"steps": 10, "seq_len": 32, "seed": 3, "sft_warm_epochs": 0}},
        "corpus": CORPUS,
        "tokenizer": "char",
        "out_dir": str(out_dir),
    }


def _char_source_byte_bridge(cfg):
    cfg["source"]["recipe"]["config"]["vocab_size"] = 100
    cfg["bridge"].update(source_tokenizer="char", bridge_tokenizer="byte")
    cfg["bridge"]["bridge_config"]["vocab_size"] = 260


# configs that used to fail only once an earlier stage had trained: each base
# config and the change that breaks it
LATE_FAILURES = {
    "edge 2 seq_len above max_seq_len": (chain_config, lambda c: c["edges"][1].update(seq_len=40)),
    "recipe max_seq_len unlike the anchors'": (
        chain_config, lambda c: c["source"]["recipe"]["config"].update(max_seq_len=48)),
    "unknown bridge tokenizer": (bridged_config, lambda c: c["bridge"].update(bridge_tokenizer="chars")),
    "bridge vocab unlike the anchors'": (bridged_config, _char_source_byte_bridge),
    "gen_temperature 0": (bridged_config, lambda c: c["bridge"].update(gen_temperature=0)),
    "gen_max_len fills the source context": (bridged_config, lambda c: c["bridge"].update(gen_max_len=40)),
}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
def test_chain_config_checked_before_training(tmp_path, capsys, case):
    base, mutate = LATE_FAILURES[case]
    out = tmp_path / "out"
    cfg = copy.deepcopy(base(out))  # the base configs share the module's model dicts
    mutate(cfg)
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["chain", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not list(out.iterdir())


class TestChainCommand:
    def test_valid_config_produces_anchor_files(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(chain_config(out)))
        assert main(["chain", str(cfg_path)]) == 0
        assert (out / "anchor-1.cbdc").exists()
        assert (out / "anchor-2.cbdc").exists()
        assert (out / "source.cbdc").exists()

    def test_rerun_bitwise_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            cfg_path = tmp_path / f"chain-{out.name}.json"
            cfg_path.write_text(json.dumps(chain_config(out)))
            assert main(["chain", str(cfg_path)]) == 0
        for name in ("anchor-1.cbdc", "anchor-2.cbdc"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_json_exit_2_with_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"source": {,}')
        assert main(["chain", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_field_exit_2_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg = chain_config(tmp_path / "out")
        del cfg["edges"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 2
        assert "edges" in capsys.readouterr().err

    def test_growing_anchors_exit_2(self, tmp_path, capsys):
        cfg = chain_config(tmp_path / "out")
        cfg["anchors"] = [SMALL, MID]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 2

    def test_divergent_edge_2_keeps_anchor_1(self, tmp_path, capsys):
        clean, failed = tmp_path / "clean", tmp_path / "failed"
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(chain_config(clean)))
        assert main(["chain", str(cfg_path)]) == 0
        cfg = chain_config(failed)
        cfg["edges"][1].update(lr=1e30, grad_clip=None)
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["chain", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith("error: edge 2 ")
        assert sorted(f.name for f in failed.iterdir()) == ["anchor-1.cbdc", "source.cbdc"]
        assert (failed / "anchor-1.cbdc").read_bytes() == (clean / "anchor-1.cbdc").read_bytes()

    def test_negative_grad_clip_exit_2_named(self, tmp_path, capsys):
        cfg = chain_config(tmp_path / "out")
        cfg["edges"][1]["grad_clip"] = -1
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 2
        assert "grad_clip" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()



def _train_argv(tmp_path, model=SMALL, corpus=CORPUS):
    return ["train", "--model", json.dumps(model), "--corpus", json.dumps(corpus), "--tokenizer", "char",
            "--steps", "1", "--out", str(tmp_path / "m.cbdc")]


def _chain_argv(tmp_path, **updates):
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps({**chain_config(tmp_path / "out"), **updates}))
    return ["chain", str(cfg_path)]


def _edges_with(i, **update):
    edges = chain_config("out")["edges"]
    edges[i] = {**edges[i], **update}
    return edges


# each malformed spec, and the start of the error line that must name its field
MALFORMED_SPECS = {
    "corpus params a list": (lambda t: _train_argv(t, corpus={**CORPUS, "params": [1]}), "corpus.params:"),
    "corpus seed null": (lambda t: _train_argv(t, corpus={**CORPUS, "seed": None}), "corpus.seed:"),
    "markov alphabet an int": (lambda t: _train_argv(
        t, corpus={**CORPUS, "params": {**CORPUS["params"], "alphabet": 5}}), "corpus.params.alphabet:"),
    "file path an int": (lambda t: _train_argv(t, corpus={"kind": "file", "path": 0}), "corpus.path:"),
    "model size a float": (lambda t: _train_argv(t, model={**SMALL, "n_layers": 1.5}),
                           "model: ModelConfig.n_layers"),
    "chain source an int": (lambda t: _chain_argv(t, source=5), "source:"),
    "chain recipe an int": (lambda t: _chain_argv(t, source={"recipe": 5}), "source.recipe:"),
    "chain source path an int": (lambda t: _chain_argv(t, source={"path": 0}), "source.path: expected a string"),
    "chain bridge an int": (lambda t: _chain_argv(t, bridge=5), "bridge:"),
    "chain out_dir an int": (lambda t: _chain_argv(t, out_dir=5), "out_dir:"),
    "chain anchors an int": (lambda t: _chain_argv(t, anchors=5), "anchors:"),
    "chain anchor size a float": (lambda t: _chain_argv(t, anchors=[{**MID, "d_model": 12.0}, SMALL]),
                                  "anchors[0]: ModelConfig.d_model"),
    "chain edge seed a float": (lambda t: _chain_argv(t, edges=_edges_with(1, seed=2.5)),
                                "edges[1]: DistillConfig.seed"),
    "chain edge init_from_teacher a string": (lambda t: _chain_argv(t, edges=_edges_with(0, init_from_teacher="no")),
                                              "edges[0]: DistillConfig.init_from_teacher"),
    "chain bridge n_samples a float": (lambda t: _chain_argv(t, bridge={**bridged_config(t)["bridge"], "n_samples": 2.5}),
                                       "bridge: BridgeSpec.n_samples"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_exit_2_named(tmp_path, capsys, case):
    argv, field = MALFORMED_SPECS[case]
    assert main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")

class TestBridgedChain:
    def test_bridge_produces_anchor_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = bridged_config(out)
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 0
        assert (out / "anchor-0.cbdc").exists()
        bridge = load(str(out / "anchor-0.cbdc"))
        assert bridge.config.vocab_size == 100
        assert any("byte->char" in entry for entry in bridge.meta.lineage)
        anchor = load(str(out / "anchor-1.cbdc"))
        assert any("anchor-0" in entry for entry in anchor.meta.lineage)

    def test_equal_bridge_tokenizers_rejected(self, tmp_path):
        cfg = chain_config(tmp_path / "out")
        cfg["bridge"] = {"source_tokenizer": "char", "bridge_tokenizer": "char",
                         "bridge_config": SMALL, "n_samples": 4}
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 2


class TestSurgeryCommands:
    def test_expand_then_subset_roundtrip(self, tmp_path):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, SMALL, 7, "src")
        expanded = tmp_path / "big.cbdc"
        assert main(["expand", "--in", str(src), "--target-config", json.dumps(MID),
                     "--out", str(expanded)]) == 0
        back = tmp_path / "back.cbdc"
        assert main(["subset", "--in", str(expanded), "--target-config", json.dumps(SMALL),
                     "--out", str(back)]) == 0
        a, b = load(str(src)), load(str(back))
        for k in a.params:
            assert a.params[k].data.tobytes() == b.params[k].data.tobytes()

    def test_identity_mode_logged_in_lineage(self, tmp_path):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, SMALL, 7, "src")
        out = tmp_path / "big.cbdc"
        assert main(["expand", "--in", str(src), "--target-config", json.dumps(MID),
                     "--mode", "identity", "--out", str(out)]) == 0
        assert any("identity" in entry for entry in load(str(out)).meta.lineage)

    def test_subset_to_one_layer(self, tmp_path, capsys):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, BIG, 7, "src")
        out = tmp_path / "one.cbdc"
        one = {**SMALL, "d_model": 16, "d_ff": 32, "n_heads": 2}
        assert main(["subset", "--in", str(src), "--target-config", json.dumps(one),
                     "--out", str(out)]) == 0
        assert "kept=[0]" in capsys.readouterr().out
        assert load(str(out)).config.n_layers == 1

    def test_non_finite_payload_exit_2(self, tmp_path, capsys):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, MID, 7, "src")
        raw = bytearray(src.read_bytes())
        raw[-4:] = np.float32("nan").tobytes()  # the last value of the last tensor
        src.write_bytes(bytes(raw))
        assert main(["subset", "--in", str(src), "--target-config", json.dumps(SMALL),
                     "--out", str(tmp_path / "x.cbdc")]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    def test_invalid_direction_exit_2(self, tmp_path):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, MID, 7, "src")
        assert main(["expand", "--in", str(src), "--target-config", json.dumps(SMALL),
                     "--out", str(tmp_path / "x.cbdc")]) == 2


class TestInterpolateCommand:
    def setup_pair(self, tmp_path):
        small, large = tmp_path / "s.cbdc", tmp_path / "l.cbdc"
        write_ckpt(small, SMALL, 1, "s")
        write_ckpt(large, BIG, 2, "l")
        return small, large

    def test_alpha_one_equals_expand(self, tmp_path):
        small, large = self.setup_pair(tmp_path)
        out = tmp_path / "t.cbdc"
        assert main(["interpolate", "--small", str(small), "--large", str(large),
                     "--target-config", json.dumps(MID), "--alpha", "1", "--out", str(out)]) == 0
        got = load(str(out))
        ref = apply_transform(load(str(small)), plan_expand(ModelConfig.from_dict(SMALL), ModelConfig.from_dict(MID)))
        for k in ref.params:
            assert got.params[k].data.tobytes() == ref.params[k].data.tobytes()

    def test_auto_alpha_printed_matches_formula(self, tmp_path, capsys):
        small, large = self.setup_pair(tmp_path)
        out = tmp_path / "t.cbdc"
        assert main(["interpolate", "--small", str(small), "--large", str(large),
                     "--target-config", json.dumps(MID), "--alpha", "auto", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        expected = default_alpha(
            M.count_params(ModelConfig.from_dict(SMALL)),
            M.count_params(ModelConfig.from_dict(BIG)),
            M.count_params(ModelConfig.from_dict(MID)),
        )
        assert f"alpha={expected:.6g}" in printed

    def test_non_nested_target_exit_2(self, tmp_path):
        small, large = self.setup_pair(tmp_path)
        outside = {**BIG, "n_layers": 9}
        assert main(["interpolate", "--small", str(small), "--large", str(large),
                     "--target-config", json.dumps(outside), "--alpha", "0.5",
                     "--out", str(tmp_path / "t.cbdc")]) == 2

    def test_alpha_out_of_range_exit_4(self, tmp_path):
        small, large = self.setup_pair(tmp_path)
        assert main(["interpolate", "--small", str(small), "--large", str(large),
                     "--target-config", json.dumps(MID), "--alpha", "1.5",
                     "--out", str(tmp_path / "t.cbdc")]) == 4


class TestEvalCommands:
    def test_inspect_prints_param_count(self, tmp_path, capsys):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, MID, 7, "mid")
        assert main(["inspect", str(src)]) == 0
        out = capsys.readouterr().out
        assert f"params: {M.count_params(ModelConfig.from_dict(MID))}" in out
        assert "lineage:" in out

    @pytest.mark.parametrize("key,value", [("config", "zz"), ("config", {"n_layers": 1}), ("meta", "zz"),
                                           ("config", {**MID, "n_layers": 1.5})])
    def test_inspect_bad_header_exit_2(self, tmp_path, capsys, key, value):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, MID, 7, "mid")
        raw = src.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = {**json.loads(raw[16 : 16 + hlen]), key: value}
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        src.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        assert main(["inspect", str(src)]) == 2
        err = capsys.readouterr().err
        assert f"invalid {key} record" in err and "Traceback" not in err

    def test_eval_reports_perplexity(self, tmp_path, capsys):
        src = tmp_path / "src.cbdc"
        write_ckpt(src, SMALL, 7, "s")
        prefix = str(tmp_path / "report")
        assert main(["eval", "--checkpoint", str(src), "--corpus", json.dumps(CORPUS),
                     "--seq-len", "24", "--report-prefix", prefix]) == 0
        assert "perplexity" in capsys.readouterr().out
        assert (tmp_path / "report.json").exists()

    def test_compare_init_step0_rows_match(self, tmp_path, capsys):
        a, b = tmp_path / "a.cbdc", tmp_path / "b.cbdc"
        write_ckpt(a, SMALL, 1, "a")
        write_ckpt(b, SMALL, 2, "b")
        prefix = str(tmp_path / "cmp")
        assert main(["compare-init", "--cbd", str(a), "--rand", str(b), "--corpus", json.dumps(CORPUS),
                     "--steps", "10", "--seq-len", "24", "--eval-every", "5",
                     "--report-prefix", prefix]) == 0
        import csv

        with open(prefix + "-cbd.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["run"] == "cbd" and r["step"] == "0"]
        with open(prefix + "-cbd.json") as fh:
            metrics = json.load(fh)["metrics"]
        assert len(rows) == 1
        assert float(rows[0]["loss"]) == metrics["step0_loss"]

    def test_compare_init_eval_every_zero_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.cbdc", tmp_path / "b.cbdc"
        write_ckpt(a, SMALL, 1, "a")
        write_ckpt(b, SMALL, 2, "b")
        assert main(["compare-init", "--cbd", str(a), "--rand", str(b), "--corpus", json.dumps(CORPUS),
                     "--steps", "2", "--seq-len", "24", "--eval-every", "0"]) == 2
        assert "eval_every" in capsys.readouterr().err

    def test_sweep_alpha_boundaries_consistent(self, tmp_path, capsys):
        small, large = tmp_path / "s.cbdc", tmp_path / "l.cbdc"
        write_ckpt(small, SMALL, 1, "s")
        write_ckpt(large, BIG, 2, "l")
        expanded, subsetted = tmp_path / "e.cbdc", tmp_path / "u.cbdc"
        assert main(["expand", "--in", str(small), "--target-config", json.dumps(MID),
                     "--out", str(expanded)]) == 0
        assert main(["subset", "--in", str(large), "--target-config", json.dumps(MID),
                     "--out", str(subsetted)]) == 0
        capsys.readouterr()
        prefix = str(tmp_path / "sweep")
        assert main(["sweep-alpha", "--small", str(small), "--large", str(large),
                     "--target-config", json.dumps(MID), "--alphas", "0,1",
                     "--corpus", json.dumps(CORPUS), "--seq-len", "24",
                     "--report-prefix", prefix]) == 0
        with open(prefix + ".json") as fh:
            metrics = json.load(fh)["metrics"]
        for ckpt_path, key in ((expanded, "loss@alpha=1"), (subsetted, "loss@alpha=0")):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt_path), "--corpus", json.dumps(CORPUS),
                         "--seq-len", "24"]) == 0
            out = capsys.readouterr().out
            loss = float(out.split("loss = ")[1].splitlines()[0])
            assert abs(loss - metrics[key]) < 1e-4

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["interpolate"])  # missing required flags
        assert e.value.code == 2


class TestDivergenceExit:
    def test_nan_gradient_exits_3_without_traceback(self, tmp_path, capsys):
        # the copied w1 = 1e37 keeps the loss finite but makes GELU's gradient NaN
        config = ModelConfig.from_dict(SMALL)
        params = M.init_random(config, 0)
        params["L0.ffn.w1"] = Tensor(np.full(params["L0.ffn.w1"].shape, 1e37, dtype=np.float32))
        teacher = tmp_path / "teacher.cbdc"
        save(Checkpoint(config, params, Meta(name="teacher", seed=0)), str(teacher))
        code = main(["distill", "--teacher", str(teacher), "--student-config", json.dumps(SMALL),
                     "--corpus", json.dumps(CORPUS), "--tokenizer", "char", "--loss", "ce",
                     "--steps", "3", "--batch", "2", "--seq-len", "16", "--out", str(tmp_path / "s.cbdc")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: divergence at step 1:") and "Traceback" not in err


class TestOutDirEnv:
    def test_cbd_out_dir_default(self, tmp_path, monkeypatch):
        out = tmp_path / "env-out"
        monkeypatch.setenv("CBD_OUT_DIR", str(out))
        cfg = chain_config(out)
        del cfg["out_dir"]
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["chain", str(cfg_path)]) == 0
        assert (out / "anchor-1.cbdc").exists()


class TestSeedOverride:
    def test_global_seed_changes_artifacts(self, tmp_path):
        out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
        for out, seed in ((out1, "77"), (out2, "77"), (out3, "78")):
            cfg_path = tmp_path / f"c-{out.name}.json"
            cfg_path.write_text(json.dumps(chain_config(out)))
            assert main(["--seed", seed, "chain", str(cfg_path)]) == 0
        assert (out1 / "anchor-1.cbdc").read_bytes() == (out2 / "anchor-1.cbdc").read_bytes()
        assert (out1 / "anchor-1.cbdc").read_bytes() != (out3 / "anchor-1.cbdc").read_bytes()
