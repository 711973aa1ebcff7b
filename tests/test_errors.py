"""Every chainkd exception survives pickling with its type, message and fields.

Worker processes send their exceptions back by pickle, so an exception that
cannot be rebuilt from its pickle would turn a clear error into a TypeError.
"""

import inspect
import pickle

import pytest

import chainkd
from chainkd import checkpoint, cli, distill, evaluate, procs, surgery, tensor

SAMPLES = [
    tensor.TensorError("bad shape"),
    tensor.NonFiniteError("gelu"),
    tensor.NonFiniteError("adam_step", "the update of L0.ffn.w1"),
    checkpoint.CheckpointError("bad file"),
    checkpoint.BadMagicError("bad magic"),
    checkpoint.UnsupportedVersionError("version 9"),
    checkpoint.TruncatedDataError("short"),
    checkpoint.ShapeMismatchError("shape"),
    checkpoint.CorruptDataError("overlap"),
    surgery.SurgeryError("no plan"),
    evaluate.EvalError("no curve"),
    distill.DistillError("edge failed"),
    distill.DivergenceError(3, "x"),
    distill.InvalidConfigError("edge 2: seq_len 40 exceeds a model's max_seq_len"),
    procs._RemoteTraceback("Traceback (most recent call last):\n  ...\nValueError: task 1\n"),
    cli.ConfigError("missing field"),
]


@pytest.mark.parametrize("error", SAMPLES, ids=lambda e: f"{type(e).__name__}{e.args}")
def test_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)  # .op, .where, .step, .detail


def test_every_exception_class_is_sampled():
    modules = [getattr(chainkd, name) for name in dir(chainkd) if inspect.ismodule(getattr(chainkd, name))]
    defined = {
        obj for mod in modules for obj in vars(mod).values()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__.startswith("chainkd")
    }
    assert defined and defined <= {type(e) for e in SAMPLES}
