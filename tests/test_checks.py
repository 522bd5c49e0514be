"""The count, seed, scale and choice rules at every entry point that takes one.

A count is an ``int`` or a numpy integer, never a ``bool``, and at least the
parameter's minimum; a scale is a real number, never a ``bool`` or a string,
finite and positive; a permutation mode or graph kind is a string equal to
one of ``PERM_MODES`` or ``GRAPH_KINDS``, case included. Each entry point
rejects anything else before any work, with its own exception class and a
message that starts with the parameter's name, and accepts Python and numpy
integers at or above the minimum.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdag.cli import main
from diffdag.graphs import AdjacencyMatrix
from diffdag.gumbel import (
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
    sinkhorn_operator,
    softsort,
)
from diffdag.metrics import bench_sampling, perturbation_confidence
from diffdag.model import DpDagModel, load_checkpoint, save_checkpoint
from diffdag.semdata import GenSpec
from diffdag.training import MechanismNet, TrainConfig, fit_direct

CHAIN = AdjacencyMatrix(np.triu(np.ones((4, 4), dtype=np.int8), 1))  # 6 edges


def train_config(**kw):
    return TrainConfig(**{"max_epochs": 10**6, "val_check_every": 1, **kw})


def gen_spec(**kw):
    return GenSpec(**{"graph_kind": "sf", "n": 4, "m": 1, **kw})


def direct(**kw):
    model = DpDagModel.create(4)
    before = [p.value.copy() for p in model.parameters()]
    try:
        fit_direct(CHAIN, model, **{"steps": 1, **kw})
    except ValueError:
        assert all(np.array_equal(a, p.value) for a, p in zip(before, model.parameters())), "a step ran"
        raise


def confidence(**kw):
    perturbation_confidence(DpDagModel.create(4), CHAIN, **{"k_moved": 1, "trials": 2, **kw})


def bench(**kw):
    bench_sampling(DpDagModel.create(3), **{"repetitions": 1, "warmup": 0, **kw})


def mechanisms(**kw):
    MechanismNet(**{"n": 3, "hidden": 2, "rng": np.random.default_rng(0), **kw})


# (entry point, parameter, minimum or None for a scale, exception class,
#  largest accepted count drawn, call with the parameter set to v)
ROWS = [
    *[("TrainConfig", name, 1, ValueError, 50, lambda v, name=name: train_config(**{name: v}))
      for name in ("hidden", "sinkhorn_iters", "batch_size", "max_epochs", "patience", "val_check_every")],
    ("TrainConfig", "seed", 0, ValueError, 2**32 - 1, lambda v: train_config(seed=v)),
    ("TrainConfig", "learning_rate", None, ValueError, None, lambda v: train_config(learning_rate=v)),
    ("TrainConfig", "temperature", None, ValueError, None, lambda v: train_config(temperature=v)),
    ("GenSpec", "n", 2, ValueError, 50, lambda v: gen_spec(n=v)),
    ("GenSpec", "m", 1, ValueError, 50, lambda v: gen_spec(n=11, m=v)),  # 55 edges fit on 11 nodes
    ("GenSpec", "N", 3, ValueError, 10**6, lambda v: gen_spec(N=v)),
    ("GenSpec", "seed", 0, ValueError, 2**32 - 1, lambda v: gen_spec(seed=v)),
    ("GenSpec", "noise_std", None, ValueError, None, lambda v: gen_spec(noise_std=v)),
    ("GenSpec", "root_std", None, ValueError, None, lambda v: gen_spec(root_std=v)),
    ("EdgeParams", "n", 0, ParameterError, 20, lambda v: EdgeParams(n=v)),
    ("EdgeParams", "temperature", None, ParameterError, None, lambda v: EdgeParams(n=3, temperature=v)),
    ("PermutationParams", "n", 0, ParameterError, 20, lambda v: PermutationParams(n=v, mode=TOPK)),
    ("PermutationParams", "temperature", None, ParameterError, None,
     lambda v: PermutationParams(n=3, temperature=v)),
    ("PermutationParams", "sinkhorn_iters", 1, ParameterError, 10**6,
     lambda v: PermutationParams(n=3, sinkhorn_iters=v)),
    ("sinkhorn_operator", "iters", 1, ParameterError, 50, lambda v: sinkhorn_operator(np.zeros((3, 3)), iters=v)),
    ("sinkhorn_operator", "tau", None, ParameterError, None, lambda v: sinkhorn_operator(np.eye(3), tau=v)),
    ("softsort", "tau", None, ParameterError, None, lambda v: softsort(np.arange(3.0), tau=v)),
    ("GumbelSource", "seed", 0, ParameterError, 2**32 - 1, lambda v: GumbelSource(v)),
    ("MechanismNet", "n", 1, ValueError, 20, lambda v: mechanisms(n=v)),
    ("MechanismNet", "hidden", 1, ValueError, 20, lambda v: mechanisms(hidden=v)),
    ("fit_direct", "lr", None, ValueError, None, lambda v: direct(lr=v)),
    ("fit_direct", "steps", 0, ValueError, 3, lambda v: direct(steps=v)),
    ("fit_direct", "seed", 0, ValueError, 2**32 - 1, lambda v: direct(seed=v)),
    ("perturbation_confidence", "k_moved", 0, ValueError, 6, lambda v: confidence(k_moved=v)),
    ("perturbation_confidence", "trials", 1, ValueError, 20, lambda v: confidence(trials=v)),
    ("perturbation_confidence", "seed", 0, ValueError, 2**32 - 1, lambda v: confidence(seed=v)),
    ("bench_sampling", "repetitions", 1, ValueError, 5, lambda v: bench(repetitions=v)),
    ("bench_sampling", "warmup", 0, ValueError, 5, lambda v: bench(warmup=v)),
    ("bench_sampling", "seed", 0, ValueError, 2**32 - 1, lambda v: bench(seed=v)),
]
IDS = [f"{entry}-{param}" for entry, param, *_ in ROWS]


def python_or_numpy(i: int):
    kinds = [int, np.int64] + ([np.uint32] if 0 <= i < 2**32 else [])
    return st.sampled_from(kinds).map(lambda kind: kind(i))


def not_a_number():
    return st.one_of(st.booleans(), st.just(np.True_), st.none(), st.text(max_size=3))


def bad_counts(least: int):
    # every float is rejected, integral ones included
    return not_a_number() | st.floats() | st.integers(-(2**40), least - 1).flatmap(python_or_numpy)


def bad_scales():
    return not_a_number() | st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(max_value=0.0) | st.integers(
        max_value=0
    )


def good_scales():
    return st.floats(1e-3, 1e3) | st.integers(1, 1000) | st.floats(1e-3, 1e3).map(np.float32)


@pytest.mark.parametrize(("entry", "param", "least", "error", "most", "call"), ROWS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rejects_with_a_message_naming_the_parameter(entry, param, least, error, most, call, data):
    v = data.draw(bad_scales() if least is None else bad_counts(least))
    with pytest.raises(error) as exc:
        call(v)
    assert str(exc.value).startswith(f"{param} must be "), str(exc.value)


@pytest.mark.parametrize(("entry", "param", "least", "error", "most", "call"), ROWS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_accepts_integers_from_the_minimum_and_finite_positive_scales(entry, param, least, error, most, call, data):
    call(data.draw(good_scales() if least is None else st.integers(least, most).flatmap(python_or_numpy)))


SRC = Path(__file__).resolve().parents[1] / "src" / "diffdag"
_VOCABULARY = r"(\b(SINKHORN|TOPK|ER|SF|PERM_MODES|GRAPH_KINDS)\b|[\"'](sinkhorn|topk|er|sf)[\"'])"
_NAMED, _FOLDED = r"(modes?|kinds?)\b", r"\.(lower|upper|casefold)\(\)"  # a mode or kind, case-folded
HAND_WRITTEN_CHECKS = {
    "integer check": re.compile(r"isinstance\([^()]*,\s*bool\)"),
    "scale check": re.compile(r"isfinite\((?P<v>[\w.\[\]\"']+)\)\s+and\s+(?P=v)\s*>\s*0"),
    # `not in (SINKHORN, TOPK)`, `in ("er", "sf")`, `not in PERM_MODES`, ...
    "choice check": re.compile(rf"\bin\s+([(\[{{]\s*)?{_VOCABULARY}"),
    "choices list": re.compile(rf"choices\s*=.*{_VOCABULARY}"),
    "case folding": re.compile(rf"{_NAMED}.*{_FOLDED}|{_FOLDED}.*{_NAMED}"),
    "node-count message": re.compile(r"node counts differ"),
}


def test_the_rule_is_written_once():
    # the rule lives in _checks.py; a module with its own copy drifts from it
    found = [
        f"{path.name}:{lineno}: {kind}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_checks.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for kind, pattern in HAND_WRITTEN_CHECKS.items()
        if pattern.search(line)
    ]
    assert (SRC / "_checks.py").exists() and not found, found


# sinkhorn_operator's tol is a real number >= 0 (0 runs every round): a
# string or None once raised a bare TypeError, and NaN or a negative tol
# silently ran every round
@pytest.mark.parametrize("tol", ["x", None, True, np.nan, np.inf, -np.inf, -1e-300, -1, np.float64(-0.5)])
def test_sinkhorn_tol_must_be_a_finite_real_at_least_0(tol):
    with pytest.raises(ParameterError) as exc:
        sinkhorn_operator(np.eye(3), tol=tol)
    assert str(exc.value).startswith("tol must be "), str(exc.value)


@pytest.mark.parametrize("tol", [0, 0.0, -0.0, 1e-300, 1e-6, np.float32(0.5), np.int64(2), 1e300])
def test_sinkhorn_accepts_every_finite_tol_at_least_0(tol):
    assert np.allclose(sinkhorn_operator(np.eye(3), iters=3, tol=tol).value.sum(axis=0), 1.0)


def _cli_message(argv, tmp_path, capsys) -> str:
    """The one error line of a run that must exit 2 having written nothing,
    without argparse's "prog: error: " and "argument --flag: " prefixes."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and len(errors) == 1, captured.err
    assert captured.out == "" and not out.exists()  # nothing ran, nothing written
    return re.sub(r"^argument [-\w]+: ", "", errors[0].split("error: ", 1)[1])


def _api_message(call, error) -> str:
    with pytest.raises(error) as exc:
        call()
    return str(exc.value)


def _checkpoint_message(v, tmp_path) -> str:
    path = tmp_path / "ck.json"
    save_checkpoint(DpDagModel.create(3), path)
    path.write_text(json.dumps(json.loads(path.read_text()) | {"perm_mode": v}))
    return _api_message(lambda: load_checkpoint(path), ParameterError).removeprefix(f"{path}: ")


def _api(error, call):
    return lambda v, tmp_path, capsys: _api_message(lambda: call(v), error)


def _cli(*argv):
    """``argv`` with ``{v}`` standing for the value and ``{tmp}`` for a
    missing dataset path."""
    return lambda v, tmp_path, capsys: _cli_message(
        [a.format(v=v, tmp=tmp_path / "none") for a in argv], tmp_path, capsys
    )


# entry point -> (parameter, the message rejecting v: call(v, tmp_path, capsys))
CHOICE_ENTRIES = {
    "PermutationParams": ("mode", _api(ParameterError, lambda v: PermutationParams(n=3, mode=v))),
    "DpDagModel.create": ("perm_mode", _api(ParameterError, lambda v: DpDagModel.create(3, perm_mode=v))),
    "TrainConfig": ("perm_mode", _api(ValueError, lambda v: train_config(perm_mode=v))),
    "GenSpec": ("graph_kind", _api(ValueError, lambda v: gen_spec(graph_kind=v))),
    "load_checkpoint": ("perm_mode", lambda v, tmp_path, capsys: _checkpoint_message(v, tmp_path)),
    "train --perm-mode": ("perm_mode", _cli("train", "--dataset", "{tmp}", "--perm-mode", "{v}")),
    "grid --modes": ("perm_mode", _cli("grid", "--dataset", "{tmp}", "--modes", "topk,{v}")),
    "bench --modes": ("perm_mode", _cli("bench", "--modes", "{v}")),
    "generate --kind": ("graph_kind", _cli("generate", "--kind", "{v}", "--n", "4", "--m", "3")),
    "direct --kind": ("graph_kind", _cli("direct", "--kind", "{v}")),
    "direct --perm-mode": ("perm_mode", _cli("direct", "--perm-mode", "{v}")),
}
# matching is exact: a valid value in another case, a value of the other
# vocabulary and a non-string all fail; the CLI gets each value's str, and a
# JSON checkpoint cannot hold bytes
CHOICE_VALUES = ["TOPK", "ER", "quantum", None, 3, b"topk"]
CHOICE_CASES = [
    (entry, v)
    for entry in CHOICE_ENTRIES
    for v in CHOICE_VALUES
    if not (entry == "load_checkpoint" and isinstance(v, bytes))
]


@pytest.mark.parametrize(("entry", "v"), CHOICE_CASES, ids=[f"{e}-{v!r}" for e, v in CHOICE_CASES])
def test_every_mode_and_kind_entry_point_gives_the_same_verdict(entry, v, tmp_path, capsys):
    name, reject = CHOICE_ENTRIES[entry]
    message = reject(v, tmp_path, capsys)
    assert message.startswith(f"{name} must be "), message
