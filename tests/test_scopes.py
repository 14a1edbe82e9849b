"""Model scopes: where non-finite values are checked, and what untracked ops skip."""

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from petl_lab import SWIN_MICRO, NonFiniteError, PETLSpec, Tensor, build_model, freeze_backbone
from petl_lab import tensor as T
from petl_lab.petl import attach_petl

ALL_MECHANISMS = PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"),
                          d_bottle=2, d_token=2, d_prompt=2, d_middle=2,
                          patt_sites=("Q", "K", "V"))


def all_mechanisms_micro():
    model = build_model(SWIN_MICRO, seed=31)
    attach_petl(model, ALL_MECHANISMS, seed=32)
    freeze_backbone(model, ALL_MECHANISMS)
    return model


def test_scope_checks_its_result_and_names_the_dotted_scope():
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        out = T.scoped("outer", T.scoped, "inner", T.mul, Tensor([1.0]), 10.0)
        assert out.data.tolist() == [10.0]
        with pytest.raises(NonFiniteError, match="scope 'outer.inner' produced"):
            T.scoped("outer", T.scoped, "inner", T.mul, big, 10.0)
        with pytest.raises(NonFiniteError, match="operation 'mul'"):  # no scope open
            T.mul(big, 10.0)
    assert T._state.scopes == []


@pytest.mark.parametrize("op,bad", [(T.relu, -np.inf), (T.tanh, np.inf), (T.tanh, np.nan)])
def test_ops_that_hide_a_nonfinite_input_check_it_inside_a_scope(op, bad):
    x = Tensor(np.zeros(3))
    x.data[1] = bad  # a leaf written after construction, as a diverged weight would be
    with pytest.raises(NonFiniteError, match=f"'{op.__name__} input' .* in scope 'blk'"):
        T.scoped("blk", op, x)


def test_scopes_are_per_thread():
    seen = []

    def other_thread():
        seen.append(list(T._state.scopes))

    def inside():
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        return Tensor([1.0])

    T.scoped("main", inside)
    assert seen == [[]]


@pytest.mark.parametrize("tracked", [False, True], ids=["no_grad", "tracked"])
def test_untracked_ops_build_no_rule(monkeypatch, tracked):
    # every rule an op builds is recorded: none is built to be dropped
    model = all_mechanisms_micro()
    clip = np.random.default_rng(33).normal(size=(*SWIN_MICRO.input_size, 3))
    made = []
    original = T._make_op

    def make_op(data, parents, backward_fn, op):
        out = original(data, parents, backward_fn, op)
        made.append((op, backward_fn is not None, out.requires_grad))
        return out

    monkeypatch.setattr(T, "_make_op", make_op)
    with nullcontext() if tracked else T.no_grad():
        model.forward(clip)
    assert made and all(built == recorded for _, built, recorded in made), \
        [m for m in made if m[1] != m[2]][:5]
    assert any(recorded for _, _, recorded in made) == tracked


def test_a_scalar_factor_is_not_a_tensor(monkeypatch):
    x = Tensor(np.ones(3), requires_grad=True)
    built = []
    original = Tensor.__init__

    def init(self, data, requires_grad=False):
        built.append(np.shape(data))
        original(self, data, requires_grad)

    monkeypatch.setattr(Tensor, "__init__", init)
    y = T.mul(x, 0.8)
    assert built == []
    T.tsum(y).backward()
    assert x.grad.tolist() == [0.8] * 3


SCOPES = {"embed", "head", "merge0", "merge1", "merge2",
          *(f"stage{i}.block{j}.{half}" for i, n in enumerate(SWIN_MICRO.blocks_per_stage)
            for j in range(n) for half in ("attn", "ffn"))}


@pytest.mark.parametrize("tracked", [False, True], ids=["no_grad", "tracked"])
def test_every_poisoned_op_output_raises_naming_its_scope(monkeypatch, tracked):
    """Poison one entry of the k-th op output of a forward, for every k.

    Inside a scope ops do not check their own outputs, so this shows that
    every non-finite value still reaches a check: the scope's result or one
    of the intermediates ops keep checking. The error names the scope the
    poisoned op ran in.
    """
    model = all_mechanisms_micro()
    clip = np.random.default_rng(34).normal(size=(*SWIN_MICRO.input_size, 3))
    grad_mode = nullcontext if tracked else T.no_grad
    original = T._make_op
    plan = {"k": -1, "count": 0, "bad": 0.0, "scope": None}

    def make_op(data, parents, backward_fn, op):
        if plan["count"] == plan["k"]:
            data = np.array(data)  # a copy: an output may be a view of an input
            data.flat[plan["k"] % data.size] = plan["bad"]
            plan["scope"] = ".".join(T._state.scopes)
        plan["count"] += 1
        return original(data, parents, backward_fn, op)

    monkeypatch.setattr(T, "_make_op", make_op)
    with grad_mode():
        model.forward(clip)
    ops = plan["count"]
    assert ops > 150

    scopes = set()
    with np.errstate(all="ignore"):
        for k in range(ops):
            plan.update(k=k, count=0, bad=(np.nan, np.inf, -np.inf)[k % 3])
            with grad_mode(), pytest.raises(NonFiniteError) as exc:
                model.forward(clip)
            assert f"scope '{plan['scope']}'" in str(exc.value), (k, str(exc.value))
            scopes.add(plan["scope"])
    assert scopes == SCOPES
