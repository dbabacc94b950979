"""Kernels and certificate verdicts of the compiler, pinned.

The compile front half memoises per-tensor and per-call results; none of
that may change what it emits. Each model's ``render_kernels()`` digest
and its certificate verdicts were computed at the commit before the memos
went in, with the same procedure as here.
"""

import hashlib
import itertools

import pytest

import repro.graph.op as graph_op
import repro.te.tensor as te_tensor
from repro import SouffleCompiler, SouffleOptions, models
from repro.models import TINY_MODELS

# Per model: the first 16 hex digits of the sha256 of a cold compile's
# ``render_kernels()``, and a certified compile's verdicts, with the
# process-global name counters reset before the model is built.
PINNED = {
    "tiny_bert": ("d0221744ae65724e",
                  ("horizontal:proved:82", "vertical:proved:58")),
    "tiny_efficientnet": ("031144abba4810d8",
                          ("horizontal:proved:45", "vertical:proved:31")),
    "tiny_lstm": ("90c1c1d8c0ca81b8",
                  ("horizontal:proved:62", "vertical:proved:31")),
    "tiny_mmoe": ("fbe90b242f4944e6",
                  ("horizontal:proved:17", "vertical:proved:18")),
    "tiny_resnext": ("dcb27ca0952047d2",
                     ("horizontal:proved:38", "vertical:proved:23")),
    "tiny_swin": ("1087b73b6b89e7c9",
                  ("horizontal:proved:93", "vertical:proved:63")),
    "bert_l1": ("5d67502bf924cf5e",
                ("horizontal:proved:41", "vertical:proved:29")),
    "efficientnet_b0": ("07f43536e818a31a",
                        ("horizontal:proved:337", "vertical:proved:229")),
    "lstm_t4c2": ("e6a6fc7fefe16287",
                  ("horizontal:proved:62", "vertical:proved:31")),
    "swin_1111": ("1673b770f56b6442",
                  ("horizontal:proved:187", "vertical:proved:125")),
}

# The perfbench compile workload's paper-width variants of the same name.
BUILDERS = {
    **{f"tiny_{name}": (build, {}) for name, build in TINY_MODELS.items()},
    "bert_l1": (models.build_bert, {"layers": 1}),
    "efficientnet_b0": (models.build_efficientnet, {}),
    "lstm_t4c2": (models.build_lstm, {"time_steps": 4, "num_cells": 2}),
    "swin_1111": (models.build_swin, {"depths": (1, 1, 1, 1)}),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_kernels_and_verdicts_are_pinned(key, monkeypatch):
    # Fresh counters make the names, and so the kernels, independent of
    # whatever the process built before.
    monkeypatch.setattr(te_tensor, "_name_counter", itertools.count())
    monkeypatch.setattr(graph_op, "_op_counter", itertools.count())
    build, kwargs = BUILDERS[key]
    if not key.startswith("tiny_"):
        kwargs = {**kwargs, "name": key}
    graph = build(**kwargs)
    cold = SouffleCompiler(cache=False).compile(graph)
    certified = SouffleCompiler(
        cache=False, options=SouffleOptions(certify=True)
    ).compile(graph)
    kernels = cold.render_kernels()
    assert certified.render_kernels() == kernels
    digest = hashlib.sha256(kernels.encode()).hexdigest()[:16]
    verdicts = tuple(
        f"{c.transform}:{c.status}:{c.obligations}"
        for c in certified.certificates
    )
    assert (digest, verdicts) == PINNED[key]
