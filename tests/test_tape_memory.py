"""Memory the training tape, evaluation and dataset preparation hold.

The tape keeps only what `backward` reads: a training step on the tiny
dataset peaks at a small multiple of its batch's input bytes, an evaluation
pass (constants only) at little more than its input, and `prepare_dataset`
lets the telemetry go before it serializes the windows. Peaks are taken with
`tracemalloc`, so they count numpy's buffers and Python objects alike.
"""

import tracemalloc
import weakref

import numpy as np

from microdiag import models, train_eval
from microdiag.prng import prng_new
from microdiag.types import Backbone, RunConfig, Task

from conftest import TINY_SPEC


def input_bytes(batch: models.WindowBatch) -> int:
    return batch.metric.nbytes + batch.log.nbytes + batch.trace.nbytes + batch.event_w.nbytes


def traced_peak(fn) -> int:
    """Bytes allocated at `fn`'s peak above what was live when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def gcn_setup(bundle):
    config = RunConfig(seed=1, task=Task.DETECT, backbone=Backbone.GCN)
    params = models.init_params(prng_new(1), config.task, config.backbone, bundle.n_nodes,
                                config.d, config.hidden, bundle.vocab_size, *bundle.dims())
    return config, params, models.adjacency(bundle.graph, Backbone.GCN)


def test_training_step_peaks_below_a_multiple_of_its_input(tiny_bundle):
    # a float32 step over 32 windows, as `train` runs it, reads about 6.3x
    # its input; six separate ReLU nodes and a copied pooled gradient per
    # encoder would take it near 10x
    bundle, _, _ = tiny_bundle
    config, params, adj = gcn_setup(bundle)
    batch = models.windows_to_batch(bundle.split.train[:32], bundle.vocab_size, np.float32)
    peak = traced_peak(lambda: models.loss_and_grads(
        params, batch, config.task, config.backbone, adj, prng_new(2)))
    assert peak <= 7.5 * input_bytes(batch), peak / input_bytes(batch)


def test_evaluation_pass_keeps_no_tape(tiny_bundle):
    # constants record nothing, so activations go as soon as they are read:
    # about 1.4x the input; a graph kept to the end would take about 7x
    bundle, _, _ = tiny_bundle
    config, params, adj = gcn_setup(bundle)
    batch = models.windows_to_batch(bundle.split.valid, bundle.vocab_size)
    peak = traced_peak(
        lambda: train_eval._eval_logits(params, batch, config.task, config.backbone, adj))
    assert peak <= 2.5 * input_bytes(batch), peak / input_bytes(batch)


def test_prepare_dataset_frees_the_stream_before_serializing(monkeypatch):
    spans = []
    seen = []

    def preprocess_stream(stream, *args):
        spans.append(weakref.ref(stream.spans))
        return original_preprocess(stream, *args)

    def windows_to_bytes(*args):
        seen.append(spans[0]() is None)
        return original_to_bytes(*args)

    original_preprocess = train_eval.preprocess_stream
    original_to_bytes = train_eval.windows_to_bytes
    monkeypatch.setattr(train_eval, "preprocess_stream", preprocess_stream)
    monkeypatch.setattr(train_eval, "windows_to_bytes", windows_to_bytes)
    train_eval.prepare_dataset(TINY_SPEC, 7)
    assert seen == [True]
