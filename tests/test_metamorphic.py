"""Metamorphic properties of adaptation: transforming the input in a way the
method should not see leaves the predictions unchanged.

The input is a random cloud with a random head, so no two rows tie in
uncertainty; the 2-D demos saturate the head, and the row tie-break there
would defeat the permutation checks. Both selection modes run, in
transductive mode and online with batches of 7. Only the decimal-scale check
runs the 2-D linear demo, whose accuracy it compares.
"""

import numpy as np
import pytest

from tcalign import AdaptConfig, SoftmaxHead, adapt_online, adapt_transductive, gen_linear_shift, train_head
from tcalign.io import read_embeddings, write_embeddings
from conftest import random_orthogonal, write_f32_tcae

N, D, C = 300, 5, 4


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(5)
    mix = np.eye(D) + 0.4 * rng.standard_normal((D, D))
    z = rng.standard_normal((N, D)) @ mix + rng.standard_normal(D)
    head = SoftmaxHead(weight=rng.standard_normal((C, D)), bias=rng.standard_normal(C))
    return z, head


def run(z, head, selection_mode, mode):
    cfg = AdaptConfig(k=40, selection_mode=selection_mode, batch_size=7)
    if mode == "transductive":
        return adapt_transductive(z, head, cfg)[0].probs
    return adapt_online(z, head, cfg)[0].probs


MODES = pytest.mark.parametrize("mode", ["transductive", "online"])
SELECTIONS = pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])


@MODES
@SELECTIONS
def test_scaling_embeddings_against_head_is_invisible(cloud, selection_mode, mode):
    # the whole ridge, its floor included, is trace-scaled, and a power of two
    # scales every moment exactly, so the probabilities keep their bits
    z, head = cloud
    want = run(z, head, selection_mode, mode)
    for scale in (2.0**-30, 2.0**-20, 0.25, 4.0, 2.0**20):
        scaled = SoftmaxHead(weight=head.weight / scale, bias=head.bias)
        assert np.array_equal(run(z * scale, scaled, selection_mode, mode), want), scale


@MODES
@SELECTIONS
def test_translating_embeddings_against_head_bias_is_invisible(cloud, selection_mode, mode):
    # z -> z + t with bias -> bias - H t leaves every logit unchanged
    z, head = cloud
    t = np.random.default_rng(17).standard_normal(D) * 3.0
    moved = SoftmaxHead(weight=head.weight, bias=head.bias - head.weight @ t)
    want = run(z, head, selection_mode, mode)
    assert np.max(np.abs(run(z + t, moved, selection_mode, mode) - want)) <= 1e-12


def test_tiny_demo_embeddings_keep_their_accuracy():
    # the 2-D linear demo scaled by 1e-8 against its head used to adapt as if
    # its covariances were nearly zero, because the ridge floor was absolute
    data = gen_linear_shift(0)
    head = train_head(data.source.features, data.source.labels, lr=0.1, epochs=2000)
    test, labels = data.target.features, data.target.labels
    want, want_report, _ = adapt_transductive(test, head, AdaptConfig(), labels=labels)
    tiny = SoftmaxHead(weight=head.weight / 1e-8, bias=head.bias)
    got, got_report, _ = adapt_transductive(test * 1e-8, tiny, AdaptConfig(), labels=labels)
    assert got_report.accuracy_after == want_report.accuracy_after
    assert np.max(np.abs(got.probs - want.probs)) <= 1e-12


@MODES
@SELECTIONS
@pytest.mark.parametrize("kind", ["signed_permutation", "orthogonal"])
def test_rotating_embeddings_and_head_is_invisible(cloud, selection_mode, mode, kind):
    z, head = cloud
    rng = np.random.default_rng(11)
    if kind == "orthogonal":
        r = random_orthogonal(rng, D)
    else:
        r = np.eye(D)[rng.permutation(D)] * rng.choice([-1.0, 1.0], size=D)
    rotated = SoftmaxHead(weight=head.weight @ r, bias=head.bias)
    want = run(z, head, selection_mode, mode)
    assert np.max(np.abs(run(z @ r, rotated, selection_mode, mode) - want)) <= 1e-12


@SELECTIONS
def test_row_permutation_commutes_in_transductive_mode(cloud, selection_mode):
    # online results depend on arrival order by design, so only one batch commutes
    z, head = cloud
    perm = np.random.default_rng(13).permutation(N)
    want = run(z, head, selection_mode, "transductive")[perm]
    assert np.max(np.abs(run(z[perm], head, selection_mode, "transductive") - want)) <= 1e-12


@MODES
@SELECTIONS
def test_f32_and_f64_files_agree(cloud, tmp_path, selection_mode, mode):
    z, head = cloud
    write_f32_tcae(tmp_path / "z32.tcae", z)
    write_embeddings(tmp_path / "z64.tcae", z)
    got = run(read_embeddings(tmp_path / "z32.tcae"), head, selection_mode, mode)
    want = run(read_embeddings(tmp_path / "z64.tcae"), head, selection_mode, mode)
    assert np.max(np.abs(got - want)) <= 1e-6
