"""Metamorphic properties of adaptation: transforming the input in a way the
method should not see leaves the predictions unchanged.

The input is a random cloud with a random head, so no two rows tie in
uncertainty; the 2-D demos saturate the head, and the row tie-break there
would defeat the permutation checks. Both selection modes run, in
transductive mode and online with batches of 7.
"""

import numpy as np
import pytest

from tcalign import AdaptConfig, SoftmaxHead, adapt_online, adapt_transductive
from tcalign.io import read_embeddings, write_embeddings
from conftest import random_orthogonal

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
    # the ridge is trace-scaled, but its 1e-12 floor is not, hence no exact match
    z, head = cloud
    scaled = SoftmaxHead(weight=head.weight / 4.0, bias=head.bias)
    want = run(z, head, selection_mode, mode)
    assert np.max(np.abs(run(z * 4.0, scaled, selection_mode, mode) - want)) <= 1e-10


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
    write_embeddings(tmp_path / "z32.tcae", z, dtype="f32")
    write_embeddings(tmp_path / "z64.tcae", z, dtype="f64")
    got = run(read_embeddings(tmp_path / "z32.tcae"), head, selection_mode, mode)
    want = run(read_embeddings(tmp_path / "z64.tcae"), head, selection_mode, mode)
    assert np.max(np.abs(got - want)) <= 1e-6
