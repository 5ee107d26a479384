import math

import numpy as np
import pytest

from tcalign import (
    DegenerateLabels,
    InvalidInput,
    ParseError,
    SoftmaxHead,
    accuracy,
    load_head,
    predict,
    save_head,
    train_head,
)
from tcalign.head import cross_entropy
from tcalign.synth import NormalStream


def two_cluster_data(margin=10.0, n=30, seed=7):
    stream = NormalStream(seed)
    a = stream.normal_matrix(n, 2)
    b = stream.normal_matrix(n, 2) + margin
    z = np.vstack([a, b])
    y = np.repeat([0, 1], n)
    return z, y


class TestPredict:
    def test_zero_head_is_uniform(self):
        head = SoftmaxHead(weight=np.zeros((4, 2)), bias=np.zeros(4))
        preds = predict(head, [[3.0, -1.0], [0.0, 0.0]])
        assert np.allclose(preds.probs, 0.25)
        assert preds.probs.shape == (2, 4)

    def test_dominant_logit(self):
        head = SoftmaxHead(weight=np.array([[10.0, 0.0], [-10.0, 0.0]]), bias=np.zeros(2))
        preds = predict(head, [[1.0, 0.0]])
        assert preds.argmax[0] == 0
        assert preds.probs[0, 0] > 0.999

    def test_matches_extended_precision_oracle(self, rng):
        head = SoftmaxHead(weight=rng.standard_normal((5, 3)), bias=rng.standard_normal(5))
        z = rng.standard_normal((20, 3))
        preds = predict(head, z)
        logits = (z @ head.weight.T + head.bias).astype(np.longdouble)
        for i in range(20):
            exps = np.array([math.exp(float(v)) for v in logits[i]], dtype=np.longdouble)
            oracle = (exps / exps.sum()).astype(np.float64)
            assert np.allclose(preds.probs[i], oracle, rtol=1e-12, atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        head = SoftmaxHead(weight=rng.standard_normal((3, 4)) * 30, bias=np.zeros(3))
        preds = predict(head, rng.standard_normal((50, 4)) * 10)
        assert np.max(np.abs(preds.probs.sum(axis=1) - 1.0)) <= 1e-9
        assert preds.probs.min() >= 0.0

    def test_shift_invariance_of_bias(self, rng):
        head = SoftmaxHead(weight=rng.standard_normal((4, 2)), bias=rng.standard_normal(4))
        shifted = SoftmaxHead(weight=head.weight.copy(), bias=head.bias + 7.5)
        z = rng.standard_normal((10, 2))
        assert np.max(np.abs(predict(head, z).probs - predict(shifted, z).probs)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        head = SoftmaxHead(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(InvalidInput):
            predict(head, [[1.0, 2.0]])


class TestTrainHead:
    def test_separable_clusters_reach_full_accuracy(self):
        z, y = two_cluster_data()
        head = train_head(z, y, lr=0.5, epochs=500)
        assert accuracy(predict(head, z), y) == 1.0

    def test_zero_epochs_gives_uniform_head(self):
        z, y = two_cluster_data()
        head = train_head(z, y, lr=0.5, epochs=0)
        assert np.array_equal(head.weight, np.zeros((2, 2)))
        preds = predict(head, z)
        assert np.allclose(preds.probs, 0.5)

    def test_single_class_rejected(self):
        z, _ = two_cluster_data()
        with pytest.raises(DegenerateLabels):
            train_head(z, np.zeros(len(z), dtype=int), lr=0.1, epochs=10)

    def test_deterministic(self):
        z, y = two_cluster_data()
        h1 = train_head(z, y, lr=0.1, epochs=50)
        h2 = train_head(z, y, lr=0.1, epochs=50)
        assert np.array_equal(h1.weight, h2.weight)
        assert np.array_equal(h1.bias, h2.bias)

    def test_loss_non_increasing_on_standardized_inputs(self):
        z, y = two_cluster_data()
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        losses = []
        for epochs in range(0, 60, 5):
            head = train_head(z, y, lr=0.1, epochs=epochs)
            losses.append(cross_entropy(head, z, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_explicit_class_count(self):
        z, y = two_cluster_data()
        head = train_head(z, y, lr=0.1, epochs=5, n_classes=4)
        assert head.n_classes == 4


class TestAccuracy:
    def test_all_correct(self):
        preds = predict(SoftmaxHead(weight=np.array([[5.0], [-5.0]]), bias=np.zeros(2)), [[1.0], [-1.0]])
        assert accuracy(preds, [0, 1]) == 1.0

    def test_none_correct(self):
        preds = predict(SoftmaxHead(weight=np.array([[5.0], [-5.0]]), bias=np.zeros(2)), [[1.0], [-1.0]])
        assert accuracy(preds, [1, 0]) == 0.0

    def test_three_of_four(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
        from tcalign import PredictionBatch

        preds = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
        assert accuracy(preds, [0, 0, 0, 0]) == 0.75

    def test_permutation_invariance(self, rng):
        head = SoftmaxHead(weight=rng.standard_normal((3, 2)), bias=np.zeros(3))
        z = rng.standard_normal((30, 2))
        y = rng.integers(0, 3, size=30)
        base = accuracy(predict(head, z), y)
        perm = rng.permutation(30)
        assert accuracy(predict(head, z[perm]), y[perm]) == base

    @pytest.mark.parametrize(
        "labels",
        [[0.7, 1.0], [-1, 1], [np.nan, 1.0], [np.inf, 1.0]],
        ids=["fraction", "negative", "nan", "inf"],
    )
    def test_non_class_labels_rejected(self, labels):
        # a fractional label used to be truncated and a negative one compared as is
        preds = predict(SoftmaxHead(weight=np.array([[5.0], [-5.0]]), bias=np.zeros(2)), [[1.0], [-1.0]])
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            accuracy(preds, np.array(labels))
        assert accuracy(preds, np.array([0.0, 1.0])) == 1.0  # integral floats are class indices

    def test_length_mismatch_rejected(self):
        probs = np.array([[0.6, 0.4]])
        from tcalign import PredictionBatch

        preds = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
        with pytest.raises(InvalidInput):
            accuracy(preds, [0, 1])


class TestPersistence:
    def test_round_trip_is_exact(self, rng, tmp_path):
        head = SoftmaxHead(
            weight=rng.standard_normal((3, 4)) * 1e3, bias=rng.standard_normal(3) * 1e-7
        )
        path = tmp_path / "head.json"
        save_head(head, path)
        loaded = load_head(path)
        assert np.array_equal(loaded.weight, head.weight)
        assert np.array_equal(loaded.bias, head.bias)

    def test_saved_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "head.json"
        save_head(SoftmaxHead(weight=[[0.1], [-2.5]], bias=[1 / 3, 1e-20]), path)
        assert path.read_bytes() == (
            b'{\n  "version": 1,\n  "c": 2,\n  "d": 1,\n'
            b'  "weight": [\n    [0.10000000000000001],\n    [-2.5]\n  ],\n'
            b'  "bias": [0.33333333333333331, 9.9999999999999995e-21]\n}\n'
        )
        assert [p.name for p in tmp_path.iterdir()] == ["head.json"]

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"version": 1, "c": 2, "d": 3, "weight": [[1, 2], [3, 4]], "bias": [0, 0]}'
        )
        with pytest.raises(ParseError):
            load_head(path)

    def test_minimal_hand_written_head(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(
            '{"version": 1, "c": 2, "d": 1, "weight": [[1], [-1]], "bias": [0, 0]}'
        )
        head = load_head(path)
        preds = predict(head, [[1.0]])
        assert preds.argmax[0] == 0

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"version": 1,\n  "c": 2,\n')
        with pytest.raises(ParseError) as info:
            load_head(path)
        assert "line" in str(info.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text('{"version": 1, "c": 2, "d": 1, "weight": [[1], [2]]}')
        with pytest.raises(ParseError) as info:
            load_head(path)
        assert "bias" in str(info.value)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"version": 2, "c": 2, "d": 1, "weight": [[1], [2]], "bias": [0, 0]}')
        with pytest.raises(ParseError):
            load_head(path)
