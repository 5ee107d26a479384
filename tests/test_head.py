import math
import warnings

import numpy as np
import pytest

from tcalign import (
    DegenerateLabels,
    InvalidInput,
    NumericalFailure,
    ParseError,
    SoftmaxHead,
    accuracy,
    load_head,
    predict,
    save_head,
    train_head,
)
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

    def test_overflowing_logits_rejected(self):
        # finite rows and head whose product overflows used to come back as
        # NaN probability rows with argmax 0, with only a numpy RuntimeWarning
        head = SoftmaxHead(weight=[[1e200, 0.0], [0.0, 1e200]], bias=[0.0, 0.0])
        with pytest.raises(NumericalFailure, match="logits .* are not finite"):
            predict(head, [[1e200, 1.0], [2.0, 1e200], [3.0, 1.0]])
        z, y = two_cluster_data()
        with pytest.raises(NumericalFailure, match="logits .* are not finite"):
            train_head(z * 1e200, y, lr=1.0, epochs=3)

    def test_dimension_mismatch_rejected(self):
        head = SoftmaxHead(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(InvalidInput, match="^embedding dimension 2 does not match head dimension 3$"):
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
            probs = predict(train_head(z, y, lr=0.1, epochs=epochs), z).probs
            losses.append(-np.mean(np.log(probs[np.arange(len(y)), y])))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_explicit_class_count(self):
        z, y = two_cluster_data()
        head = train_head(z, y, lr=0.1, epochs=5, n_classes=4)
        assert head.n_classes == 4

    @pytest.mark.parametrize("n_classes", [2.7, 1, -3], ids=["fraction", "one", "negative"])
    def test_bad_class_count_rejected(self, n_classes):
        # int(2.7) would silently train a 2-class head
        z, y = two_cluster_data()
        with pytest.raises(InvalidInput, match="n_classes must be an integer >= 2"):
            train_head(z, y, lr=0.1, epochs=5, n_classes=n_classes)

    @pytest.mark.parametrize("offset", [0.6, -1], ids=["fraction", "negative"])
    def test_non_class_labels_rejected(self, offset):
        # a fractional label used to be truncated and trained on
        z, y = two_cluster_data()
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            train_head(z, y + offset, lr=0.1, epochs=5)

    def test_label_count_mismatch_rejected(self):
        z, y = two_cluster_data()
        with pytest.raises(InvalidInput, match="label count"):
            train_head(z, y[:-1], lr=0.1, epochs=5)

    @pytest.mark.parametrize("epochs", [2.5, 3.0, -1, None, True])
    def test_bad_epochs_rejected(self, epochs):
        # a fractional count used to raise a bare TypeError from range()
        z, y = two_cluster_data()
        with pytest.raises(InvalidInput, match="epochs must be an integer >= 0"):
            train_head(z, y, lr=0.1, epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        z, y = two_cluster_data()
        got = train_head(z, y, lr=0.1, epochs=np.int64(5))
        want = train_head(z, y, lr=0.1, epochs=5)
        assert np.array_equal(got.weight, want.weight)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.1, None, "0.1", True])
    def test_bad_lr_rejected(self, lr):
        # an inf lr used to raise a numpy RuntimeWarning, a NaN lr to train
        # every epoch and fail on the non-finite head
        z, y = two_cluster_data()
        with pytest.raises(InvalidInput, match="learning rate must be finite and positive"):
            train_head(z, y, lr=lr, epochs=5)


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

    def test_zero_rows_rejected(self):
        # a zero-row batch used to warn "Mean of empty slice" and return NaN
        self.check_not_one_per_row(np.zeros(0, dtype=int), [])

    @pytest.mark.parametrize("argmax, labels", [([[0, 1]], [0]), (0, [0])], ids=["2-d", "scalar"])
    def test_argmax_that_is_not_a_vector_rejected(self, argmax, labels):
        # a 2-D argmax used to broadcast against the labels and score 0.5
        self.check_not_one_per_row(np.array(argmax), labels)

    @staticmethod
    def check_not_one_per_row(argmax, labels):
        from tcalign import PredictionBatch

        preds = PredictionBatch(probs=np.zeros((0, 2)), argmax=argmax)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="at least one row"):
                accuracy(preds, labels)

    def test_argmax_passes_the_integer_rule(self):
        # a list argmax used to raise a bare AttributeError, and a fractional
        # one was compared as is and scored 0.5
        from tcalign import PredictionBatch

        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        as_list = accuracy(PredictionBatch(probs=probs, argmax=[0, 1, 0]), [0, 1, 1])
        assert as_list == accuracy(PredictionBatch(probs=probs, argmax=np.array([0, 1, 0])), [0, 1, 1]) == 2 / 3
        assert accuracy(PredictionBatch(probs=probs, argmax=np.array([0.0, 1.0, 1.0])), [0, 1, 1]) == 1.0
        with pytest.raises(InvalidInput, match="argmax must be integers"):
            accuracy(PredictionBatch(probs=probs[:2], argmax=np.array([0.5, 1.0])), [0, 1])


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

    @pytest.mark.parametrize(
        "weight",
        ["[[{}], [1]]", "[[1], [1, 2]]", '"w"', "[[" + "9" * 400 + "], [1]]"],
        ids=["object", "ragged", "string", "huge-int"],
    )
    def test_unconvertible_weight_rejected(self, tmp_path, weight):
        # an object entry used to escape as a bare TypeError
        path = tmp_path / "bad.json"
        path.write_text(f'{{"version": 1, "c": 2, "d": 1, "weight": {weight}, "bias": [0, 0]}}')
        with pytest.raises(ParseError, match="field"):
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

    @pytest.mark.parametrize("version", ["2", "true", "1.0"])
    def test_wrong_version_rejected(self, tmp_path, version):
        # true and 1.0 compare equal to 1 in Python, so the type is checked as well
        path = tmp_path / "v.json"
        path.write_text(
            f'{{"version": {version}, "c": 2, "d": 1, "weight": [[1], [2]], "bias": [0, 0]}}'
        )
        with pytest.raises(ParseError, match=f"^unsupported head version {version.title()} "):
            load_head(path)

    @pytest.mark.parametrize(
        "c, d", [("1", "1"), ("2", "0"), ("2.0", "1"), ("2", "1.0"), ("2", "true")]
    )
    def test_bad_class_count_or_dimension_rejected(self, tmp_path, c, d):
        # a bool is an int in Python, so "d": true would pass an isinstance check as d = 1
        path = tmp_path / "cd.json"
        path.write_text(f'{{"version": 1, "c": {c}, "d": {d}, "weight": [[1], [2]], "bias": [0, 0]}}')
        with pytest.raises(ParseError, match=r"^c and d must be integers .* \(fields 'c'/'d'\)$"):
            load_head(path)

    @pytest.mark.parametrize(
        "weight, bias, field",
        [
            ('[["1.5"], [true]]', '["2", 0]', "weight"),
            ('[["1.5"], [1]]', "[0, 0]", "weight"),
            ("[[true], [1]]", "[0, 0]", "weight"),
            ("[[[1]], [1]]", "[0, 0]", "weight"),
            ("[1, 2]", "[0, 0]", "weight"),
            ("[[1], [2]]", '["2", 0]', "bias"),
            ("[[1], [2]]", "[false, 0]", "bias"),
            ("[[1], [2]]", "[[0], 0]", "bias"),
        ],
        ids=["issue-example", "weight-string", "weight-bool", "weight-list", "weight-flat",
             "bias-string", "bias-bool", "bias-list"],
    )
    def test_non_number_entries_rejected(self, tmp_path, weight, bias, field):
        # float() takes "1.5" and true for numbers; they used to load as 1.5 and 1.0
        path = tmp_path / "types.json"
        path.write_text(f'{{"version": 1, "c": 2, "d": 1, "weight": {weight}, "bias": {bias}}}')
        with pytest.raises(ParseError, match=rf"JSON numbers \(field '{field}'\)$"):
            load_head(path)

    def test_nan_weight_rejected(self, tmp_path):
        # Python's json accepts the NaN literal, so the head check must catch it
        path = tmp_path / "nan.json"
        path.write_text('{"version": 1, "c": 2, "d": 1, "weight": [[NaN], [1]], "bias": [0, 0]}')
        with pytest.raises(ParseError, match="head values are invalid.*non-finite"):
            load_head(path)


def _load_head_text(path, text: str) -> SoftmaxHead:
    path.write_text(text)
    return load_head(path)


@pytest.mark.parametrize(
    "call, error, pattern",
    [
        (
            lambda tmp: SoftmaxHead(weight=[1.0, 2.0], bias=[0.0]),
            InvalidInput,
            r"^head weight must be a c x d matrix$",
        ),
        (
            lambda tmp: SoftmaxHead(weight=np.zeros((2, 2)), bias=np.zeros(3)),
            InvalidInput,
            r"^bias shape \(3,\) does not match weight rows 2$",
        ),
        (
            lambda tmp: SoftmaxHead(weight=[[1.0, 2.0]], bias=[0.0]),
            InvalidInput,
            r"^head needs at least 2 classes$",
        ),
        (
            # save_head used to write "d": 0, which load_head refuses
            lambda tmp: SoftmaxHead(weight=np.zeros((2, 0)), bias=[0.0, 0.0]),
            InvalidInput,
            r"^head needs at least 1 embedding dimension$",
        ),
        (
            lambda tmp: train_head(np.eye(3), [0, 1, 2], lr=0.1, epochs=1, n_classes=2),
            InvalidInput,
            r"^labels must lie in \[0, 2\)$",
        ),
        (
            lambda tmp: _load_head_text(tmp / "h.json", "[1, 2]"),
            ParseError,
            r"^head file must contain a JSON object \(top level\)$",
        ),
    ],
    ids=["weight-not-2d", "bias-shape", "one-class", "zero-width", "label-beyond-n-classes", "json-not-object"],
)
def test_rejections(tmp_path, call, error, pattern):
    with pytest.raises(error, match=pattern):
        call(tmp_path)
