import numpy as np
import pytest

from tcalign import InvalidInput, ParseError, PredictionBatch
from tcalign.io import (
    embeddings_to_csv,
    fmt17,
    read_embeddings,
    read_labels,
    read_predictions_csv,
    write_embeddings,
    write_labels,
    write_predictions_csv,
    write_report_json,
)


class TestEmbeddingFormat:
    def test_round_trip_f64(self, rng, tmp_path):
        z = rng.standard_normal((10, 3)) * 1e6
        path = tmp_path / "a.tcae"
        write_embeddings(path, z)
        assert np.array_equal(read_embeddings(path), z)

    def test_round_trip_f32_upcasts(self, rng, tmp_path):
        z = rng.standard_normal((4, 2))
        path = tmp_path / "b.tcae"
        write_embeddings(path, z, dtype="f32")
        back = read_embeddings(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, z.astype(np.float32).astype(np.float64))

    def test_header_layout(self, rng, tmp_path):
        path = tmp_path / "c.tcae"
        write_embeddings(path, [[1.0, 2.0], [3.0, 4.0]])
        blob = path.read_bytes()
        assert blob[:4] == b"TCAE"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert blob[8] == 1  # float64 dtype code
        assert int.from_bytes(blob[9:17], "little") == 2
        assert int.from_bytes(blob[17:25], "little") == 2
        assert len(blob) == 25 + 4 * 8

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.tcae"
        path.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(ParseError) as info:
            read_embeddings(path)
        assert "byte offset 0" in str(info.value)

    def test_truncated_payload_names_offset(self, rng, tmp_path):
        path = tmp_path / "t.tcae"
        write_embeddings(path, rng.standard_normal((6, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ParseError) as info:
            read_embeddings(path)
        assert "byte offset" in str(info.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.tcae"
        path.write_bytes(b"TCAE\x01\x00")
        with pytest.raises(ParseError):
            read_embeddings(path)

    def test_unknown_dtype_code(self, rng, tmp_path):
        path = tmp_path / "d.tcae"
        write_embeddings(path, rng.standard_normal((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[8] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as info:
            read_embeddings(path)
        assert "byte offset 8" in str(info.value)

    def test_wrong_version(self, rng, tmp_path):
        path = tmp_path / "v.tcae"
        write_embeddings(path, rng.standard_normal((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            read_embeddings(path)


class TestLabelFormat:
    def test_round_trip(self, rng, tmp_path):
        labels = rng.integers(0, 100, size=37)
        path = tmp_path / "a.tcal"
        write_labels(path, labels)
        assert np.array_equal(read_labels(path), labels)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "b.tcal"
        write_labels(path, [0, 1, 2])
        blob = path.read_bytes()
        assert blob[:4] == b"TCAL"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:16], "little") == 3
        assert len(blob) == 16 + 3 * 4

    @pytest.mark.parametrize(
        "labels", [[0, 0.5], [0, -1], [0, np.nan]], ids=["fraction", "negative", "nan"]
    )
    def test_non_class_labels_rejected(self, tmp_path, labels):
        path = tmp_path / "c.tcal"
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            write_labels(path, np.array(labels))
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tcal"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ParseError):
            read_labels(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.tcal"
        write_labels(path, [5, 6, 7, 8])
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(ParseError):
            read_labels(path)


class TestCsv:
    def test_embedding_export_format(self, tmp_path):
        path = tmp_path / "e.csv"
        embeddings_to_csv(path, [[1.0, 0.5], [1.0 / 3.0, 2.0]])
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "x0,x1"
        assert len([l for l in lines[1:] if l]) == 2
        assert "0.33333333333333331" in lines[2]
        assert "\r" not in text

    def test_seventeen_digit_round_trip(self, rng):
        for _ in range(100):
            v = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
            assert float(fmt17(v)) == v

    def test_predictions_round_trip(self, rng, tmp_path):
        probs = rng.dirichlet(np.ones(3), size=12)
        preds = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
        path = tmp_path / "p.csv"
        write_predictions_csv(path, preds)
        back = read_predictions_csv(path)
        assert np.array_equal(back.probs, probs)
        assert np.array_equal(back.argmax, preds.argmax)

    def test_written_bytes_are_pinned(self, tmp_path):
        # exact bytes of both writers: fmt17 (.17g) text, value for value
        values = [[-0.0, 5e-324, 1e-300], [0.1, 1.0, 1.0 / 3.0]]
        emb, pred = tmp_path / "e.csv", tmp_path / "p.csv"
        embeddings_to_csv(emb, values)
        write_predictions_csv(pred, PredictionBatch(probs=np.array(values), argmax=np.array([2, 1])))
        rows = "-0,4.9406564584124654e-324,1e-300\n0.10000000000000001,1,0.33333333333333331\n"
        assert emb.read_bytes() == ("x0,x1,x2\n" + rows).encode()
        assert pred.read_bytes() == (
            "argmax,p0,p1,p2\n2,-0,4.9406564584124654e-324,1e-300\n"
            "1,0.10000000000000001,1,0.33333333333333331\n"
        ).encode()

    def test_predictions_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError):
            read_predictions_csv(path)

    def test_predictions_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("argmax,p0,p1\n0,0.5,0.5\n1,xyz,0.5\n")
        with pytest.raises(ParseError) as info:
            read_predictions_csv(path)
        assert "line 3" in str(info.value)


class TestReportJson:
    def test_writes_valid_json(self, tmp_path):
        import json

        path = tmp_path / "r.json"
        write_report_json(path, {"a": 1, "b": 0.5, "c": None, "d": np.float64(np.nan)})
        doc = json.loads(path.read_text())
        assert doc == {"a": 1, "b": 0.5, "c": None, "d": None}
