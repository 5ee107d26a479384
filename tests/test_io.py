import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from tcalign import InvalidInput, ParseError, PredictionBatch, SoftmaxHead, load_head, save_head
from tcalign import io
from tcalign.io import (
    FLOAT_FORMAT,
    _atomic_write,
    _float_texts,
    read_embeddings,
    read_labels,
    read_predictions_csv,
    table_to_csv,
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

    @pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max])
    def test_f32_overflow_rejected_before_writing(self, tmp_path, value):
        # a value the cast would turn into an infinity: no warning, no file
        path = tmp_path / "o.tcae"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="^values beyond float32 range"):
                write_embeddings(path, [[value, 1.0]], dtype="f32")
        assert not path.exists()

    def test_f32_max_round_trips(self, tmp_path):
        # float32's largest value is in range, and f64 files take any finite value
        path = tmp_path / "m.tcae"
        big = float(np.finfo(np.float32).max)
        write_embeddings(path, [[big, -big]], dtype="f32")
        assert read_embeddings(path).tolist() == [[big, -big]]
        write_embeddings(path, [[1e39, 1.0]])
        assert read_embeddings(path).tolist() == [[1e39, 1.0]]

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

    def test_nan_payload_rejected(self, rng, tmp_path):
        path = tmp_path / "nan.tcae"
        write_embeddings(path, rng.standard_normal((3, 2)))
        blob = bytearray(path.read_bytes())
        blob[25 + 8 : 25 + 16] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="non-finite values"):
            read_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_f32_payload_rejected(self, rng, tmp_path, bad):
        # the f32 payload is scanned before its upcast
        path = tmp_path / "bad32.tcae"
        write_embeddings(path, rng.standard_normal((3, 2)), dtype="f32")
        blob = bytearray(path.read_bytes())
        blob[25 + 12 : 25 + 16] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="non-finite values") as info:
            read_embeddings(path)
        assert info.value.context == "payload"

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

    def test_label_above_u32_rejected(self, tmp_path):
        # the file stores u32, so 2**32 + 3 would read back as 3
        path = tmp_path / "big.tcal"
        with pytest.raises(InvalidInput, match="u32"):
            write_labels(path, np.array([0, 2**32 + 3]))
        assert not path.exists()
        write_labels(path, np.array([0, 2**32 - 1]))
        assert read_labels(path).tolist() == [0, 2**32 - 1]

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
    def test_seventeen_digit_round_trip(self, rng):
        for _ in range(100):
            v = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
            assert float(FLOAT_FORMAT % v) == v

    def test_predictions_round_trip(self, rng, tmp_path):
        probs = rng.dirichlet(np.ones(3), size=12)
        preds = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
        path = tmp_path / "p.csv"
        write_predictions_csv(path, preds)
        back = read_predictions_csv(path)
        assert np.array_equal(back.probs, probs)
        assert np.array_equal(back.argmax, preds.argmax)

    def test_written_bytes_are_pinned(self, tmp_path):
        # exact bytes of the predictions writer: FLOAT_FORMAT (.17g) text, value for value
        values = [[-0.0, 5e-324, 1e-300], [0.1, 1.0, 1.0 / 3.0]]
        pred = tmp_path / "p.csv"
        write_predictions_csv(pred, PredictionBatch(probs=np.array(values), argmax=np.array([2, 1])))
        assert pred.read_bytes() == (
            "argmax,p0,p1,p2\n2,-0,4.9406564584124654e-324,1e-300\n"
            "1,0.10000000000000001,1,0.33333333333333331\n"
        ).encode()

    def test_table_bytes_are_pinned(self, tmp_path):
        # an int index column, then floats in the shared 17-significant-digit text
        path = tmp_path / "t.csv"
        table_to_csv(path, ["i", "a", "b"], [(0, -0.0, 5e-324), (12, 1.0 / 3.0, 1e-300)])
        assert path.read_bytes() == (
            b"i,a,b\n0,-0,4.9406564584124654e-324\n12,0.33333333333333331,1e-300\n"
        )

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

    def test_predictions_short_row_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("argmax,p0,p1\n0,0.5,0.5\n1,0.5\n")
        with pytest.raises(ParseError, match="wrong field count.*line 3"):
            read_predictions_csv(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("7,0.5,0.5", "argmax 7 is not below the class count 2"),
            ("2,0.5,0.5", "argmax 2 is not below the class count 2"),
            ("1_0,0.1,0.9", "argmax '1_0' is not a decimal class index"),
            ("-1,0.5,0.5", "argmax '-1' is not a decimal class index"),
            ("+1,0.2,0.8", "argmax '\\+1' is not a decimal class index"),
            (" 1,0.2,0.8", "argmax ' 1' is not a decimal class index"),
            ("\u0661,0.2,0.8", "is not a decimal class index"),
            ("0,nan,0.5", "a probability is not finite"),
            ("0,0.5,inf", "a probability is not finite"),
            ("1,-Infinity,0.5", "a probability is not finite"),
        ],
        ids=["argmax-beyond", "argmax-at-count", "underscore", "minus", "plus", "space",
             "non-ascii-digit", "nan", "inf", "minus-infinity"],
    )
    def test_predictions_reject_what_the_writer_never_writes(self, tmp_path, row, reason):
        # int() and float() used to accept each of these rows
        path = tmp_path / "p.csv"
        path.write_text(f"argmax,p0,p1\n0,0.5,0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^unparseable number in .*{reason}.* \(line 3\)$"):
            read_predictions_csv(path)

    def test_predictions_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("argmax,p0,p1\n")
        with pytest.raises(ParseError, match="no prediction rows"):
            read_predictions_csv(path)


class TestAtomicWrite:
    def test_failed_rename_removes_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            _atomic_write(target, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    def test_chunks_are_streamed_in_order(self, tmp_path):
        target = tmp_path / "out"
        _atomic_write(target, (part for part in [b"ab", np.frombuffer(b"cd", np.uint8), b"", b"e"]))
        assert target.read_bytes() == b"abcde"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failing_stream_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"first chunk\n"
            raise RuntimeError("producer failed")

        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="producer failed"):
            _atomic_write(target, chunks())
        assert list(tmp_path.iterdir()) == []


def _ties(exponents) -> list[float]:
    """Doubles whose exact decimal has 18 significant digits ending in 5, so
    that FLOAT_FORMAT rounds an exact half: x = (2D + 1) 10^(E-16) / 2 with
    10^16 <= D < 10^17 is q 2^(E-17) for q = (2D + 1) / 5^(16-E), a double
    when q is an odd integer below 2^53."""
    out = []
    for exponent in exponents:
        five = 5 ** (16 - exponent)
        lo, hi = -(-(2 * 10**16 + 1) // five), min((2 * 10**17 + 1) // five, 2**53)
        q_values = {lo, lo + 1, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 1, hi - 2}
        for q in sorted(v for v in q_values if lo <= v < hi and v % 2):
            x = math.ldexp(q, exponent - 17)
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
            out.append(x)
    return out


class TestFloatFormatter:
    """The bulk formatter prints exactly ``FLOAT_FORMAT % x`` for every double."""

    @staticmethod
    def assert_matches(values):
        values = np.asarray(values, dtype=np.float64).ravel()
        expected = [FLOAT_FORMAT % v for v in values.tolist()]
        got = _float_texts(values)
        mismatches = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert len(got) == len(expected)
        assert mismatches == []

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        steps = [powers]
        for _ in range(2):
            steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], np.inf)]
        values = np.concatenate(steps)
        self.assert_matches(np.concatenate([values, -values]))

    def test_extremes_and_specials(self):
        tiny = 2.2250738585072014e-308
        subnormals = [5e-324, 1e-323, 2.5e-322, 1.5e-315, tiny - 5e-324, tiny / 3]
        values = [*subnormals, tiny, 1.7976931348623157e308, 0.0, -0.0, np.inf, -np.inf, np.nan]
        self.assert_matches(values + [-v for v in values])

    def test_around_ten_to_sixteen_and_seventeen(self):
        centres = [1e16, 1e17, 99999999999999999.0, 9999999999999998.0, 1e16 - 1, 1e16 + 2]
        values = [v for c in centres for v in np.nextafter(c, [0.0, np.inf]).tolist() + [c]]
        self.assert_matches(values + [-v for v in values] + [v / 1e20 for v in values])

    def test_half_fractions(self, rng):
        # m + 0.5 below 2^52, from 10 up: printed exactly (17 digits at most)
        whole = np.floor(10.0 ** rng.uniform(1, 15.6, size=5000))
        self.assert_matches(np.concatenate([whole + 0.5, -(whole + 0.5)]))

    def test_exact_ties_round_half_even_with_fallback_where_inexact(self):
        # E in [-6, 15]: the scaled product is exact and an exact half rounds to
        # even in bulk; E in {-8, -7}: 10^(16-E) is not a double, so the half is
        # uncertain and FLOAT_FORMAT prints it (the fallback runs)
        exact, inexact = _ties(range(-6, 16)), _ties([-8, -7])
        assert len(exact) > 50 and len(inexact) >= 2
        certain = io._significands(np.array(exact + inexact))[2]
        assert certain.tolist() == [True] * len(exact) + [False] * len(inexact)
        self.assert_matches(exact + inexact + [-v for v in exact + inexact])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**64, size=200_000, dtype=np.uint64)
        self.assert_matches(bits.view(np.float64))

    def test_saturated_softmax_rows(self, rng):
        scales = np.repeat([1.0, 30.0, 800.0, 3000.0], 500)[:, None]
        logits = rng.standard_normal((2000, 10)) * scales
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.any(probs == 0.0) and np.any(probs == 1.0)
        self.assert_matches(probs)

    def test_lo_is_zero_exactly_where_ten_power_is_a_double(self):
        # exactness (and with it round-half-even without the fallback) is read off lo == 0
        exponents = np.arange(io._E_MIN, io._E_MAX + 1)
        assert exponents[io._POW10[3] == 0].tolist() == list(range(-6, 17))


def _reference_csv(header, index, values) -> bytes:
    """The per-row writer the bulk one replaced, as the format's definition."""
    template = "%d" + ",%.17g" * values.shape[1]
    lines = [",".join(header)] + [template % (i, *row) for i, row in zip(index, values.tolist())]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriterBytes:
    @pytest.mark.parametrize("c", [2, 100])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["one-row", "chunk-1", "chunk", "chunk+1"])
    def test_writers_match_per_row_reference(self, tmp_path, rng, c, offset):
        chunk = max(1, io._CHUNK_VALUES // c)
        n = 1 if offset is None else chunk + offset
        logits = rng.standard_normal((n, c)) * rng.choice([1.0, 40.0, 900.0], size=(n, 1))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        preds = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
        header = ["argmax"] + [f"p{j}" for j in range(c)]
        write_predictions_csv(tmp_path / "p.csv", preds)
        assert (tmp_path / "p.csv").read_bytes() == _reference_csv(header, preds.argmax.tolist(), probs)
        back = read_predictions_csv(tmp_path / "p.csv")
        assert np.array_equal(back.probs, probs) and np.array_equal(back.argmax, preds.argmax)

        # a general table: signed and extreme integer indices, signed floats of any size
        index = rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True)
        index[: min(n, 4)] = [0, -1, 2**63 - 1, -(2**63)][: min(n, 4)]
        sign = rng.choice([-1.0, 1.0], size=probs.shape)
        values = probs * sign * 10.0 ** rng.integers(-320, 300, size=probs.shape)
        rows = [(i, *row) for i, row in zip(index.tolist(), values.tolist())]
        header = ["i"] + header[1:]
        table_to_csv(tmp_path / "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, index.tolist(), values)

    def test_indices_around_the_exact_double_range(self, tmp_path):
        # +-2^53 print from their float slot; one beyond has "%d" spliced in
        index = [2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63), 0, -1]
        values = np.linspace(-1.0, 1.0, len(index))[:, None]
        table_to_csv(tmp_path / "t.csv", ["i", "v"], [(i, v) for i, (v,) in zip(index, values.tolist())])
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(["i", "v"], index, values)

    def test_index_only_table(self, tmp_path):
        table_to_csv(tmp_path / "t.csv", ["i"], [(3,), (-(2**63),)])
        expected = _reference_csv(["i"], [3, -(2**63)], np.empty((2, 0)))
        assert (tmp_path / "t.csv").read_bytes() == expected == b"i\n3\n-9223372036854775808\n"

    def test_empty_table_is_its_header(self, tmp_path):
        table_to_csv(tmp_path / "t.csv", ["i", "a"], [])
        assert (tmp_path / "t.csv").read_bytes() == b"i,a\n"


class TestReportJson:
    def test_writes_valid_json(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(path, {"a": 1, "b": 0.5, "c": None, "d": np.float64(np.nan), "e": [-math.inf]})
        doc = json.loads(path.read_text())
        assert doc == {"a": 1, "b": 0.5, "c": None, "d": None, "e": [None]}

    def test_booleans_stay_booleans(self, tmp_path):
        # a bool used to be written as 0/1
        path = tmp_path / "r.json"
        write_report_json(path, {"converged": True, "trace": [False, {"x": True}]})
        assert path.read_text() == (
            '{\n  "converged": true,\n  "trace": [\n    false,\n    {\n      "x": true\n    }\n  ]\n}\n'
        )


def _valid_files(tmp_path) -> dict:
    """One small valid file of each persisted format, keyed by format."""
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    write_embeddings(tmp_path / "e32.tcae", [[1.0, -2.0], [0.5, 3.0]], dtype="f32")
    write_embeddings(tmp_path / "e64.tcae", [[1.0, -2.0, 0.5]], dtype="f64")
    write_labels(tmp_path / "l.tcal", [0, 1, 2])
    save_head(SoftmaxHead(weight=[[1.0, -1.0], [0.5, 2.0]], bias=[0.0, 1e-3]), tmp_path / "h.json")
    write_predictions_csv(tmp_path / "p.csv", PredictionBatch(probs, probs.argmax(axis=1)))
    return {
        "tcae-f32": (read_embeddings, tmp_path / "e32.tcae"),
        "tcae-f64": (read_embeddings, tmp_path / "e64.tcae"),
        "tcal": (read_labels, tmp_path / "l.tcal"),
        "head-json": (load_head, tmp_path / "h.json"),
        "predictions-csv": (read_predictions_csv, tmp_path / "p.csv"),
    }


def _mutate(blob: bytes, rng) -> bytes:
    """``blob`` after 1 to 3 random overwrites, inserts, deletes or truncations."""
    out = bytearray(blob)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(len(out) + 1))
        op = rng.integers(4)
        if op == 0 and at < len(out):
            out[at] = rng.integers(256)
        elif op == 1:
            out.insert(at, rng.integers(256))
        elif op == 2:
            del out[at : at + 1]
        elif op == 3:
            del out[at:]
    return bytes(out)


class TestReaderContract:
    @pytest.mark.parametrize(
        "fmt", ["tcae-f32", "tcae-f64", "tcal", "head-json", "predictions-csv"]
    )
    def test_mutated_file_reads_or_raises_parse_error(self, tmp_path, fmt):
        # every reader returns or raises ParseError, whatever the bytes; undecodable
        # text used to escape as UnicodeDecodeError
        reader, source = _valid_files(tmp_path)[fmt]
        reader(source)
        blob = source.read_bytes()
        rng = np.random.default_rng(sum(fmt.encode()))
        path = tmp_path / f"mutant-{source.name}"
        escapes = []
        for i in range(300):
            mutant = _mutate(blob, rng)
            path.write_bytes(mutant)
            try:
                reader(path)
            except ParseError:
                pass
            except Exception as exc:  # noqa: BLE001 - the contract is about any other type
                escapes.append(f"mutant {i} {mutant!r}: {type(exc).__name__}: {exc}")
        assert escapes == []

    @pytest.mark.parametrize(
        "reader, text, context",
        [
            (load_head, '{"version": 1, "c": ' + "9" * 5000 + "}", "(top level)"),
            (load_head, "[" * 100000, "(top level)"),
            (read_predictions_csv, "argmax,p0,p1\n0,0.5,0.5\n99999999999999999999999,0.5,0.5\n", "(line 3)"),
        ],
        ids=["head-huge-int", "head-deep-nesting", "predictions-int64-overflow"],
    )
    def test_parser_limits_raise_parse_error(self, tmp_path, reader, text, context):
        # json's integer digit limit and nesting depth used to escape as ValueError and
        # RecursionError, and an argmax outside int64 as OverflowError
        path = tmp_path / "limit"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            reader(path)
        assert str(info.value).endswith(context)


@pytest.mark.parametrize(
    "call, pattern",
    [
        (
            lambda path: write_embeddings(path, [[1.0]], dtype="f16"),
            r"^dtype must be 'f32' or 'f64', got 'f16'$",
        ),
        (lambda path: write_labels(path, []), r"^labels must be a non-empty 1-D vector$"),
        (lambda path: write_labels(path, [[0, 1]]), r"^labels must be a non-empty 1-D vector$"),
    ],
    ids=["embedding-dtype", "labels-empty", "labels-2d"],
)
def test_writers_reject(tmp_path, call, pattern):
    with pytest.raises(InvalidInput, match=pattern):
        call(tmp_path / "out")
    assert list(tmp_path.iterdir()) == []
