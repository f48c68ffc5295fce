"""Score matrix container, normalization checking, and the JSON exchange
format."""

import json

import numpy as np
import pytest

from d2cc import DataError, ScoreMatrices, check_normalized, read_score_file, write_score_file
from d2cc.scores import matrices_from_dict, matrices_to_dict


# a category pool to draw flat random matrices from
POOL = ("NP", "N", "NP/N", "S[dcl]\\NP", "(S[dcl]\\NP)/NP", "N/N", "NP\\NP",
        "(NP\\NP)/NP", "S[dcl]", "S[b]\\NP", "(S[b]\\NP)/NP", "S/S", "conj",
        ",", ".", "PP/NP", "PP", "S[ng]\\NP", "(S\\NP)\\(S\\NP)",
        "((S\\NP)\\(S\\NP))/NP", "S[to]\\NP", "(S[to]\\NP)/(S[b]\\NP)")


def flat_matrices(rng, n, n_cats=20):
    """Row-normalised random scores like a flat-decode batch's: the self
    arc of every dependency row is -inf, and so is a tag entry now and
    then."""
    def normalize(a):
        return a - np.logaddexp.reduce(a, axis=1, keepdims=True)

    cats = [POOL[i] for i in sorted(rng.choice(len(POOL), n_cats,
                                               replace=False))]
    tag = rng.normal(size=(n, n_cats)) * 2.0
    tag[rng.random(size=tag.shape) < 0.05] = -np.inf
    tag[:, 0] = np.maximum(tag[:, 0], 0.0)  # keeps every row normalisable
    dep = rng.normal(size=(n, n + 1)) * 2.0
    dep[np.arange(n), np.arange(1, n + 1)] = -np.inf
    return ScoreMatrices(["w%d" % i for i in range(1, n + 1)], cats,
                         normalize(tag), normalize(dep))


def assert_same_bits(batch, back):
    assert len(back) == len(batch)
    for m, b in zip(batch, back):
        assert b.tokens == m.tokens and b.categories == m.categories
        for name in ("tag_logp", "dep_logp"):
            got, want = getattr(b, name), getattr(m, name)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def uniform_matrices(n=2, cats=("NP", "N")):
    tag = np.full((n, len(cats)), -np.log(len(cats)))
    dep = np.full((n, n + 1), -np.log(n + 1))
    return ScoreMatrices(["w%d" % i for i in range(1, n + 1)], list(cats),
                         tag, dep)


class TestCheckNormalized:
    def test_uniform_ok(self):
        assert check_normalized(uniform_matrices()) is None

    def test_masked_column_ok(self):
        # -inf entries are fine as long as the rest renormalizes
        m = uniform_matrices(2)
        dep = np.full((2, 3), -np.inf)
        dep[0, 0] = 0.0
        dep[1, 1] = 0.0
        m.dep_logp = dep
        assert check_normalized(m) is None

    def test_bad_tag_row_named(self):
        m = uniform_matrices(3)
        m.tag_logp[1, :] += 0.5
        msg = check_normalized(m)
        assert msg is not None and "tag_logp row 2" in msg

    def test_bad_dep_row_named(self):
        m = uniform_matrices(3)
        m.dep_logp[2, :] -= 1.0
        msg = check_normalized(m)
        assert msg is not None and "dep_logp row 3" in msg

    def test_all_inf_row_flagged(self):
        m = uniform_matrices(2)
        m.tag_logp[0, :] = -np.inf
        assert check_normalized(m) is not None

    @pytest.mark.parametrize("bad, text", [(np.nan, "nan"),
                                           (np.inf, "nan"),
                                           (-np.inf, "-inf")])
    def test_first_non_finite_row_named(self, bad, text):
        m = uniform_matrices(4)
        m.tag_logp[2, :] = bad
        m.tag_logp[3, 0] = bad
        m.dep_logp[0, 1] = np.nan
        msg = check_normalized(m)
        assert msg == "tag_logp row 3 log-sum-exps to %s, not 0" % text

    def test_shape_mismatch_flagged(self):
        m = uniform_matrices(2)
        m.dep_logp = np.zeros((2, 2))
        msg = check_normalized(m)
        assert msg is not None and "dep_logp shape" in msg

    def test_tolerance(self):
        m = uniform_matrices(2)
        m.tag_logp[0, :] += 1e-9  # inside default tolerance
        assert check_normalized(m) is None
        assert check_normalized(m, tol=1e-12) is not None


class TestScoreFile:
    def test_round_trip(self):
        m = uniform_matrices(3, ("NP", "N", "S[dcl]"))
        m.dep_logp[0, 2] = -np.inf
        [back] = read_score_file(write_score_file([m]))
        assert back.tokens == m.tokens
        assert back.categories == m.categories
        np.testing.assert_array_equal(back.tag_logp, m.tag_logp)
        np.testing.assert_array_equal(back.dep_logp, m.dep_logp)

    def test_minus_inf_serialized_as_string(self):
        m = uniform_matrices(1, ("NP",))
        m.dep_logp = np.array([[0.0, -np.inf]])
        text = write_score_file([m])
        assert '"-inf"' in text
        [back] = read_score_file(text)
        assert back.dep_logp[0, 1] == -np.inf

    def test_single_object_accepted(self):
        m = uniform_matrices()
        text = write_score_file([m])[1:-2]  # strip list brackets
        assert len(read_score_file(text)) == 1

    def test_categories_canonicalized(self):
        d = matrices_to_dict(uniform_matrices(1, ("NP",)))
        d["categories"] = ["((NP))"]
        assert matrices_from_dict(d).categories == ["NP"]
        # two matrices of one file sharing a text
        shared = matrices_to_dict(uniform_matrices(1, ("NP", "N")))
        shared["categories"] = ["((NP))", "(N)"]
        batch = read_score_file(json.dumps([d, shared]))
        assert [m.categories for m in batch] == [["NP"], ["NP", "N"]]

    def test_missing_field(self):
        d = matrices_to_dict(uniform_matrices())
        del d["dep_logp"]
        with pytest.raises(DataError, match="missing field"):
            matrices_from_dict(d)

    def test_bad_value_string(self):
        d = matrices_to_dict(uniform_matrices())
        d["tag_logp"][0][0] = "huge"
        with pytest.raises(DataError, match="bad score value"):
            matrices_from_dict(d)

    def test_ragged_rows(self):
        d = matrices_to_dict(uniform_matrices())
        d["tag_logp"][0] = d["tag_logp"][0][:1]
        with pytest.raises(DataError, match="rectangular"):
            matrices_from_dict(d)

    def test_non_list_file(self):
        with pytest.raises(DataError, match="list"):
            read_score_file('"just a string"')

    def test_minus_inf_tag_entry_survives(self):
        m = uniform_matrices(2, ("NP", "N"))
        m.tag_logp[1] = [0.0, -np.inf]
        [back] = read_score_file(write_score_file([m]))
        np.testing.assert_array_equal(back.tag_logp, m.tag_logp)

    @pytest.mark.parametrize("field, value, text", [
        ("tag_logp", np.nan, "tag_logp row 2 holds nan"),
        ("dep_logp", np.inf, "dep_logp row 2 holds inf"),
        ("dep_logp", np.nan, "dep_logp row 2 holds nan"),
    ])
    def test_nan_and_plus_inf_not_written(self, field, value, text):
        bad = uniform_matrices(2)
        getattr(bad, field)[1, 0] = value
        with pytest.raises(DataError, match="^score matrix 2: " + text):
            write_score_file([uniform_matrices(2), bad])

    def test_flat_batches_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            batch = [flat_matrices(rng, int(n))
                     for n in rng.integers(4, 6, size=32)]
            assert any(np.isneginf(m.tag_logp).any() for m in batch)
            assert_same_bits(batch, read_score_file(write_score_file(batch)))

    def test_indented_layout_reads_to_the_same_arrays(self):
        # the layout of an earlier writer: json.dumps(..., indent=2)
        batch = [flat_matrices(np.random.default_rng(3), n) for n in (4, 5)]
        text = json.dumps([matrices_to_dict(m) for m in batch], indent=2)
        assert_same_bits(batch, read_score_file(text))

    def test_one_line_per_matrix(self):
        batch = [flat_matrices(np.random.default_rng(5), n) for n in (4, 5, 4)]
        lines = write_score_file(batch).splitlines()
        assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 5
        for m, line in zip(batch, lines[1:-1]):
            assert json.loads(line.rstrip(",")) == matrices_to_dict(m)

    def test_empty_batch(self):
        text = write_score_file([])
        assert json.loads(text) == []
        assert read_score_file(text) == []

    @pytest.mark.parametrize("row, values", [
        ([-1.0, "-inf", 0], [-1.0, -np.inf, 0.0]),
        (["-Infinity", True, False], [-np.inf, 1.0, 0.0]),
        ([True, 2, 0.5], [1.0, 2.0, 0.5]),
        ([2 ** 62 + 1, "-inf", 0.5], [float(2 ** 62 + 1), -np.inf, 0.5]),
    ])
    def test_mixed_row_values(self, row, values):
        d = matrices_to_dict(uniform_matrices(1, ("NP", "N", "N/N")))
        d["tag_logp"][0] = row
        np.testing.assert_array_equal(matrices_from_dict(d).tag_logp[0],
                                      values)

    @pytest.mark.parametrize("row, message", [
        ([0.5, "huge", "-inf"], "bad score value 'huge'"),
        (["-inf", 0.5, "inf"], "bad score value 'inf'"),
        ([True, "1.5", 0.5], "bad score value '1.5'"),
        (["-inf", None, 0.5], "score matrices must be rectangular lists of "
                              "numbers"),
        ([None, 0.5, 0.5], "score matrices must be rectangular lists of "
                           "numbers"),
        ([0.5, [0.5], "-inf"], "score matrices must be rectangular lists of "
                               "numbers"),
        ([10 ** 400, 0.5, 0.5], "score value too large for a float"),
        ([10 ** 400, "-inf", 0.5], "score value too large for a float"),
    ])
    def test_bad_row_message(self, row, message):
        d = matrices_to_dict(uniform_matrices(2, ("NP", "N", "N/N")))
        d["tag_logp"][1] = row
        with pytest.raises(DataError) as raised:
            matrices_from_dict(d)
        assert str(raised.value) == message
