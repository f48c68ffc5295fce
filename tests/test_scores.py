"""Score matrix container, normalization checking, and the JSON exchange
format."""

import json

import numpy as np
import pytest

from d2cc import DataError, ScoreMatrices, check_normalized, read_score_file, write_score_file
from d2cc.scores import matrices_from_dict, matrices_to_dict


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
