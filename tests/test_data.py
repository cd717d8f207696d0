import numpy as np
import pytest

from hrdiag import (
    ALL_FACTORS,
    FACTOR_GROUPS,
    OPERATIONAL_FACTORS,
    STRATEGIC_FACTORS,
    TACTICAL_FACTORS,
    NormalizationMap,
    Pattern,
    QuestionnaireResponse,
    aggregate_questionnaire,
    assign_surrogate_targets,
    load_csv,
    load_embedded,
    load_questionnaire_csv,
    normalize,
    prepared_embedded,
    split_70_30,
)


def questionnaire(default=3.0, **overrides):
    scores = {f: default for f in ALL_FACTORS}
    scores.update(overrides)
    return QuestionnaireResponse(scores)


class TestFactorCatalog:
    def test_group_sizes(self):
        assert len(STRATEGIC_FACTORS) == 10
        assert len(TACTICAL_FACTORS) == 14
        assert len(OPERATIONAL_FACTORS) == 9
        assert len(ALL_FACTORS) == 33
        assert len(set(ALL_FACTORS)) == 33

    def test_canonical_order(self):
        assert ALL_FACTORS == STRATEGIC_FACTORS + TACTICAL_FACTORS + OPERATIONAL_FACTORS
        assert tuple(FACTOR_GROUPS) == ("strategic", "tactical", "operational")


class TestAggregation:
    def test_constant_scores(self):
        p = aggregate_questionnaire(questionnaire(3.0))
        assert p.inputs == (3.0, 3.0, 3.0)
        assert p.target is None

    def test_group_separation(self):
        scores = {f: 5.0 for f in STRATEGIC_FACTORS}
        scores.update({f: 1.0 for f in TACTICAL_FACTORS + OPERATIONAL_FACTORS})
        p = aggregate_questionnaire(QuestionnaireResponse(scores))
        assert p.inputs == (5.0, 1.0, 1.0)

    def test_strategic_mean(self):
        values = (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)
        scores = {f: float(v) for f, v in zip(STRATEGIC_FACTORS, values)}
        scores.update({f: 1.0 for f in TACTICAL_FACTORS + OPERATIONAL_FACTORS})
        p = aggregate_questionnaire(QuestionnaireResponse(scores))
        assert p.strategic == 3.0

    def test_missing_factor_named(self):
        scores = {f: 3.0 for f in ALL_FACTORS if f != "leadership"}
        with pytest.raises(ValueError, match="leadership"):
            QuestionnaireResponse(scores)

    def test_unknown_factor_named(self):
        scores = {f: 3.0 for f in ALL_FACTORS}
        scores["swagger"] = 3.0
        with pytest.raises(ValueError, match="swagger"):
            QuestionnaireResponse(scores)

    def test_aggregates_stay_in_likert_range(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            scores = {f: float(rng.uniform(1.0, 5.0)) for f in ALL_FACTORS}
            p = aggregate_questionnaire(QuestionnaireResponse(scores))
            assert all(1.0 <= v <= 5.0 for v in p.inputs)


class TestEmbeddedData:
    def test_sizes(self):
        ds = load_embedded()
        assert len(ds.training) == 52
        assert len(ds.testing) == 23

    def test_spot_values(self):
        ds = load_embedded()
        assert ds.training[0].inputs == (1.0, 2.0, 1.0)     # Emp1
        assert ds.training[29].inputs == (5.0, 5.0, 5.0)    # Emp30
        assert ds.testing[15].inputs == (0.0, 0.0, 0.0)     # Empt16
        assert ds.testing[0].inputs == (1.3, 1.2, 1.1)      # Empt1

    def test_values_within_declared_range(self):
        ds = load_embedded()
        for p in ds.training + ds.testing:
            assert all(-1.0 <= v <= 5.0 for v in p.inputs)

    @staticmethod
    def write_repr_csv(path, patterns, with_targets):
        # Normalized values such as -1/3 need all 17 digits of repr.
        header = "strategic,tactical,operational" + (",target" if with_targets else "")
        rows = [p.inputs + ((p.target,) if with_targets else ()) for p in patterns]
        lines = [header] + [",".join(repr(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_csv_round_trip(self, tmp_path):
        training = load_embedded().training
        path = tmp_path / "train.csv"
        self.write_repr_csv(path, training, with_targets=False)
        with pytest.warns(UserWarning):  # sub-1 values in the bundled data
            assert load_csv(path) == training

    def test_csv_round_trip_with_targets(self, tmp_path):
        ds = prepared_embedded()
        patterns = ds.training + ds.testing
        path = tmp_path / "data.csv"
        self.write_repr_csv(path, patterns, with_targets=True)
        with pytest.warns(UserWarning):  # values below 1
            assert load_csv(path) == patterns


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2,1\n")
        assert load_csv(path) == [Pattern(1.0, 2.0, 1.0)]

    def test_with_targets(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational,target\n5,5,5,0.9\n")
        assert load_csv(path) == [Pattern(5.0, 5.0, 5.0, 0.9)]

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2\n")
        with pytest.raises(ValueError, match="row 1: expected 3 columns"):
            load_csv(path)

    def test_malformed_number_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2,3\n1,x,3\n")
        with pytest.raises(ValueError, match="row 2, column 'tactical'"):
            load_csv(path)

    def test_input_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n6,1,1\n")
        with pytest.raises(ValueError, match=r"row 1, column 'strategic'.*\[-1, 5\]"):
            load_csv(path)

    def test_target_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational,target\n1,1,1,1.5\n")
        with pytest.raises(ValueError, match=r"row 1, column 'target'.*\[-1, 1\]"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="bad header"):
            load_csv(path)

    def test_sub_one_values_warn_but_load(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n0.5,2,3\n")
        with pytest.warns(UserWarning, match="below the 1..5"):
            patterns = load_csv(path)
        assert patterns == [Pattern(0.5, 2.0, 3.0)]


class TestNormalization:
    def test_fixed_map_values(self):
        patterns, nmap = normalize([Pattern(2.0, -1.0, 5.0)])
        assert patterns[0].inputs == (0.0, -1.0, 1.0)
        assert (nmap.offset, nmap.scale) == (2.0, 3.0)

    def test_emp1_mapping(self):
        patterns, _ = normalize([Pattern(1.0, 2.0, 1.0)])
        assert patterns[0].inputs == (-1.0 / 3.0, 0.0, -1.0 / 3.0)

    def test_targets_untouched(self):
        patterns, _ = normalize([Pattern(5.0, 5.0, 5.0, 0.9)])
        assert patterns[0].target == 0.9


class TestSurrogateTargets:
    def test_reference_rows(self):
        ds = load_embedded()
        labeled = assign_surrogate_targets(ds.training)
        assert labeled[29].target == 0.9    # Emp30 (5, 5, 5)
        assert labeled[5].target == -0.9    # Emp6 (1, 1, 1)

    def test_boundary_is_inclusive(self):
        labeled = assign_surrogate_targets([Pattern(1.5, 3.0, 3.0)])  # mean exactly 2.5
        assert labeled[0].target == 0.9

    def test_only_two_values(self):
        ds = load_embedded()
        labeled = assign_surrogate_targets(ds.training + ds.testing)
        assert {p.target for p in labeled} <= {-0.9, 0.9}

    def test_threshold_configurable(self):
        pattern = Pattern(3.0, 3.0, 3.0)
        assert assign_surrogate_targets([pattern], threshold=3.5)[0].target == -0.9
        assert assign_surrogate_targets([pattern], threshold=2.0)[0].target == 0.9


class TestSplit:
    def make(self, n):
        return [Pattern(1.0 + (i % 40) * 0.1, 1.0, 1.0) for i in range(n)]

    @pytest.mark.parametrize("n,expected", [(10, (7, 3)), (75, (53, 22)), (20, (14, 6)),
                                            (2, (2, 0))])
    def test_sizes(self, n, expected):
        train, test = split_70_30(self.make(n), seed=1)
        assert (len(train), len(test)) == expected

    def test_partition(self):
        patterns = self.make(30)
        train, test = split_70_30(patterns, seed=5)
        assert sorted(map(id, train + test)) == sorted(map(id, patterns))
        assert not set(map(id, train)) & set(map(id, test))

    def test_deterministic(self):
        patterns = self.make(25)
        assert split_70_30(patterns, seed=9) == split_70_30(patterns, seed=9)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_70_30(self.make(1), seed=0)


class TestPattern:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^column 'strategic': value 6.0 outside \[-1, 5\]$"):
            Pattern(6.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^column 'target': value 1.5 outside \[-1, 1\]$"):
            Pattern(1.0, 1.0, 1.0, target=1.5)
        with pytest.raises(ValueError, match="column 'tactical': value nan"):
            Pattern(1.0, float("nan"), 1.0)
        with pytest.raises(ValueError, match="column 'operational': value inf"):
            Pattern(1.0, 1.0, float("inf"))


class TestPreparedEmbedded:
    def test_ready_to_train(self):
        ds = prepared_embedded()
        assert len(ds.training) == 52 and len(ds.testing) == 23
        assert ds.normalization == NormalizationMap()
        for p in ds.training + ds.testing:
            assert p.target in (-0.9, 0.9)
            assert all(-1.0 <= v <= 1.0 for v in p.inputs)


class TestQuestionnaireCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "q.csv"
        lines = ["factor_id,score"] + [f"{f},3" for f in ALL_FACTORS]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resp = load_questionnaire_csv(path)
        assert aggregate_questionnaire(resp).inputs == (3.0, 3.0, 3.0)

    def test_duplicate_factor_named(self, tmp_path):
        path = tmp_path / "q.csv"
        lines = ["factor_id,score"] + [f"{f},3" for f in ALL_FACTORS] + ["leadership,4"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate factor id 'leadership'"):
            load_questionnaire_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("factor,value\nleadership,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="factor_id,score"):
            load_questionnaire_csv(path)
