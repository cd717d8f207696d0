import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrdiag import (
    ALL_FACTORS,
    FACTOR_GROUPS,
    OPERATIONAL_FACTORS,
    STRATEGIC_FACTORS,
    TACTICAL_FACTORS,
    Activation,
    GridRow,
    LayerSpec,
    NetworkConfig,
    NormalizationMap,
    QuestionnaireResponse,
    SweepConfig,
    TrainParams,
    aggregate_questionnaire,
    assign_surrogate_targets,
    load_csv,
    load_embedded,
    load_questionnaire_csv,
    normalize,
    prepared_embedded,
    split_70_30,
)
from hrdiag import data


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
        assert aggregate_questionnaire(questionnaire(3.0)) == (3.0, 3.0, 3.0)

    def test_group_separation(self):
        scores = {f: 5.0 for f in STRATEGIC_FACTORS}
        scores.update({f: 1.0 for f in TACTICAL_FACTORS + OPERATIONAL_FACTORS})
        assert aggregate_questionnaire(QuestionnaireResponse(scores)) == (5.0, 1.0, 1.0)

    def test_strategic_mean(self):
        values = (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)
        scores = {f: float(v) for f, v in zip(STRATEGIC_FACTORS, values)}
        scores.update({f: 1.0 for f in TACTICAL_FACTORS + OPERATIONAL_FACTORS})
        strategic, _, _ = aggregate_questionnaire(QuestionnaireResponse(scores))
        assert strategic == 3.0

    def test_missing_factor_named(self):
        scores = {f: 3.0 for f in ALL_FACTORS if f != "leadership"}
        with pytest.raises(ValueError, match="leadership"):
            QuestionnaireResponse(scores)

    def test_non_finite_score_named(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"factor leadership: score {bad} outside"):
                questionnaire(leadership=bad)

    def test_unknown_factor_named(self):
        scores = {f: 3.0 for f in ALL_FACTORS}
        scores["swagger"] = 3.0
        with pytest.raises(ValueError, match="swagger"):
            QuestionnaireResponse(scores)

    def test_aggregates_stay_in_likert_range(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            scores = {f: float(rng.uniform(1.0, 5.0)) for f in ALL_FACTORS}
            values = aggregate_questionnaire(QuestionnaireResponse(scores))
            assert all(1.0 <= v <= 5.0 for v in values)


def write_repr_csv(path, X, T=None):
    # Normalized values such as -1/3 need all 17 digits of repr.
    header = "strategic,tactical,operational" + (",target" if T is not None else "")
    cells = X if T is None else np.hstack([X, T])
    lines = [header] + [",".join(repr(v) for v in row) for row in cells.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEmbeddedData:
    def test_sizes(self):
        ds = load_embedded()
        assert ds.training[0].shape == (52, 3) and ds.training[1] is None
        assert ds.testing[0].shape == (23, 3) and ds.testing[1] is None

    def test_spot_values(self):
        X, _ = load_embedded().training
        Xt, _ = load_embedded().testing
        assert X[0].tolist() == [1.0, 2.0, 1.0]     # Emp1
        assert X[29].tolist() == [5.0, 5.0, 5.0]    # Emp30
        assert Xt[15].tolist() == [0.0, 0.0, 0.0]   # Empt16
        assert Xt[0].tolist() == [1.3, 1.2, 1.1]    # Empt1

    def test_values_within_declared_range(self):
        ds = load_embedded()
        X = np.vstack([ds.training[0], ds.testing[0]])
        assert X.dtype == np.float64
        assert ((-1.0 <= X) & (X <= 5.0)).all()

    def test_csv_round_trip(self, tmp_path):
        X, _ = load_embedded().training
        path = tmp_path / "train.csv"
        write_repr_csv(path, X)
        X_read, T_read = load_csv(path)
        assert_same_bytes(X_read, X)
        assert T_read is None

    def test_csv_round_trip_with_targets(self, tmp_path):
        ds = prepared_embedded()
        X = np.vstack([ds.training[0], ds.testing[0]])
        T = np.vstack([ds.training[1], ds.testing[1]])
        path = tmp_path / "data.csv"
        write_repr_csv(path, X, T)
        X_read, T_read = load_csv(path)
        assert_same_bytes(X_read, X)
        assert_same_bytes(T_read, T)


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2,1\n")
        X, T = load_csv(path)
        assert X.dtype == np.float64 and X.tolist() == [[1.0, 2.0, 1.0]]
        assert T is None

    def test_with_targets(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational,target\n5,5,5,0.9\n")
        X, T = load_csv(path)
        assert X.tolist() == [[5.0, 5.0, 5.0]]
        assert T.dtype == np.float64 and T.tolist() == [[0.9]]

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2\n")
        with pytest.raises(ValueError, match="row 1: expected 3 columns"):
            load_csv(path)

    def test_malformed_number_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n1,2,3\n1,x,3\n")
        with pytest.raises(ValueError, match="row 2, column 'tactical'"):
            load_csv(path)
        # Every cell is parsed before any range check.
        path = self.write(tmp_path, "strategic,tactical,operational\n9,2,3\n1,x,3\n")
        with pytest.raises(ValueError, match="row 2, column 'tactical': malformed"):
            load_csv(path)

    def test_input_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational\n6,1,1\n")
        with pytest.raises(ValueError, match=r"row 1, column 'strategic'.*\[-1, 5\]"):
            load_csv(path)

    def test_target_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "strategic,tactical,operational,target\n1,1,1,1.5\n")
        with pytest.raises(ValueError, match=r"row 1, column 'target'.*\[-1, 1\]"):
            load_csv(path)

    def test_rejects_out_of_range(self, tmp_path):
        inputs = "strategic,tactical,operational"
        targeted = inputs + ",target"
        cases = [
            (inputs, "6,1,1", r"column 'strategic': value 6.0 outside \[-1, 5\]"),
            (targeted, "1,1,1,1.5", r"column 'target': value 1.5 outside \[-1, 1\]"),
            (inputs, "1,nan,1", r"column 'tactical': value nan outside \[-1, 5\]"),
            (inputs, "1,1,inf", r"column 'operational': value inf outside \[-1, 5\]"),
            (targeted, "1,1,1,-inf", r"column 'target': value -inf outside \[-1, 1\]"),
        ]
        for header, row, message in cases:
            path = self.write(tmp_path, f"{header}\n{row}\n")
            with pytest.raises(ValueError, match=rf"^row 1, {message}$"):
                load_csv(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="bad header"):
            load_csv(path)

    def test_sub_one_values_load_without_warning(self, tmp_path, recwarn):
        path = self.write(tmp_path, "strategic,tactical,operational\n0.5,2,3\n")
        X, _ = load_csv(path)
        assert X.tolist() == [[0.5, 2.0, 3.0]]
        assert len(recwarn) == 0

    def test_header_only_file_is_an_empty_set(self, tmp_path, recwarn):
        for text in ("strategic,tactical,operational\n", "strategic,tactical,operational"):
            X, T = load_csv(self.write(tmp_path, text))
            assert X.dtype == np.float64 and X.shape == (0, 3) and T is None
        assert len(recwarn) == 0

    def test_undecodable_byte_names_its_line(self, tmp_path):
        # Past the decoder's first chunks, so a chunk-relative offset would not do.
        rows = ["1.25,2.5,3.75"] * 1500
        text = "\n".join(["strategic,tactical,operational"] + rows) + "\n"
        path = tmp_path / "late.csv"
        path.write_bytes(text.encode("utf-8") + b"1,\xff,1\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: line 1502: not UTF-8 (invalid start byte)"

    def test_undecodable_byte_after_a_chunk_ending_in_lone_cr(self, tmp_path):
        # Byte 8,191 ends the decoder's first 8 KiB chunk with a lone \r line
        # end, which the decoder holds back; the bad byte lies on line 1362.
        data = bytearray(b"strategic,tactical,operational\r1,2,33\r" + b"1,2,3\r" * 2999)
        assert data[8191:8192] == b"\r"
        data[8194] = 0xFF
        path = tmp_path / "cr.csv"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: line 1362: not UTF-8 (invalid start byte)"


    @pytest.mark.parametrize("header", ['strategic,tactical,"operational',
                                        '"strategic",tactical,operational'])
    def test_quoted_header_reads_as_the_row_reader_reads_it(self, tmp_path, header):
        # A quote left open on the first line closes on a later one, or never.
        path = self.write(tmp_path, header + "\n1,2,3\n")
        with mock.patch.object(data, "_loadtxt_cells", side_effect=ValueError):
            by_rows = load_outcome(path)
        assert load_outcome(path) == by_rows

IN_RANGE = {"input": st.floats(-1.0, 5.0), "target": st.floats(-1.0, 1.0)}
OUT_OF_RANGE = {
    kind: st.floats(max_value=lo, exclude_max=True, allow_infinity=False)
    | st.floats(min_value=hi, exclude_min=True, allow_infinity=False)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    for kind, lo, hi in (("input", -1.0, 5.0), ("target", -1.0, 1.0))
}


@st.composite
def grids(draw, min_rows=0):
    """A repr-ready grid of in-range cells: (rows, has a target column)."""
    targeted = draw(st.booleans())
    kinds = ["input"] * 3 + ["target"] * targeted
    n = draw(st.integers(min_rows, 6))
    rows = [[draw(IN_RANGE[kind]) for kind in kinds] for _ in range(n)]
    return rows, targeted


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.csv"


def write_grid(path, rows, targeted):
    header = "strategic,tactical,operational" + (",target" if targeted else "")
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsvProperties:
    @settings(deadline=None, max_examples=100)
    @given(grid=grids())
    def test_repr_grid_round_trips(self, csv_path, grid):
        rows, targeted = grid
        write_grid(csv_path, rows, targeted)
        X, T = load_csv(csv_path)
        cells = np.array(rows, dtype=float).reshape(-1, 3 + targeted)
        assert_same_bytes(X, np.ascontiguousarray(cells[:, :3]))
        if targeted:
            assert_same_bytes(T, np.ascontiguousarray(cells[:, 3:]))
        else:
            assert T is None

    @settings(deadline=None, max_examples=100)
    @given(grid=grids(min_rows=1), data=st.data())
    def test_first_bad_cell_is_reported(self, csv_path, grid, data):
        rows, targeted = grid
        ncols = 3 + targeted
        cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, ncols - 1))
        planted = data.draw(st.lists(cells, min_size=1, max_size=4, unique=True))
        for r, c in planted:
            rows[r][c] = data.draw(OUT_OF_RANGE["target" if c == 3 else "input"])
        write_grid(csv_path, rows, targeted)
        r, c = min(planted)
        name = ("strategic", "tactical", "operational", "target")[c]
        bounds = "[-1, 1]" if c == 3 else "[-1, 5]"
        expected = f"row {r + 1}, column '{name}': value {rows[r][c]} outside {bounds}"
        with pytest.raises(ValueError) as exc:
            load_csv(csv_path)
        assert str(exc.value) == expected


HUGE_CELL = b"1" * 131_073  # one past the csv module's field limit

# Header lines and byte runs the csv reader and the UTF-8 decoder trip on.
CSV_PIECES = [b"strategic,tactical,operational", b"factor_id,score", b"leadership", b"1",
              b"2.5", b",", b"\n", b"\r\n", b'"', b'""', b"\x00", b"\xff", b"\xc3", b"\xe9",
              HUGE_CELL]


@settings(deadline=None, max_examples=150)
@given(content=st.one_of(st.binary(max_size=64),
                         st.lists(st.sampled_from(CSV_PIECES), max_size=12).map(b"".join)))
@example(content=b"strategic,tactical,operational\n1,1," + HUGE_CELL + b"\n")
@example(content=b"factor_id,score\nleadership," + HUGE_CELL + b"\n")
@example(content=b"factor_id,score\n\xff,1\n")
def test_csv_loaders_read_any_bytes_or_raise_value_error(csv_path, content):
    # Whatever the bytes, each loader returns or raises ValueError, never
    # csv.Error or another exception a caller does not expect.
    csv_path.write_bytes(content)
    for load in (load_csv, load_questionnaire_csv):
        try:
            load(csv_path)
        except ValueError:
            pass


def format_number(value, style, digits):
    return repr(value) if style == "r" else f"{value:.{digits}{style}}"


# Cell texts np.loadtxt and float() both read: repr'd, %.Nf and %.Ne numbers,
# in and out of range, and the spellings of infinity and NaN.
NUMBER_TEXTS = st.builds(format_number,
                         st.floats(-2.0, 6.0) | st.sampled_from([math.inf, -math.inf, math.nan]),
                         st.sampled_from("rfe"), st.integers(0, 17)) \
    | st.sampled_from(["Infinity", "-Infinity", "nan", "-nan", "+inf"])
# Cells the two readers may disagree on: ones only float() reads or neither
# does, whitespace around a number (loadtxt also strips \x1c-\x1f, which
# float() rejects), and cells past the csv field limit, one in range once parsed.
ODD_CELLS = ["1_0", "\u0661", '"1"', '"2.5"', "\x0b3", "3\x0c", " 4 ", "\xa04\u2028", "", " ",
             "\x1c3", "3\x1f", HUGE_CELL.decode(), "0" * len(HUGE_CELL)]
BLANK_LINES = ["", " ", "\t"]
# Headers to swap in: either kind, one the csv reader and strip() accept, one wrong.
HEADERS = [["strategic", "tactical", "operational"],
           ["strategic", "tactical", "operational", "target"],
           ['"strategic"', " tactical", "operational "], ["Strategic", "tactical", "operational"]]


@st.composite
def respondent_texts(draw):
    """Respondent CSV text, and whether it is plain: at least one row, only
    NUMBER_TEXTS cells, the header's column count, \\n or \\r\\n line ends."""
    header = ["strategic", "tactical", "operational"] + ["target"] * draw(st.booleans())
    rows = draw(st.lists(st.lists(NUMBER_TEXTS, min_size=len(header), max_size=len(header)),
                         max_size=6))
    lines = [header] + rows
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    edits = draw(st.lists(st.sampled_from(["cell", "blank", "cr", "short", "header"]),
                          max_size=3))
    for edit in edits:
        i = draw(st.integers(1, len(lines)))
        if edit == "header":
            lines[0] = draw(st.sampled_from(HEADERS))
        elif edit == "blank":
            lines.insert(i, [draw(st.sampled_from(BLANK_LINES))])
            ends.insert(i, draw(st.sampled_from(["\n", "\r\n", "\r"])))
        elif edit == "cr":
            ends[i - 1] = "\r"
        elif i < len(lines) and lines[i]:
            row = lines[i]
            if edit == "short":
                row.pop()
            else:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    text = "".join(",".join(cells) + end for cells, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    return text, bool(rows) and not edits


def load_outcome(path):
    """What load_csv gives: each array's dtype, shape, layout and bytes, or
    the ValueError message."""
    try:
        arrays = load_csv(path)
    except ValueError as exc:
        return str(exc)
    return [None if a is None else (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in arrays]


@settings(deadline=None, max_examples=120)
@given(generated=respondent_texts())
@example(generated=("strategic,tactical,operational\n1,2,3\n\n", False))
@example(generated=("strategic,tactical,operational\n1,2,3\r4,5,1\n\n", False))
@example(generated=("strategic,tactical,operational\r\n1,2,3\r\n\r\n", False))
@example(generated=("strategic,tactical,operational\n\n", False))
@example(generated=("strategic,tactical,operational\n1,2," + "0" * 131_073 + "\n", False))
@example(generated=("strategic,tactical,operational\n1,2,1_0\n", False))
@example(generated=("Strategic,tactical,operational\n1,2,3\n", False))
@example(generated=("strategic,tactical,operational,target\n1,2,3\n", False))
@example(generated=("strategic,tactical,operational\n1,2,\x1c3\n", False))
@example(generated=("strategic,tactical,operational\r\r\n1,2,3\n", False))
def test_loadtxt_pass_matches_row_reader(csv_path, generated):
    # Whatever the text, load_csv gives the same X and T, bytes and layout
    # included, or the same message, as when the loadtxt pass refuses every
    # file and the row-by-row reader reads them all.  A plain file must not
    # need the row reader.
    text, plain = generated
    csv_path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "_loadtxt_cells", side_effect=ValueError):
        by_rows = load_outcome(csv_path)
    assert load_outcome(csv_path) == by_rows
    if plain:
        data._loadtxt_cells(text)


class TestNormalization:
    def test_fixed_map_values(self):
        (X, _), nmap = normalize((np.array([[2.0, -1.0, 5.0]]), None))
        assert X.tolist() == [[0.0, -1.0, 1.0]]
        assert (nmap.offset, nmap.scale) == (2.0, 3.0)

    def test_emp1_mapping(self):
        (X, _), _ = normalize((np.array([[1.0, 2.0, 1.0]]), None))
        assert X.tolist() == [[-1.0 / 3.0, 0.0, -1.0 / 3.0]]

    def test_targets_untouched(self):
        T = np.array([[0.9]])
        (_, T_out), _ = normalize((np.array([[5.0, 5.0, 5.0]]), T))
        assert T_out is T


def one_row(s, t, o):
    return np.array([[s, t, o]]), None


class TestSurrogateTargets:
    def test_reference_rows(self):
        _, T = assign_surrogate_targets(load_embedded().training)
        assert T.shape == (52, 1) and T.dtype == np.float64
        assert T[29, 0] == 0.9    # Emp30 (5, 5, 5)
        assert T[5, 0] == -0.9    # Emp6 (1, 1, 1)

    def test_boundary_is_inclusive(self):
        _, T = assign_surrogate_targets(one_row(1.5, 3.0, 3.0))  # mean exactly 2.5
        assert T[0, 0] == 0.9

    def test_only_two_values(self):
        ds = load_embedded()
        for respondents in (ds.training, ds.testing):
            _, T = assign_surrogate_targets(respondents)
            assert set(T[:, 0].tolist()) <= {-0.9, 0.9}

    def test_threshold_configurable(self):
        respondents = one_row(3.0, 3.0, 3.0)
        assert assign_surrogate_targets(respondents, threshold=3.5)[1][0, 0] == -0.9
        assert assign_surrogate_targets(respondents, threshold=2.0)[1][0, 0] == 0.9

    def test_matches_per_row_rule(self):
        # Reference: the scalar rule (s + t + o) / 3.0 >= threshold, row by row.
        rng = np.random.default_rng(3)
        X = np.round(rng.uniform(-1.0, 5.0, size=(500, 3)), 1)
        for threshold in (2.5, 1.0, 3.3):
            _, T = assign_surrogate_targets((X, None), threshold)
            expected = [0.9 if (s + t + o) / 3.0 >= threshold else -0.9
                        for s, t, o in X.tolist()]
            assert T[:, 0].tolist() == expected


class TestSplit:
    def make(self, n):
        X = np.column_stack([1.0 + (np.arange(n) % 40) * 0.1, np.ones(n), np.ones(n)])
        return X, None

    @pytest.mark.parametrize("n,expected", [(10, (7, 3)), (75, (53, 22)), (20, (14, 6)),
                                            (2, (2, 0))])
    def test_sizes(self, n, expected):
        (X_train, _), (X_test, _) = split_70_30(self.make(n), seed=1)
        assert (len(X_train), len(X_test)) == expected

    def test_partition(self):
        X, _ = self.make(30)
        T = X[:, :1] / 10.0  # targets must travel with their rows
        (X_train, T_train), (X_test, T_test) = split_70_30((X, T), seed=5)
        train, test = X_train[:, 0].tolist(), X_test[:, 0].tolist()
        assert sorted(train + test) == sorted(X[:, 0].tolist())
        assert not set(train) & set(test)
        assert (T_train == X_train[:, :1] / 10.0).all() and (T_test == X_test[:, :1] / 10.0).all()

    def test_deterministic(self):
        respondents = self.make(25)
        (a, _), (b, _) = split_70_30(respondents, seed=9)
        (c, _), (d, _) = split_70_30(respondents, seed=9)
        assert np.array_equal(a, c) and np.array_equal(b, d)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_70_30(self.make(1), seed=0)


_OUTPUT = (LayerSpec(1, Activation.TANSIG),)

# Every count, budget and seed: a call that puts ``v`` in the field, the
# field's name as its message gives it, and the lowest value allowed.
INTEGER_SITES = [
    pytest.param(lambda v: LayerSpec(v, Activation.TANSIG), "neuron count", 1, id="neurons"),
    pytest.param(lambda v: NetworkConfig(v, _OUTPUT), "input_dim", 1, id="input_dim"),
    pytest.param(lambda v: NetworkConfig(3, _OUTPUT, seed=v), "seed", 0, id="config-seed"),
    pytest.param(lambda v: TrainParams(max_epochs=v), "max_epochs", 0, id="max_epochs"),
    pytest.param(lambda v: GridRow((), v), "epochs", 0, id="grid-epochs"),
    pytest.param(lambda v: SweepConfig([GridRow((), 1)], (1, v)), "seed", 0, id="sweep-seed"),
    pytest.param(lambda v: split_70_30((np.ones((4, 3)), None), v), "seed", 0, id="split-seed"),
]


@pytest.mark.parametrize("bad", ["fraction", "bool", "below"])
@pytest.mark.parametrize("make, name, low", INTEGER_SITES)
def test_every_count_and_seed_is_an_integer_at_its_bound(make, name, low, bad):
    make(low)
    value = {"fraction": 2.5, "bool": True, "below": low - 1}[bad]
    if bad == "below":
        message = f"{name} must be {'non-negative' if low == 0 else f'at least {low}'}, got {value}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as raised:
        make(value)
    assert str(raised.value) == message


class TestPreparedEmbedded:
    def test_ready_to_train(self):
        ds = prepared_embedded()
        assert ds.training[0].shape == (52, 3) and ds.training[1].shape == (52, 1)
        assert ds.testing[0].shape == (23, 3) and ds.testing[1].shape == (23, 1)
        assert ds.normalization == NormalizationMap()
        for X, T in (ds.training, ds.testing):
            assert set(T[:, 0].tolist()) <= {-0.9, 0.9}
            assert ((-1.0 <= X) & (X <= 1.0)).all()


class TestQuestionnaireCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "q.csv"
        lines = ["factor_id,score"] + [f"{f},3" for f in ALL_FACTORS]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resp = load_questionnaire_csv(path)
        assert aggregate_questionnaire(resp) == (3.0, 3.0, 3.0)

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

    VALID = ["factor_id,score"] + [f"{f},3" for f in ALL_FACTORS]
    # One file per fault: its bytes, then the message, in which {path} is the file.
    FAULTS = {
        "bad header": (b"factor,value\nleadership,3\n",
                       "{path}: expected header 'factor_id,score'"),
        "3 columns": ("\n".join(VALID[:5] + ["vision,3,3"] + VALID[5:]).encode(),
                      "row 5: expected 2 columns, found 3"),
        "duplicate id": ("\n".join(VALID + [f"{ALL_FACTORS[3]},4"]).encode(),
                         f"row 34: duplicate factor id '{ALL_FACTORS[3]}'"),
        "malformed score": ("\n".join(VALID[:2] + [f"{ALL_FACTORS[1]},3..5"] + VALID[3:]).encode(),
                            "row 2, column 'score': malformed number '3..5'"),
        "unknown id": ("\n".join(VALID + ["vision,3"]).encode(), "unknown factor id(s): vision"),
        "missing id": ("\n".join(VALID[:7] + VALID[8:]).encode(),
                       f"missing factor(s): {ALL_FACTORS[6]}"),
        "out-of-range score": ("\n".join(VALID[:-1] + [f"{ALL_FACTORS[-1]},5.5"]).encode(),
                               f"factor {ALL_FACTORS[-1]}: score 5.5 outside [-1, 5]"),
        "non-UTF-8 byte": ("\r\n".join(VALID[:12]).encode() + b"\r\n\xe9,3\r\n",
                           "{path}: line 13: not UTF-8 (invalid continuation byte)"),
        "cell over the field limit": (b"factor_id,score\nleadership," + HUGE_CELL + b"\n",
                                      "{path}: field larger than field limit (131072)"),
        "empty file": (b"", "{path}: expected header 'factor_id,score'"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_has_its_message(self, tmp_path, fault):
        content, message = self.FAULTS[fault]
        path = tmp_path / "q.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            load_questionnaire_csv(path)
        assert str(exc.value) == message.format(path=path)

    def test_undecodable_byte_is_reported_before_an_earlier_fault(self, tmp_path):
        # The file is decoded whole before it is parsed, so a bad byte past
        # the first 8 KiB outranks the 3-column row 1 before it.
        lines = ["factor_id,score", "leadership,3,3"] + ["vision,3"] * 1500
        path = tmp_path / "q.csv"
        path.write_bytes("\n".join(lines).encode() + b"\n\xff,3\n")
        with pytest.raises(ValueError) as exc:
            load_questionnaire_csv(path)
        assert str(exc.value) == f"{path}: line 1503: not UTF-8 (invalid start byte)"
