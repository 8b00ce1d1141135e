import copy
import pickle

import numpy as np
import pytest

from lmmbic.candidates import (
    SimulationDesign,
    TrueParameters,
    enumerate_candidates,
    generate_dataset,
)
from lmmbic.data import DataFormatError, Dataset, SubjectBlock, read_dataset
from lmmbic.estimation import UnidentifiableModelError, fit_ml


def make_block(sid="s1", n=4, c=0.5):
    rng = np.random.default_rng(7)
    return SubjectBlock(id=sid, x=np.arange(n, dtype=float), c=c, y=rng.normal(size=n))


class TestSubjectBlock:
    def test_basic_properties(self):
        block = make_block(n=5)
        assert block.n_obs == 5
        assert block.c == 0.5


class TestDataset:
    def test_counts(self):
        data = Dataset(subjects=(make_block("a", 3), make_block("b", 5)))
        assert data.n_subjects == 2
        assert data.n_obs == 8

    def test_columns(self):
        data = Dataset(subjects=(make_block("a", 3, c=1.0), make_block("b", 2, c=2.0)))
        assert data.ids == ("a", "b")
        np.testing.assert_array_equal(data.bounds, [0, 3, 5])
        np.testing.assert_array_equal(data.x, [0.0, 1.0, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(data.y[3:], make_block("b", 2).y)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(subjects=(make_block("a"), make_block("a")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Dataset(subjects=())

    def test_subject_covariates(self):
        data = Dataset(subjects=(make_block("a", c=1.5), make_block("b", c=-2.0)))
        np.testing.assert_array_equal(data.c, [1.5, -2.0])

    def test_length_mismatch_rejected(self):
        block = SubjectBlock(id="s1", x=np.arange(3.0), c=0.0, y=np.arange(4.0))
        with pytest.raises(ValueError, match="rows"):
            Dataset(subjects=(block,))

    def test_empty_block_rejected(self):
        block = SubjectBlock(id="s1", x=np.array([]), c=0.0, y=np.array([]))
        with pytest.raises(ValueError, match="no observations"):
            Dataset(subjects=(make_block("s0"), block))

    def test_non_finite_rejected(self):
        block = SubjectBlock(id="s1", x=np.array([0.0, np.nan]), c=0.0, y=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(subjects=(block,))

    def test_each_check_names_its_subject(self):
        cases = [
            (dict(x=np.zeros((2, 2)), y=np.zeros(4)), "'bad': x and y must be one-dimensional"),
            (dict(y=np.zeros(3)), "'bad': x has 4 rows but y has 3"),
            (dict(y=np.array([0.0, 1.0, np.inf, 2.0])), "'bad' contains non-finite values"),
            (dict(c=np.nan), "'bad' has a non-finite covariate"),
        ]
        for fields, message in cases:
            bad = SubjectBlock(**{**make_block("bad").__dict__, **fields})
            with pytest.raises(ValueError, match=message):
                Dataset(subjects=(make_block("a"), bad, make_block("b")))
        with pytest.raises(ValueError, match="'s1' has a non-finite covariate"):
            Dataset.from_columns(["s0", "s1"], [1, 1], [0.0, np.inf], [0.0, 1.0], [1.0, 2.0])

    def test_earlier_subject_reported_first(self):
        # s2 fails the first check and s1 only the last: s1 is named
        late = SubjectBlock(id="s1", x=np.arange(2.0), c=np.nan, y=np.zeros(2))
        early = SubjectBlock(id="s2", x=np.zeros((1, 2)), c=0.0, y=np.zeros(2))
        with pytest.raises(ValueError, match="'s1' has a non-finite covariate"):
            Dataset(subjects=(make_block("s0"), late, early))
        with pytest.raises(ValueError, match="'s2': x and y must be one-dimensional"):
            Dataset(subjects=(make_block("s0"), early, late))

    def test_arrays_are_readonly(self):
        block = Dataset(subjects=(make_block(),)).subjects[0]
        with pytest.raises(ValueError):
            block.x[0] = 99.0
        with pytest.raises(ValueError):
            block.y[0] = 99.0

    def test_immutable(self):
        data = Dataset(subjects=(make_block("a"), make_block("b")))
        for name in ("x", "y", "c", "bounds", "ids", "subjects"):
            with pytest.raises(AttributeError):
                setattr(data, name, None)
        with pytest.raises(AttributeError):
            del data.x
        for column in (data.x, data.y, data.c, data.bounds):
            with pytest.raises(ValueError):
                column[0] = 1
        for block in data.subjects:
            with pytest.raises(ValueError):
                block.y[0] = 99.0
        # the columns are copies: writing into what they were built from
        # changes nothing
        x, y = np.arange(3.0), np.ones(3)
        data = Dataset(subjects=(SubjectBlock(id="a", x=x, c=0.0, y=y),))
        x[0] = y[0] = 99.0
        assert data.x[0] == 0.0 and data.y[0] == 1.0


class TestGrids:
    def grids(self, data):
        return [(x.tolist(), members.tolist()) for x, members in data.grids]

    def test_first_appearance_order(self):
        xs = [[0.0, 1.0], [2.0], [0.0, 1.0], [3.0, 4.0, 5.0], [2.0]]
        data = Dataset(subjects=[
            SubjectBlock(id=f"s{i}", x=np.array(x), c=0.0, y=np.zeros(len(x)))
            for i, x in enumerate(xs)
        ])
        assert self.grids(data) == [
            ([0.0, 1.0], [0, 2]), ([2.0], [1, 4]), ([3.0, 4.0, 5.0], [3]),
        ]

    def test_read_only(self):
        data = Dataset(subjects=(make_block("a"), make_block("b")))
        (x, members), = data.grids
        for arr in (x, members):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert data.grids is data.grids

    def test_one_value_apart_does_not_share(self):
        grid = np.arange(4.0)
        apart = grid.copy()
        apart[2] = np.nextafter(2.0, 3.0)
        data = Dataset(subjects=[
            SubjectBlock(id=sid, x=x, c=0.0, y=np.zeros(4))
            for sid, x in (("a", grid), ("b", apart), ("c", grid.copy()))
        ])
        assert [m.tolist() for _, m in data.grids] == [[0, 2], [1]]

    def test_equal_values_read_from_a_file_share(self, tmp_path):
        # each subject's x is parsed from its own rows, one-point grids included
        path = tmp_path / "grids.csv"
        path.write_text(
            "subject,x,c,y\n"
            "p,0.5,0,1\nq,0.25,0,1\nq,0.5,0,2\nr,0.50,1,3\n"
            "s,0.25,1,4\ns,5e-1,1,5\nt,1,0,6\n"
        )
        data = read_dataset(path)
        assert self.grids(data) == [([0.5], [0, 2]), ([0.25, 0.5], [1, 3]), ([1.0], [4])]

    def test_generated_design_is_one_grid(self):
        truth = TrueParameters(mu=[1.0, 0.5, -0.05], alpha=[0.3, 0.0],
                               omega2=[1.0, 0.1, 0.0], sigma2=0.5)
        data = generate_dataset(SimulationDesign("t", 12, 5), truth, seed=4093)
        (x, members), = data.grids
        np.testing.assert_array_equal(x, data.subjects[0].x)
        assert members.tolist() == list(range(12))


class TestCopies:
    """pickle, copy and deepcopy rebuild a dataset through from_columns."""

    def original(self):
        truth = TrueParameters(mu=[1.0, 0.5, -0.05], alpha=[0.3, 0.2],
                               omega2=[1.0, 0.1, 0.01], sigma2=0.5)
        data = generate_dataset(SimulationDesign("t", 9, 6), truth, seed=4093)
        assert data.subjects and data.grids  # cached here, and not carried over
        return data

    @pytest.mark.parametrize("make_copy", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copy_is_checked_and_read_only(self, make_copy):
        data = self.original()
        twin = make_copy(data)
        assert type(twin) is Dataset and twin is not data
        assert "subjects" not in vars(twin) and "grids" not in vars(twin)
        assert twin.ids == data.ids
        for name in ("bounds", "c", "x", "y"):
            column = getattr(twin, name)
            assert column.tobytes() == getattr(data, name).tobytes()
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(ValueError):
            twin.subjects[0].y[0] = 99.0
        assert fit_fields(twin) == fit_fields(data)


def fit_fields(data):
    """Every field of the sixteen fits on `data`, or their error messages."""
    out = []
    for cand in enumerate_candidates():
        try:
            fit = fit_ml(cand, data)
        except UnidentifiableModelError as exc:
            out.append(str(exc))
            continue
        t = fit.theta_hat
        out.append((fit.loglik, t.beta.tobytes(), t.omega2.tobytes(), t.sigma2, fit.converged,
                    fit.boundary, fit.iterations, fit.evaluations, fit.restarted, fit.n_effective))
    return out


class TestConstructorsAgree:
    """Dataset(subjects=...) rebuilds from the views exactly what
    from_columns built, and the fits on both are the same bit for bit."""

    def check(self, data):
        rebuilt = Dataset(subjects=data.subjects)
        assert rebuilt.ids == data.ids
        for name in ("bounds", "c", "x", "y"):
            assert getattr(rebuilt, name).tobytes() == getattr(data, name).tobytes()
        for a, b in zip(rebuilt.subjects, data.subjects, strict=True):
            assert (a.id, a.c) == (b.id, b.c)
            assert (a.x.tobytes(), a.y.tobytes()) == (b.x.tobytes(), b.y.tobytes())
        assert fit_fields(rebuilt) == fit_fields(data)

    def test_generated_shared_grid(self):
        truth = TrueParameters(mu=[1.0, 0.5, -0.05], alpha=[0.3, 0.0],
                               omega2=[1.0, 0.1, 0.0], sigma2=0.5)
        self.check(generate_dataset(SimulationDesign("t", 12, 5), truth, seed=4093))

    def test_read_ragged(self, tmp_path):
        # grids of 1 to 6 points, the 4-point grid shared by three subjects
        rng = np.random.default_rng(4093)
        grids = [[2.0], [1.0, 7.0], [0.5], [3.0, 4.0], [0.0, 3.0, 6.0, 9.0],
                 [0.0, 3.0, 6.0, 9.0], np.sort(rng.uniform(0, 10, 6)).tolist(),
                 [0.0, 3.0, 6.0, 9.0], [1.0, 2.0, 5.0, 8.0, 9.5]]
        lines = ["subject,x,c,y"]
        for i, grid in enumerate(grids):
            c, intercept = rng.normal(), 1.0 + 2.0 * rng.normal()
            for x in grid:
                lines.append(f"s{i},{x!r},{c!r},{intercept + x + 0.1 * c * x + rng.normal()!r}")
        path = tmp_path / "ragged.csv"
        path.write_text("\n".join(lines) + "\n")
        self.check(read_dataset(path))


class TestReadDataset:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_round_trip_comma(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject,x,c,y\n"
            "s1,0.0,1.5,2.25\n"
            "s1,1.0,1.5,3.5\n"
            "s2,0.0,-0.5,0.75\n",
        )
        data = read_dataset(path)
        assert data.n_subjects == 2
        assert data.subjects[0].id == "s1"
        np.testing.assert_array_equal(data.subjects[0].x, [0.0, 1.0])
        np.testing.assert_array_equal(data.subjects[0].y, [2.25, 3.5])
        assert data.subjects[0].c == 1.5
        assert data.subjects[1].c == -0.5

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        text = "subject,x,c,y\ns1,0,1.5,2\ns1,1,1.5,3\ns2,0,-0.5,1\n"
        plain = self.write(tmp_path, text)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want, got = read_dataset(plain), read_dataset(marked)
        assert [b.id for b in got.subjects] == [b.id for b in want.subjects]
        for a, b in zip(got.subjects, want.subjects):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
            assert a.c == b.c

    def test_tab_delimiter(self, tmp_path):
        path = self.write(tmp_path, "subject\tx\tc\ty\ns1\t0\t1\t2\ns1\t1\t1\t3\n")
        data = read_dataset(path)
        assert data.n_obs == 2

    def test_header_without_delimiter_is_missing_columns(self, tmp_path):
        # no tab, semicolon or comma: read as comma-separated, so the whole
        # header is one column and subject is missing
        path = self.write(tmp_path, "subject x c y\ns1 0 1 2\ns1 1 1 3\n")
        with pytest.raises(DataFormatError, match="missing column 'subject'"):
            read_dataset(path)

    def test_semicolon_delimiter(self, tmp_path):
        path = self.write(tmp_path, "subject;x;c;y\ns1;0;1;2\ns1;1;1;3\n")
        assert read_dataset(path).n_obs == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(tmp_path, "subject,x,c,y,site\ns1,0,1,2,A\ns1,1,1,3,A\n")
        assert read_dataset(path).n_obs == 2

    def test_header_whitespace_ignored(self, tmp_path):
        path = self.write(tmp_path, "subject, x ,c,y\ns1,0,1,2\ns1,1,1,3\n")
        np.testing.assert_array_equal(read_dataset(path).subjects[0].x, [0.0, 1.0])

    def test_missing_column_named(self, tmp_path):
        path = self.write(tmp_path, "subject,x,c\ns1,0,1\n")
        with pytest.raises(DataFormatError, match="'y'"):
            read_dataset(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject,x,c,y\ns1,0.0,1.0,2.0\ns1,oops,1.0,3.0\n",
        )
        with pytest.raises(DataFormatError, match=":3:"):
            read_dataset(path)

    def test_inconsistent_c_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject,x,c,y\ns1,0.0,1.0,2.0\ns1,1.0,2.0,3.0\n",
        )
        with pytest.raises(DataFormatError, match="inconsistent c"):
            read_dataset(path)

    @pytest.mark.parametrize("rows, message", [
        ("s1,0.0,1.0,2.0\ns1,1.0,1.0,nan\n", "data.csv:3: column 'y' has non-finite value 'nan'"),
        # a one-row subject's c is compared with no other row
        ("s1,0.0,1.0,2.0\ns2,1.0,inf,3.0\n", "data.csv:3: column 'c' has non-finite value 'inf'"),
        # not reported as a c that changes from nan to nan
        ("s1,0.0, nan,2.0\ns1,1.0,nan,3.0\n", "data.csv:2: column 'c' has non-finite value 'nan'"),
        # x is checked before c and y, and its first bad line is named
        ("s1,0.0,1.0,oops\ns1,inf,1.0,3.0\n", "data.csv:3: column 'x' has non-finite value 'inf'"),
        ("s1,0.0,1.0,2.0\ns1,nan,1.0,3.0\ns1,x,1.0,3.0\n", "data.csv:3: column 'x' has non-finite"),
    ])
    def test_non_finite_reports_line(self, tmp_path, rows, message):
        with pytest.raises(DataFormatError, match=message):
            read_dataset(self.write(tmp_path, "subject,x,c,y\n" + rows))

    @pytest.mark.parametrize("rows, message", [
        # a row shorter than the header reads as blank fields
        ("s1,0.0,1.0,2.0\ns1,1.0,1.0\n", "data.csv:3: column 'y' has non-numeric value ''"),
        ("s1,0.0,1.0,2.0\n ,1.0,1.0,3.0\n", "data.csv:3: empty subject id"),
    ])
    def test_short_row_and_empty_id_report_line(self, tmp_path, rows, message):
        with pytest.raises(DataFormatError, match=message):
            read_dataset(self.write(tmp_path, "subject,x,c,y\n" + rows))

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataFormatError, match="empty"):
            read_dataset(path)

    def test_blank_line_before_header(self, tmp_path):
        text = "subject;x;c;y\ns1;0.0;1.5;2.25\ns1;1.0;1.5;3.5\ns2;0.0;-0.5;0.75\n"
        plain = read_dataset(self.write(tmp_path, text, name="plain.csv"))
        padded = read_dataset(self.write(tmp_path, "\n" + text, name="padded.csv"))
        assert [s.id for s in padded.subjects] == [s.id for s in plain.subjects]
        for a, b in zip(padded.subjects, plain.subjects):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
            assert a.c == b.c

    def test_blank_data_lines_skipped(self, tmp_path):
        # a line of spaces, or of blank fields, is skipped as an empty one is
        text = "subject,x,c,y\ns1,0.0,1.5,2.25\ns1,1.0,1.5,3.5\n"
        plain = read_dataset(self.write(tmp_path, text, name="plain.csv"))
        for k, tail in enumerate(["   ", "   \n", " , ,\t, \n"]):
            data = read_dataset(self.write(tmp_path, text + tail, name=f"tail{k}.csv"))
            assert [s.id for s in data.subjects] == ["s1"]
            np.testing.assert_array_equal(data.subjects[0].y, plain.subjects[0].y)

    def test_quoted_id_holds_the_delimiter(self, tmp_path):
        text = '\n  \nsubject;x;c;y\n"a;b";0.0;1.5;2.0\n"a;b";1.0;1.5;3.0\ns2;0.0;2.0;1.0\n'
        data = read_dataset(self.write(tmp_path, text))
        assert data.ids == ("a;b", "s2")
        np.testing.assert_array_equal(data.subjects[0].y, [2.0, 3.0])

    def test_line_break_in_a_quoted_field_counts_as_a_line(self, tmp_path):
        # the quoted id "s\n2" spans lines 4 and 5, so the bad value is on line 6
        text = (
            'subject,x,c,y\n"s,1",0.0,1.0,2.0\n"s,1",1.0,1.0,3.0\n'
            '"s\n2",0.0,2.0,1.0\ns3,0.0,3.0,oops\n'
        )
        message = "data.csv:6: column 'y' has non-numeric value 'oops'"
        with pytest.raises(DataFormatError, match=message):
            read_dataset(self.write(tmp_path, text))
        data = read_dataset(self.write(tmp_path, text.replace("oops", "4.0")))
        assert data.ids == ("s,1", "s\n2", "s3")

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "subject,x,c,y\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_dataset(path)

    def test_within_subject_order_preserved(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject,x,c,y\ns1,5.0,0.0,1.0\ns1,2.0,0.0,2.0\ns1,9.0,0.0,3.0\n",
        )
        data = read_dataset(path)
        np.testing.assert_array_equal(data.subjects[0].x, [5.0, 2.0, 9.0])
