import numpy as np
import pytest

from lmmbic.data import DataFormatError, Dataset, SubjectBlock, read_dataset


def make_block(sid="s1", n=4, c=0.5):
    rng = np.random.default_rng(7)
    return SubjectBlock(id=sid, x=np.arange(n, dtype=float), c=c, y=rng.normal(size=n))


class TestSubjectBlock:
    def test_basic_properties(self):
        block = make_block(n=5)
        assert block.n_obs == 5
        assert block.c == 0.5

    def test_arrays_are_readonly(self):
        block = make_block()
        with pytest.raises(ValueError):
            block.x[0] = 99.0
        with pytest.raises(ValueError):
            block.y[0] = 99.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            SubjectBlock(id="s1", x=np.arange(3.0), c=0.0, y=np.arange(4.0))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            SubjectBlock(id="s1", x=np.array([]), c=0.0, y=np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SubjectBlock(id="s1", x=np.array([0.0, np.nan]), c=0.0, y=np.array([1.0, 2.0]))


class TestDataset:
    def test_counts(self):
        data = Dataset(subjects=(make_block("a", 3), make_block("b", 5)))
        assert data.n_subjects == 2
        assert data.n_obs == 8

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(subjects=(make_block("a"), make_block("a")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Dataset(subjects=())

    def test_subject_covariates(self):
        data = Dataset(subjects=(make_block("a", c=1.5), make_block("b", c=-2.0)))
        np.testing.assert_array_equal(data.subject_covariates(), [1.5, -2.0])


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
