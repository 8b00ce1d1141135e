import csv
import re
import xml.etree.ElementTree as ET

import pytest

from lmmbic.criteria import CRITERIA
from lmmbic.report import CRITERION_COLORS, CRITERION_NAMES, emit_report
from lmmbic.simulation import FrequencyTable, SelectionCell


def synthetic_table():
    rows = []
    freqs = {
        ("a", "N"): (7, 20), ("a", "n"): (9, 20), ("a", "ne"): (11, 20), ("a", "h"): (10, 20),
        ("d", "N"): (13, 20), ("d", "n"): (15, 20), ("d", "ne"): (17, 20), ("d", "h"): (16, 20),
    }
    for design in ("a", "d"):
        for truth in ("O1M1", "O2M2"):
            for crit in ("N", "n", "ne", "h"):
                correct, total = freqs[(design, crit)]
                # split each pooled cell across the two truths unevenly
                part = correct // 2 if truth == "O1M1" else correct - correct // 2
                rows.append(SelectionCell(design, truth, crit, part, total // 2))
    return FrequencyTable(rows=tuple(rows), invalid_replicates=2, total_fits=640, failed_fits=3)


def test_criterion_tables_follow_criteria():
    assert list(CRITERION_NAMES) == list(CRITERION_COLORS) == list(CRITERIA)
    assert list(CRITERION_NAMES.values()) == ["BIC_N", "BIC_n", "BIC_ne", "BIC_h"]


class TestEmitReport:
    @pytest.fixture()
    def outputs(self, tmp_path):
        table = synthetic_table()
        paths = emit_report(table, tmp_path / "study")
        return table, paths

    def test_paths_and_names(self, outputs, tmp_path):
        _, paths = outputs
        assert [p.name for p in paths] == ["results.csv", "summary.csv", "figure.svg"]
        for p in paths:
            assert p.exists()
            assert p.parent == tmp_path / "study"

    def test_results_csv_round_trip(self, outputs):
        table, paths = outputs
        with paths[0].open(newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == len(table.rows)
        for record, row in zip(records, table.rows):
            assert record["design"] == row.design
            assert record["truth"] == row.truth
            assert record["criterion"] == row.criterion
            assert int(record["correct"]) == row.correct
            assert int(record["replicates"]) == row.replicates
            assert float(record["frequency"]) == pytest.approx(row.frequency)

    def test_summary_csv_matches_aggregates(self, outputs):
        table, paths = outputs
        with paths[1].open(newline="") as handle:
            records = list(csv.DictReader(handle))
        expected = table.aggregates()
        assert len(records) == len(expected)
        for record, (design, criterion, freq) in zip(records, expected):
            assert record["design"] == design
            assert record["criterion"] == criterion
            # frequencies are written with repr precision, so the round
            # trip through text is exact
            assert float(record["frequency"]) == freq

    def test_svg_well_formed_with_bar_metadata(self, outputs):
        table, paths = outputs
        root = ET.fromstring(paths[2].read_text())
        assert root.tag.endswith("svg")
        bars = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}rect")
            if "data-frequency" in el.attrib
        ]
        expected = {(d, c): f for d, c, f in table.aggregates()}
        assert len(bars) == len(expected)
        for bar in bars:
            key = (bar.attrib["data-design"], bar.attrib["data-criterion"])
            assert float(bar.attrib["data-frequency"]) == expected[key]
            assert bar.attrib["fill"] == CRITERION_COLORS[key[1]]

    def test_svg_mentions_every_criterion_name(self, outputs):
        _, paths = outputs
        text = paths[2].read_text()
        for name in CRITERION_NAMES.values():
            assert name in text
        assert "design a (N=20, n/subject=5)" in text
        assert "design d (N=100, n/subject=100)" in text

    def test_bar_heights_scale_with_frequency(self, outputs):
        _, paths = outputs
        heights = {}
        for match in re.finditer(
            r'height="([0-9.]+)"[^/]*data-design="([ad])" data-criterion="(\w+)"',
            paths[2].read_text(),
        ):
            heights[(match.group(2), match.group(3))] = float(match.group(1))
        assert heights[("d", "ne")] > heights[("a", "N")]
        assert heights[("a", "ne")] == pytest.approx((11 / 20) * 220, abs=0.02)

    def test_rerun_is_byte_identical(self, tmp_path):
        table = synthetic_table()
        first = emit_report(table, tmp_path / "one")
        second = emit_report(table, tmp_path / "two")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_empty_table_raises_before_creating_directory(self, tmp_path):
        empty = FrequencyTable(rows=(), invalid_replicates=0, total_fits=0, failed_fits=0)
        target = tmp_path / "never"
        with pytest.raises(ValueError, match="no rows"):
            emit_report(empty, target)
        assert not target.exists()

    def test_out_dir_created_when_missing(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "dir"
        emit_report(synthetic_table(), nested)
        assert (nested / "figure.svg").exists()

    def test_unknown_design_label_still_renders(self, tmp_path):
        rows = tuple(
            SelectionCell("q", "O1M1", crit, 1, 2) for crit in ("N", "n", "ne", "h")
        )
        table = FrequencyTable(rows=rows, invalid_replicates=0, total_fits=32, failed_fits=0)
        paths = emit_report(table, tmp_path)
        assert "design q" in paths[2].read_text()
