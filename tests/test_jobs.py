"""The Tables 4-11 driver runs end-to-end at tiny scale."""
import pytest

from jobs import tables


class TestTable4Job:
    def test_rows_for_all_profiles(self, spark):
        rows = tables.run(spark, 4, sf=0.01)
        assert [r["dataset"] for r in rows] == ["bitcoin", "ctu13", "prosper"]
        for r in rows:
            assert r["n_interactions"] > 0

    def test_avg_flow_tracks_paper(self, spark):
        rows = tables.run(spark, 4, sf=0.01)
        for r in rows:
            assert r["avg_flow"] == pytest.approx(tables.PAPER[4][r["dataset"]][3], rel=0.1)


class TestTable5Job:
    def test_stats_for_all_profiles(self, spark):
        rows = tables.run(spark, 5, sf=0.01)
        assert len(rows) == 3
        for r in rows:
            assert r["n_subgraphs"] > 0
            assert r["avg_interactions"] > 0


class TestFlowTablesJob:
    def test_ctu13_table(self, spark):
        rows = tables.run(spark, 7, sf=0.01)
        assert "All" in {r["cls"] for r in rows}
        # The printer must accept the rows without error.
        tables.print_table(7, rows)

    def test_paper_reference_numbers_present(self):
        for table in (6, 7, 8):
            assert set(tables.PAPER[table]) == {"All", "A", "B", "C"}


class TestPatternTablesJob:
    def test_ctu13_rows(self, spark):
        rows = tables.run(spark, 10, sf=0.01)
        assert [r["pattern"] for r in rows] == list(tables.PAPER[10])
        tables.print_table(10, rows)

    def test_dataset_pattern_lists_match_paper(self):
        # P1/RP1 only where a chain table exists (Prosper).
        assert [t for t in (9, 10, 11) if "P1" in tables.PAPER[t]] == [11]
        assert tables.PROFILE[11] == "prosper"


class TestCli:
    @pytest.mark.parametrize("argv", [[], ["12"], ["x"], ["4", "all5"]])
    def test_bad_table_exits_before_spark(self, monkeypatch, argv):
        # Starting a session would call None.builder and raise AttributeError.
        monkeypatch.setattr(tables, "SparkSession", None)
        with pytest.raises(SystemExit) as exit_:
            tables.main(argv)
        assert exit_.value.code == tables.USAGE
