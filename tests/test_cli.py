"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def flow_dir(tmp_path):
    path = tmp_path / "fw"
    code = main(["generate", "flows", "--flows", "2000", "--routers", "3",
                 "--source-as", "12", "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_generate_flows(self, flow_dir, capsys):
        assert (flow_dir / "manifest.json").exists()
        assert (flow_dir / "site_0.csv").exists()

    def test_generate_tpcr(self, tmp_path, capsys):
        path = tmp_path / "wh"
        code = main(["generate", "tpcr", "--rows", "3000", "--sites", "4",
                     "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "saved" in out


class TestInfoAndStats:
    def test_info(self, flow_dir, capsys):
        assert main(["info", str(flow_dir)]) == 0
        out = capsys.readouterr().out
        assert "sites: 3" in out
        assert "SourceAS" in out

    def test_stats(self, flow_dir, capsys):
        assert main(["stats", str(flow_dir),
                     "--attrs", "SourceAS,DestAS"]) == 0
        out = capsys.readouterr().out
        assert "SourceAS: distinct" in out

    def test_info_missing_warehouse(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err


class TestQuery:
    SQL = ("SELECT SourceAS, COUNT(*) AS n, AVG(NumBytes) AS m "
           "FROM Flow GROUP BY SourceAS")

    def test_query_runs(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL]) == 0
        out = capsys.readouterr().out
        assert "synchronization" in out
        assert "SourceAS" in out

    def test_query_optimize_levels(self, flow_dir, capsys):
        for level in ("none", "all", "sync-reduction"):
            assert main(["query", str(flow_dir), self.SQL,
                         "--optimize", level]) == 0

    def test_query_cube_statement(self, flow_dir, capsys):
        """A CUBE runs through the lattice: one row per router plus the
        grand total."""
        assert main(["query", str(flow_dir),
                     "SELECT RouterId, COUNT(*) AS n FROM Flow "
                     "GROUP BY CUBE (RouterId)"]) == 0
        out = capsys.readouterr().out
        assert "\n4 rows; " in out

    def test_query_explain_flag(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "synchronizations:" in out

    def test_query_bad_sql(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), "SELECT nothing"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_cache_counters(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL,
                     "--cache", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out
        assert "hit(s)" in out and "miss(es)" in out
        assert "delta merge(s)" in out
        assert "0 site scan(s)" in out  # second run is fully warm

    def test_query_cache_explain(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL,
                     "--cache", "--cache-budget-mb", "8",
                     "--repeat", "2", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "sub-aggregate cache:" in out

    def test_query_no_cache_is_silent(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out

    def test_correlated_query(self, flow_dir, capsys):
        sql = ("SELECT SourceAS, COUNT(*) AS c, SUM(NumBytes) AS s "
               "FROM Flow GROUP BY SourceAS "
               "THEN COMPUTE COUNT(*) AS above WHERE NumBytes >= s / c")
        assert main(["query", str(flow_dir), sql]) == 0
        out = capsys.readouterr().out
        assert "above" in out


class TestExplain:
    def test_explain(self, flow_dir, capsys):
        sql = TestQuery.SQL
        assert main(["explain", str(flow_dir), sql,
                     "--optimize", "all"]) == 0
        out = capsys.readouterr().out
        assert "expression:" in out
        assert "plan:" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["query"])  # missing args
        assert excinfo.value.code == 2
