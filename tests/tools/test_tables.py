"""``tools/tables.py`` writes exactly what the golden test compares."""

from tools import tables

from repro.experiments import TABLES

COMMITTED = tables.RESULTS


def test_rerecording_one_table_reproduces_the_committed_text(tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(tables, "RESULTS", tmp_path)
    stem = TABLES[1].stem
    assert tables.main([stem]) == 0
    assert [path.name for path in tmp_path.iterdir()] == [stem + ".txt"]
    assert (tmp_path / (stem + ".txt")).read_text() \
        == (COMMITTED / (stem + ".txt")).read_text()


def test_an_unknown_name_runs_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "RESULTS", tmp_path)
    assert tables.main([TABLES[1].stem, "E2"]) == 2
    assert not list(tmp_path.iterdir())
