"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestFigure:
    def test_runs_fast_figure(self, capsys):
        assert main(["figure", "5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "figure_5" in out
        assert "conjunction_size" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_every_fast_config_is_valid(self):
        # Every registered experiment must accept its fast kwargs (the
        # runners evolve; this catches signature drift without running the
        # heavy ones).
        import inspect

        for name, (runner, kwargs) in EXPERIMENTS.items():
            signature = inspect.signature(runner)
            for key in kwargs:
                assert key in signature.parameters, (name, key)


class TestBatch:
    def test_batch_corrupt_cache_db_exits_2_with_one_line(
        self, capsys, tmp_path
    ):
        junk = tmp_path / "junk.sqlite"
        junk.write_bytes(b"not a database" * 64)
        args = [
            "batch", "--queries", "2", "--sessions", "5", "--movies", "6",
            "--cache-db", str(junk),
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"cannot open --cache-db {junk}: file is not a database"
        ]
        assert captured.out == ""

    def test_batch_process_backend_with_cache_db(self, capsys, tmp_path):
        cache_db = str(tmp_path / "cache.sqlite")
        args = [
            "batch", "--queries", "4", "--sessions", "30", "--movies", "6",
            "--repeat", "1", "--seed", "3",
            "--backend", "process", "--cache-db", cache_db,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "backend=process" in out
        assert "disk tier" in out
        # Restart: a fresh invocation over the same cache file serves the
        # whole batch from the persistent tier without solving.
        assert main(args) == 0
        out = capsys.readouterr().out
        warm_row = next(
            line for line in out.splitlines() if line.startswith("1 ")
        ).split()
        assert warm_row[3] == "0"  # distinct_solves
        assert "disk_hits=0" not in out

    def test_batch_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["batch", "--backend", "gpu"])

    def test_batch_reports_cache_warming(self, capsys):
        assert main(
            [
                "batch", "--queries", "4", "--sessions", "30", "--movies", "6",
                "--repeat", "2", "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batch serving" in out
        # No --backend: the library default, serial.
        assert "(backend=serial) ==" in out
        assert "cache_hits" in out
        # Pass 2 re-serves the identical batch: all hits, no fresh solves.
        warm_row = [
            line for line in out.splitlines() if line.startswith("2 ")
        ][0]
        assert warm_row.split()[3] == "0"  # distinct_solves
        assert "hit_rate=0.500" in out


class TestArgparse:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
