"""Spec parsing, the EngineSession, and the `engine` / `classify --batch` CLI."""

import pytest

from repro.__main__ import main
from repro.engine.batch import ClassifyFormula, ClassifyOmega, MonitorLasso
from repro.engine.session import EngineSession, SpecSyntaxError, parse_spec

SPEC = """\
# mixed corpus
G p
F q
G (p -> F q)
G p

omega ab: .*b(ab)w | aw
monitor p|.: G p
monitor |p: F p
"""


class TestSpecParsing:
    def test_blank_and_comment_lines_skipped(self):
        assert parse_spec("# only a comment\n\n") == []

    def test_job_kinds_recognized(self):
        jobs = parse_spec(SPEC)
        kinds = [type(job) for job in jobs]
        assert kinds == [
            ClassifyFormula, ClassifyFormula, ClassifyFormula, ClassifyFormula,
            ClassifyOmega, MonitorLasso, MonitorLasso,
        ]
        omega = jobs[4]
        assert omega.expression == ".*b(ab)w | aw"
        assert omega.letters == "ab"

    def test_monitor_line_symbols(self):
        (job,) = parse_spec("monitor p.|pq: G p")
        assert job.stem == (frozenset("p"), frozenset())
        assert job.loop == (frozenset("p"), frozenset("q"))

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(SpecSyntaxError, match="line 2"):
            parse_spec("G p\nomega : missing letters")
        with pytest.raises(SpecSyntaxError):
            parse_spec("monitor nodelimiter: G p")


class TestSession:
    def test_run_text_and_history(self):
        session = EngineSession.create()
        report = session.run_text(SPEC)
        assert report.total_jobs == 7
        assert session.history == [report]

    def test_render_results_labels_each_job(self):
        session = EngineSession.create()
        rendered = session.render_results(session.run_text(SPEC))
        assert "safety" in rendered
        assert "violated" in rendered
        assert "(dedup)" in rendered

    def test_render_verbose_includes_metrics(self):
        session = EngineSession.create()
        rendered = session.render(session.run_text("G p\n"), verbose=True)
        assert "metrics:" in rendered


class TestCLI:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_engine_command(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC)
        assert main(["engine", str(spec), "--repeat", "2", "--results"]) == 0
        out = capsys.readouterr().out
        assert "deduplicated" in out
        assert "caches:" in out
        assert "hit_rate" in out

    def test_engine_command_process_executor(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("G p\nF q\nG (p -> F q)\nG F X a -> G F b\n")
        assert main(["engine", str(spec), "--executor", "process", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "jobs:        4" in out
        assert "executor:    process\n" in out

    def test_classify_batch(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("G p\nF q\n")
        assert main(["classify", "--batch", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "safety" in out and "guarantee" in out

    def test_classify_requires_formula_or_batch(self, capsys):
        assert main(["classify"]) == 2

    def test_classify_single_still_works(self, capsys):
        assert main(["classify", "G p"]) == 0
        assert "safety" in capsys.readouterr().out

    def test_seed_flag_is_accepted(self, capsys):
        assert main(["--seed", "7", "classify", "G p"]) == 0

    def test_batch_with_errors_exits_nonzero(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("G p\nG (p -> \n")
        assert main(["classify", "--batch", str(spec)]) == 1
        assert "ERROR" in capsys.readouterr().out
