"""The report generators and the command-line entry point."""

import hashlib

import pytest

from repro.__main__ import main
from repro.reports import (
    REPORTS,
    figure1_report,
    figure2_report,
    table1_report,
    table3_report,
)


class TestReports:
    def test_table1_contains_matrix(self):
        report = table1_report()
        assert "Unnamed window.navigator functions" in report
        assert "x  x  .  ." in report

    def test_table3_lists_api(self):
        report = table3_report()
        for name in ("move_to_element_outside_viewport", "scroll_by", "send_keys"):
            assert name in report

    def test_figure1_has_all_agents(self):
        report = figure1_report()
        for agent in ("selenium", "human", "naive", "hlisa"):
            assert agent in report

    def test_figure2_has_all_agents(self):
        report = figure2_report(clicks=25)
        for agent in ("selenium", "human", "naive", "hlisa"):
            assert agent in report

    def test_registry_complete(self):
        for name in ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4"):
            assert name in REPORTS


class TestCLI:
    def test_table1_exit_code(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "trajectory signatures" in capsys.readouterr().out

    def test_table2_text_is_pinned(self, capsys):
        # The field-study text of a 100-site draw, byte for byte: a change
        # to how the report's crawls are configured or run must not move it.
        assert main(["table2", "--sites", "100"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 / Figure 4: the field study" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6db401d8ebf04d9407d0f0400428871499e3e85a9ab8d6cd71f0ff6495f32fca"
        )

    def test_invalid_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_too_few_sites_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--sites", "10"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "n_sites=10 is too small for 11 special roles" in captured.err
        assert captured.out == ""
