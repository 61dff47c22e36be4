"""Tests for the experiment harness: every figure renders, the runner
works, and the headline numbers land in the paper's ballpark."""

import pytest

from repro.eval import ALL_EXPERIMENTS, headline_summary, run
from repro.eval.experiments import (
    figure2a,
    figure3,
    figure7,
    figure10,
    overheads,
    table1,
)


class TestExperimentRegistry:
    def test_covers_all_figures_and_tables(self):
        expected = {
            "table1",
            "table1_functional",
            "figure2a",
            "figure2c",
            "figure3",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "overheads",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_table1_functional_all_rows_match_oracle(self):
        output = ALL_EXPERIMENTS["table1_functional"]()
        assert "False" not in output
        # Pradel/Aziz (TFHE), Yasuda, Kim, Bonte, CIPHERMATCH
        assert output.count("True") == 5
        assert "110 gates, 110 bootstraps" in output

    @pytest.mark.parametrize("name", sorted(["table1", "figure2a", "figure2c",
        "figure3", "figure7", "figure8", "figure9", "figure10", "figure11",
        "figure12", "overheads"]))
    def test_each_experiment_renders(self, name):
        output = ALL_EXPERIMENTS[name]()
        assert isinstance(output, str)
        assert "paper:" in output
        assert len(output.splitlines()) >= 4


class TestRenderedContent:
    def test_table1_rows(self):
        out = table1()
        for work in ("Yasuda", "Aziz", "Pradel", "Kim", "Bonte", "this work"):
            assert work in out

    def test_figure2a_shows_expansion_ordering(self):
        out = figure2a([1024])
        assert "CIPHERMATCH" in out

    def test_figure3_columns(self):
        out = figure3()
        assert "storage" in out and "main_memory" in out

    def test_figure7_queries(self):
        out = figure7()
        for q in ("16", "32", "64", "128", "256"):
            assert q in out

    def test_figure10_systems(self):
        out = figure10()
        assert "cm_ifp" in out and "cm_pum" in out

    def test_overheads_values(self):
        out = overheads()
        assert "512KB" in out
        assert "0.6%" in out


class TestRunner:
    def test_run_single(self):
        assert "Figure 7" in run(["figure7"])

    def test_run_all_includes_headline(self):
        out = run()
        assert "Headline results" in out
        assert out.count("==") >= 20

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run(["figure99"])


class TestHeadlineSummary:
    @pytest.fixture(scope="class")
    def summary(self):
        return headline_summary()

    def test_keys_mention_paper_values(self, summary):
        assert any("42.9" in k for k in summary)
        assert any("136.9" in k for k in summary)
        assert any("256.4" in k for k in summary)

    def test_cm_sw_speedup_ballpark(self, summary):
        value = next(v for k, v in summary.items() if "42.9" in k)
        assert 25 < value < 60

    def test_ifp_speedup_ballpark(self, summary):
        value = next(v for k, v in summary.items() if "136.9" in k)
        assert 90 < value < 200

    def test_ifp_energy_ballpark(self, summary):
        value = next(v for k, v in summary.items() if "256.4" in k)
        assert 180 < value < 350
