"""Tests for the CLI entry point."""


class TestCli:
    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        assert "Hom-Adds" in capsys.readouterr().out

    def test_selftest(self, capsys):
        from repro.__main__ import main

        assert main(["selftest"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        from repro.__main__ import main

        assert main(["figures", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main

        assert main(["bogus"]) == 2

    def test_readmap(self, capsys):
        from repro.__main__ import main

        assert main(["readmap"]) == 0
        assert "mapped correctly" in capsys.readouterr().out

    def test_tfhe(self, capsys):
        from repro.__main__ import main

        assert main(["tfhe"]) == 0
        assert "bootstraps" in capsys.readouterr().out

    def test_queueing(self, capsys):
        from repro.__main__ import main

        assert main(["queueing"]) == 0
        assert "makespan" in capsys.readouterr().out
