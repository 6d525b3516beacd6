"""Tests for the `compare` CLI subcommand."""

from repro.cli import main


def _write_export(path, months, cpm, seed):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([
            "study", "--months", str(months), "--cpm", str(cpm),
            "--seed", str(seed), "--json",
        ])
    assert code == 0
    path.write_text(buffer.getvalue())


class TestCompareCommand:
    def test_identical_exports(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        _write_export(a, 2, 120, 5)
        code = main(["compare", str(a), str(a)])
        assert code == 0
        assert "no differences" in capsys.readouterr().out

    def test_different_exports(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        _write_export(a, 2, 120, 5)
        _write_export(b, 2, 120, 6)
        code = main(["compare", str(a), str(b)])
        assert code == 3
        out = capsys.readouterr().out
        assert "Study comparison" in out
