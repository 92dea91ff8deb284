"""``show-config`` prints a config file that ``--config`` reads back."""

import pytest

from expriccati.cli import main


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--scheme", "GExpEuler,Erow3Dense", "--h", "0.1", "--h", "0.05", "--tol", "1e-9",
         "--exp-action", "krylov", "--krylov-m", "12", "--nodes", "5"],
    ],
)
def test_show_config_reads_back(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["show-config", *flags]) == 0
    printed = capsys.readouterr().out
    (tmp_path / "exp.cfg").write_text(printed)

    assert main(["show-config", "--config", "exp.cfg"]) == 0
    assert capsys.readouterr().out == printed

    # out = None reads as unset: the table goes to stdout, not to None/.
    assert main(["table", "--config", "exp.cfg", "--problem", "tanh", "--h", "0.1"]) == 0
    assert capsys.readouterr().out.startswith("# schema table/v1")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]
