"""The README's examples run: every `ewlext` line of its sh blocks, in
process through cli.main, and its Python block."""

import re
import shlex
from pathlib import Path

from ewlext.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SUMMARY = "criterion only: 288, criterion + named relations: 192"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def commands():
    """argv of each `ewlext ...` line of the sh blocks, comments dropped; the
    `--set '[..., ...]'` line is a placeholder and is skipped."""
    return [shlex.split(line, comments=True)[1:]
            for block in blocks("sh") for line in block.splitlines()
            if line.startswith("ewlext ") and "..." not in line]


def test_readme_commands_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (game,) = blocks("json")
    Path("pd.json").write_text(game)
    assert main(["extend", "--class", "C", "--theta1", "1/3 pi", "--game", "pd.json",
                 "--format", "json"]) == 0
    Path("extended.json").write_text(capsys.readouterr().out)
    argvs = commands()
    assert len(argvs) == 10
    summaries = []
    for argv in argvs:
        assert main(argv) == 0, argv
        err = capsys.readouterr().err.splitlines()
        summaries += [line for line in err if line.startswith("criterion only:")]
    # the stderr line the README quotes, from the pi/2 slice
    assert f'"{SUMMARY}"' in README
    assert SUMMARY in summaries


def test_readme_python_block_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
