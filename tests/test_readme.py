"""The README's library example runs as written, and the files it names exist."""
import re
from pathlib import Path

import numpy as np

from conftest import observation_table
from cshazard.ingest import RiskBand, write_observations_csv
from cshazard.riskmodel import Cause

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    # two bands of loans entering at ages 1..17 and leaving within 54 months
    rng = np.random.default_rng(3)
    rows = []
    for band in (RiskBand.DEEP_SUBPRIME, RiskBand.PRIME):
        for i in range(300):
            entry = int(rng.integers(1, 18))
            cause = (Cause.DEFAULT, Cause.PREPAY, None)[int(rng.integers(0, 3))]
            rows.append((f"{band.label}-{i}", entry, entry + int(rng.integers(0, 55)), cause,
                         band))
    write_observations_csv(tmp_path / "observations.csv", observation_table(rows))
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    row, month = capsys.readouterr().out.splitlines()
    assert row.startswith("{'age': 12, ")
    assert month == "None" or int(month) >= 10  # the default minimum test age


def test_readme_names_only_bench_files_that_exist():
    named = set(re.findall(r"BENCH_\w+\.json", README.read_text(encoding="utf-8")))
    assert named  # the Install section's table of current numbers links them
    assert sorted(name for name in named if not (README.parent / name).is_file()) == []
