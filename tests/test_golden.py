"""Golden bytes: published outputs pinned by sha256, every digest a row of
tests/digests.py.

Any change that should keep outputs identical (refactors, speedups) must
leave these digests alone; a deliberate change to the numbers updates the
table and says why in CHANGES.md.
"""

import builtins
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from digests import DIGESTS, ROWS, check
from test_region import SCAN_GRID_SHA

import vlc_noma
from vlc_noma.channel import floor_gains
from vlc_noma.cli import main
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import run_region_map, run_sweep_power
from vlc_noma.rates import noma_rate_at, noma_user_rates

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SRC = str(Path(vlc_noma.__file__).resolve().parent.parent)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_published_digest(row, tmp_path, capsys):
    assert main(row.args(tmp_path)) == 0
    assert _sha(capsys.readouterr().out) == row.sha256


def test_the_table_runner_checks_the_pair_rows_through_the_cli(monkeypatch, capsys):
    # CI runs every row this way, through the installed console script
    monkeypatch.setenv("PYTHONPATH", SRC)
    rows = [row for row in ROWS if row.argv.startswith("pair ")]
    assert check([sys.executable, "-m", "vlc_noma.cli"], rows) == 0
    assert capsys.readouterr().out == "7 of 7 digests match\n"


def test_only_the_table_records_a_digest():
    # Outside tests/digests.py only two pins that are not output digests:
    # CI's hash of the fixed acceptance gate, and the region scan's grid.
    found = {(path.name, literal)
             for path in [*(ROOT / "tests").glob("*.py"), WORKFLOW] if path.name != "digests.py"
             for literal in re.findall(r"\b[0-9a-f]{64}\b", path.read_text(encoding="utf-8"))}
    gate = hashlib.sha256((ROOT / "tests" / "test_acceptance.py").read_bytes()).hexdigest()
    assert found == {("tests.yml", gate), ("test_region.py", SCAN_GRID_SHA)}


def test_the_masked_ci_step_deselects_exactly_the_fma_rows():
    assert re.findall(r"--deselect '(.*)'", WORKFLOW.read_text(encoding="utf-8")) == [
        f"tests/test_golden.py::test_published_digest[{row.name}]"
        for row in ROWS if row.libm == "fma"]


def test_region_map_bytes():
    # perfbench's validate=True selects nothing
    text = run_region_map(ExperimentConfig(), validate=True).csv_text()
    assert _sha(text) == DIGESTS["region"].sha256


def test_narrow_fov_sweep_power_bytes():
    # Receivers 5 and 6, at (5, 6, 0) and (6, 1, 0), are dead, so the
    # greedy skips them and forced pairing rates zero-gain pairs.
    cfg = ExperimentConfig(fov_deg=50.0)
    gains = floor_gains(cfg.link(), cfg.fixed_positions)
    assert [i for i, h in enumerate(gains, 1) if h == 0.0] == [5, 6]
    assert _sha(run_sweep_power(cfg).csv_text()) == DIGESTS["sweep-power-fov50"].sha256


def test_sum_rate_bytes_do_not_depend_on_builtin_sum(monkeypatch, capsys):
    # CPython 3.12 compensates a float sum(); math.fsum stands in for it.
    # The sum-rates fold their group rates explicitly, so no byte moves.
    plain_sum = builtins.sum

    def compensated_sum(iterable, start=0):
        items = list(iterable)
        if items and all(type(v) is float for v in items):
            return math.fsum([start, *items])
        return plain_sum(items, start)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1, 0.2, 0.3]) == 0.6  # 0.6000000000000001 uncompensated
    assert _sha(run_sweep_power(ExperimentConfig()).csv_text()) == DIGESTS["sweep-power"].sha256
    assert main(DIGESTS["pair"].argv.split()) == 0
    assert _sha(capsys.readouterr().out) == DIGESTS["pair"].sha256


def test_region_pair_and_power_sweep_run_without_numpy(monkeypatch, capsys):
    # importing the package, the region map, pair and the power sweep are
    # scalar math throughout
    monkeypatch.setenv("PYTHONPATH", SRC)
    prefix = [sys.executable, "-s", "-c", "import sys; sys.modules['numpy'] = None; "
              "from vlc_noma.cli import main; sys.exit(main())"]
    assert check(prefix, [DIGESTS[name] for name in ("region", "pair", "sweep-power")]) == 0
    assert capsys.readouterr().out == "3 of 3 digests match\n"


def test_noma_sum_rate_is_sum_of_user_rates_exactly():
    rng = np.random.default_rng(7)
    for g, r in zip(10.0 ** rng.uniform(-3.0, 14.0, 2000), 10.0 ** rng.uniform(0.0, 27.0, 2000)):
        g, r = float(g), float(r)
        assert noma_rate_at(g, r) == sum(noma_user_rates(g, r))
