"""Golden bytes: published outputs pinned by sha256.

Any change that should keep outputs identical (refactors, speedups) must
leave these digests alone; a deliberate change to the numbers updates them
and says why in CHANGES.md.
"""

import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import vlc_noma
from vlc_noma.channel import floor_gains
from vlc_noma.cli import main
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import run_region_map, run_sweep_power, run_sweep_users
from vlc_noma.rates import noma_rate_at, noma_user_rates

REGION_MAP = "4e3435b510220a648b55a504281445b17c19e5fa4b0a02ed8f7256a0276ad79a"
SWEEP_POWER = "8c3fc59e584ac2a2c6eca4a0ae206d88846b9be22152fe74ce8037624e4130e1"
# fov_deg = 50: two of the six fixed receivers lie outside the field of view.
SWEEP_POWER_FOV50 = "f531b1db41f1552b45208ebd6eee6655b61f085108ff77d85e6443fd01b9a8e0"
# -10..480 dB at step 0.5 (981 rows), validated or not: unlike the default
# 0..60 dB map it reaches the solver's high-SNR iteration counts and its
# bracket growth.
REGION_MAP_WIDE = "e66d952b10e07c5d733cc4d168243b087b237afda79a172502f51111ae755f58"
PAIR = "819fe4d61368f5dc2ed4d35a2d8756fe3d4194488d20a38ed855fb5be4f05d66"
PAIR_GAINS = "1e-6,1.05e-6,1.1502173707608487e-6,3.162277660168379e-6"
SWEEP_USERS_200 = "19f2084c0ece2bab492ea352891d09d1acce06ad9727a9664dcde2c5a0a71257"
# K = 2..3, the grid this digest was recorded at. Each worker runs whole
# 2048-drop blocks of one K, so its output depends only on those blocks.
SWEEP_USERS_200_K3 = "d098748a14314ef896271582734101bdaa1990b3eb72436a0dafd80008b4283b"
# The published default sweep: 10^4 drops per K = 2..10, seed 1.
SWEEP_USERS_DEFAULT = "2481a1dd704f60a16c64ac975d9b6ff6e5b2a059660762e1c8051750fc069dce"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_region_map_bytes():
    assert _sha(run_region_map(ExperimentConfig(), validate=True).csv_text()) == REGION_MAP


def test_wide_region_map_bytes():
    cfg = ExperimentConfig(snr_db_min=-10.0, snr_db_max=480.0, snr_db_step=0.5)
    assert _sha(run_region_map(cfg, validate=True).csv_text()) == REGION_MAP_WIDE


def test_sweep_power_bytes():
    # Every gap-sign pair lies in its certified oracle region, and the
    # check adds no byte.
    assert _sha(run_sweep_power(ExperimentConfig()).csv_text()) == SWEEP_POWER


def test_narrow_fov_sweep_power_bytes():
    # Receivers 5 and 6, at (5, 6, 0) and (6, 1, 0), are dead, so the
    # checked greedy skips them and forced pairing rates zero-gain pairs.
    cfg = ExperimentConfig(fov_deg=50.0)
    gains = floor_gains(cfg.link(), cfg.fixed_positions)
    assert [i for i, h in enumerate(gains, 1) if h == 0.0] == [5, 6]
    assert _sha(run_sweep_power(cfg).csv_text()) == SWEEP_POWER_FOV50


def test_pair_bytes(capsys):
    assert main(["pair", "--gains", PAIR_GAINS]) == 0
    assert _sha(capsys.readouterr().out) == PAIR


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
    assert _sha(run_sweep_power(ExperimentConfig()).csv_text()) == SWEEP_POWER
    assert main(["pair", "--gains", PAIR_GAINS]) == 0
    assert _sha(capsys.readouterr().out) == PAIR


# Runs with numpy unimportable: importing the package, the validated region
# map, pair and the power sweep are scalar math throughout.
NUMPY_FREE_SCRIPT = """
import sys
sys.modules["numpy"] = None
import contextlib, hashlib, io, json
import vlc_noma
from vlc_noma.cli import main
from vlc_noma.experiments import run_region_map, run_sweep_power
cfg = vlc_noma.ExperimentConfig()
pair = io.StringIO()
with contextlib.redirect_stdout(pair):
    code = main(["pair", "--gains", sys.argv[1]])
texts = {
    "region": run_region_map(cfg, validate=True).csv_text(),
    "pair": pair.getvalue(),
    "sweep_power": run_sweep_power(cfg).csv_text(),
}
print(json.dumps({"code": code, **{name: hashlib.sha256(text.encode()).hexdigest()
                                   for name, text in texts.items()}}))
"""


def test_region_pair_and_power_sweep_run_without_numpy():
    src = str(Path(vlc_noma.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-s", "-c", NUMPY_FREE_SCRIPT, PAIR_GAINS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "code": 0, "region": REGION_MAP, "pair": PAIR, "sweep_power": SWEEP_POWER}


def test_sweep_users_bytes_serial():
    cfg = ExperimentConfig(trials=200, seed=1)
    assert _sha(run_sweep_users(cfg).csv_text()) == SWEEP_USERS_200


def test_sweep_users_default_bytes():
    assert _sha(run_sweep_users(ExperimentConfig()).csv_text()) == SWEEP_USERS_DEFAULT


def test_sweep_users_bytes_parallel():
    cfg = ExperimentConfig(trials=200, seed=1, users_max=3)
    assert _sha(run_sweep_users(cfg, workers=2).csv_text()) == SWEEP_USERS_200_K3


def test_noma_sum_rate_is_sum_of_user_rates_exactly():
    rng = np.random.default_rng(7)
    for g, r in zip(10.0 ** rng.uniform(-3.0, 14.0, 2000), 10.0 ** rng.uniform(0.0, 27.0, 2000)):
        g, r = float(g), float(r)
        assert noma_rate_at(g, r) == sum(noma_user_rates(g, r))
