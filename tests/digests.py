"""Every published output digest: the sha256 of one `vlc-noma` command's
stdout, one row each. No test or CI step holds a digest of its own
(tests/test_golden.py checks that); perfbench keeps its own pins.

Tier-1 runs each row in process (tests/test_golden.py::test_published_digest);
CI runs each through the installed console script, `python tests/digests.py
vlc-noma`. The arguments are the command prefix, so `PYTHONPATH=src python
tests/digests.py python -m vlc_noma.cli` runs the table from a checkout. A
row's config is written under a temporary directory. A golden change made on
purpose edits its rows and says why in CHANGES.md.

`libm` is the libm a digest was recorded under: "fma" for glibc's FMA
variants only, "any" where the non-FMA ones give the same bytes. CI's
FMA-masked tier-1 step deselects exactly the "fma" rows.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Digest(NamedTuple):
    name: str
    argv: str  # whitespace-separated
    config: str | None
    libm: str
    sha256: str
    why: str

    def args(self, directory) -> list[str]:
        """The argv; a config is written into directory and passed by --config."""
        if self.config is None:
            return self.argv.split()
        path = Path(directory, f"{self.name}.cfg")
        path.write_text(self.config, encoding="utf-8")
        return [*self.argv.split(), "--config", str(path)]


K100 = "users_min = 100\nusers_max = 100\n"
FOV50 = "fov_deg = 50.0\n"

ROWS = (
    Digest("sweep-users", "sweep-users", None, "any",
           "2481a1dd704f60a16c64ac975d9b6ff6e5b2a059660762e1c8051750fc069dce",
           "the published default sweep: 10^4 drops per K = 2..10, seed 1"),
    Digest("sweep-users-workers-2", "sweep-users --workers 2", None, "any",
           "2481a1dd704f60a16c64ac975d9b6ff6e5b2a059660762e1c8051750fc069dce",
           "the same fixed 2048-drop blocks over a pool of two processes"),
    Digest("sweep-users-workers-3", "sweep-users --workers 3", None, "any",
           "2481a1dd704f60a16c64ac975d9b6ff6e5b2a059660762e1c8051750fc069dce",
           "a pool of up to three, in an order the worker count sets"),
    Digest("sweep-users-seed-2", "sweep-users --seed 2", None, "any",
           "bcd7f2abb23e8fc505862f5df651a6721f2ad6fdc668ad07e53cfdad2a233836",
           "the full 10^4-drop default block kernel at a hold-out seed"),
    Digest("sweep-users-seed-3-workers-2", "sweep-users --seed 3 --workers 2", None, "any",
           "98f6bf4adf06b93f2e07a0e53c7a5a6e8b60e56b6abe4cf770dd59fe4d2c53dd",
           "the full sweep at a third seed, its blocks over a pool of two"),
    Digest("sweep-users-trials-2000", "sweep-users --trials 2000", None, "any",
           "1530225117f5ac8bb840b4cb4da2d5ff3d9baad8e039ce7deec00ecad5cd7091",
           "the default room over the full K range, one 2,000-drop block per K"),
    Digest("sweep-users-trials-200", "sweep-users --trials 200", None, "any",
           "19f2084c0ece2bab492ea352891d09d1acce06ad9727a9664dcde2c5a0a71257",
           "one short block per K = 2..10"),
    Digest("sweep-users-trials-1", "sweep-users --trials 1", None, "any",
           "be976faab085d6518b431227708d89e0aac2565f9df241632e480daecb6ea678",
           "one trial per K, whose standard errors are 0.0"),
    Digest("sweep-users-k3-workers-2", "sweep-users --trials 200 --workers 2",
           "users_max = 3\n", "any",
           "d098748a14314ef896271582734101bdaa1990b3eb72436a0dafd80008b4283b",
           "each worker runs whole blocks of one K, so its output depends only on them"),
    Digest("sweep-users-seed-2-trials-3000", "sweep-users --seed 2 --trials 3000", None, "any",
           "d868b0e96283f4f4a4531691f83453564016cdc256731ae40a8b3126985d7261",
           "each K's second block holds the 952 trials past the first 2048"),
    Digest("sweep-users-seed-2-trials-3000-workers-3",
           "sweep-users --seed 2 --trials 3000 --workers 3", None, "any",
           "d868b0e96283f4f4a4531691f83453564016cdc256731ae40a8b3126985d7261",
           "a three-process pool computes the same partial blocks as the serial run"),
    Digest("sweep-users-k100", "sweep-users --trials 2048", K100, "any",
           "2bb095754c1e0c70505e4bf5d27aa783666c931b8d42038241153967c680ad93",
           "one full block at K = 100: the in-place block route at 2048 x 200 uniforms"),
    Digest("sweep-users-k1000", "sweep-users --trials 2048",
           "users_min = 1000\nusers_max = 1000\n", "any",
           "3c02d58d5eb0d0010d0ae9586cbf7f5f7de4a14a5b087694b2a0ac90f1157cfc",
           "one block at USER_LIMIT: the block greedy's one pass per weak index from the tops"),
    Digest("sweep-users-k100-low-power", "sweep-users --trials 2048",
           K100 + "led_power = 0.05\n", "any",
           "3c9e096e96e77320ff58bcb625c8dbaf3c57ceb80102a329886cbeb604e4dba4",
           "at 0.05 W many weak users lose at their top, so the search below the tops runs"),
    Digest("sweep-users-fov50", "sweep-users --trials 2000", FOV50, "any",
           "9e1dabc48b9f19bf8a87b457c30611b5ac4ba57085cf7e3efa843cca2b384d1a",
           "5.3% of the users are dead, so every block takes the kernels' masked route"),
    Digest("sweep-power", "sweep-power", None, "any",
           "8c3fc59e584ac2a2c6eca4a0ae206d88846b9be22152fe74ce8037624e4130e1",
           "the fixed positions' gains, rated per LED power by one gap-sign greedy each"),
    Digest("sweep-power-fov50", "sweep-power", FOV50, "any",
           "f531b1db41f1552b45208ebd6eee6655b61f085108ff77d85e6443fd01b9a8e0",
           "two fixed receivers are dead: the greedy skips them; forced pairs rate zero gains"),
    Digest("region", "region", None, "any",
           "4e3435b510220a648b55a504281445b17c19e5fa4b0a02ed8f7256a0276ad79a",
           "the scan, both solver runs and both endpoints' certificates at 61 SNRs"),
    Digest("region-band", "region",
           "snr_db_min = 10.13\nsnr_db_max = 10.2\nsnr_db_step = 0.0005\n", "any",
           "5547a3d054ca059e7fbc1384447884061b58094198fe23065bb7ab60e8972611",
           "11 regions narrower than the scan's grid step; at 10.1345 dB the seed lies "
           "within 1e-3 of r_min, so the r_min certificate rests on the scan's gap"),
    Digest("region-wide", "region",
           "snr_db_min = -10.0\nsnr_db_max = 480.0\nsnr_db_step = 0.5\n", "fma",
           "e66d952b10e07c5d733cc4d168243b087b237afda79a172502f51111ae755f58",
           "the solver's high-SNR iterations and bracket growth; glibc's FMA pow is one "
           "ulp off in the gamma column at 171.5 and 382.0 dB"),
    Digest("pair", "pair --gains 1e-6,1.05e-6,1.1502173707608487e-6,3.162277660168379e-6",
           None, "any",
           "819fe4d61368f5dc2ed4d35a2d8756fe3d4194488d20a38ed855fb5be4f05d66",
           "the golden gains, whose one pair lies inside its oracle region"),
    Digest("pair-past-r-max", "pair --gains 2e-6,0.00034446561201890974", None, "any",
           "16e440c8733c52d6df3b7a257d15ed620095d5b0a61a7a986b3a6f5feb79ba0c",
           "a pair 4.8e-5 past the check region's r_max, inside the 1e-3 widening"),
    Digest("pair-narrow-region", "pair --gains 3.2115e-7,8.6154e-7", None, "any",
           "0bea5773d81b183998236d15c4c2d57d678a04d5ea0cd772a1b26f2565b6ed1d",
           "a region 4.1% wide at 10.134 dB, narrower than the scan's step, holds the pair"),
    Digest("pair-four-ties", "pair --gains 3e-6,2e-6,1e-6,1e-6,1e-6,1e-6", None, "any",
           "244b2c269899155a4d2473414ddcabc9f0a64146d1ed827edc1296af753de398",
           "users 3 to 6 tie on gain: ordered by id, 3 takes the strongest and 4 the next"),
    Digest("pair-zero-gain", "pair --gains 1e-6,0,3e-6,2e-6", None, "any",
           "45a2039198df9bf55645601f77172475491170f758e59f65bb73f1496dbc5be5",
           "a dead link among live users is never paired and rates zero solo"),
    Digest("pair-weak-below-floor", "pair --gains 2e-7,1e-6,2e-6,3e-6", None, "any",
           "1fb502c8ee0f705a1f855ef5e1c547091888737efbee0f1a1e935847e43365d0",
           "user 1 at 6 dB lies below rates.GAMMA_FLOOR, so user 2 takes the strongest"),
    Digest("pair-30-repeats",
           "pair --gains 0.8e-6,3.4e-6,3.1e-6,1.2e-6,2.1e-6,2.0e-6,2.7e-6,3.2e-6,0.6e-6,"
           "0.4e-6,3.4e-6,1.9e-6,3.1e-6,0.3e-6,1.9e-6,3.0e-6,1.1e-6,3.8e-6,3.6e-6,0.4e-6,"
           "0.4e-6,2.3e-6,3.8e-6,1.7e-6,1.1e-6,1.9e-6,0.4e-6,1.1e-6,1.9e-6,2.1e-6", None, "any",
           "307801970c7dfee0c3d856580b1b2c5d60e806d75a14b679c47d7a9bb9922200",
           "30 users, 19 on a repeated gain, one at 9.5 dB: 11 pairs, some not forced"),
)
DIGESTS = {row.name: row for row in ROWS}


def check(prefix, rows=ROWS) -> int:
    """Run each row as prefix + its argv; print each mismatch and a count,
    and return 1 on any mismatch, else 0."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            proc = subprocess.run([*prefix, *row.args(tmp)], capture_output=True, timeout=600)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if proc.returncode != 0 or digest != row.sha256:
                failed += 1
                print(f"MISMATCH {row.name}: exit {proc.returncode}, sha256 {digest}")
                print(proc.stderr.decode(errors="replace"), end="")
    print(f"{len(rows) - failed} of {len(rows)} digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/digests.py COMMAND...  (for example: vlc-noma)")
    sys.exit(check(sys.argv[1:]))
