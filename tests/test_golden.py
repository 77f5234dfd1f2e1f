"""Behaviour lock: SHA-256 of every output file of one small pinned run
per subcommand.

The configs live in ``tests/golden/``.  A change that moves a digest
changes what the simulator computes for a config that was valid before;
such a change must say why, and re-pin the digest on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from coevomarket.cli import main

GOLDEN = Path(__file__).parent / "golden"

DIGESTS = {
    "session": {
        "tape.csv": "bd340e24f48510b26d260444dbb9307fd928258931eccb78040c5e5a1f2f610d",
        "profits.csv": "6d78b0797640f39a85114369ab034b411c91d9e2ddc9ac34d6c045317e398f70",
    },
    "quiver": {
        "quiver.csv": "9c8ad1202f7d227a2c3f2d0c66b13b4a28d913a18d98b536fee1af0a08da39ca",
    },
    "coevolve": {
        "strategies.csv": "829c63aec4ea5a22dc793eb79b389d3a27b9e71485cf1c437bceec024f7f9f27",
        "recurrence.pbm": "ad9f24122482e5614827a4caba537235555945ae350036dda60654d357dd3845",
        "rqa.csv": "dcfd7bcd2e9ed26d6a017ae18f2dc8fe80b8ef820bd9ab80ddf0b17bbf30f48c",
    },
    "stgp": {
        "genstats.csv": "63623ed30863cb02d962a42b5a004af6b3a2abbce5bcb33b8308a06e3200e2a5",
        "elites.txt": "c920684de8114bca0adbcaf423fdd288d802ef3375ef3763b989637774f97870",
    },
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_outputs_match_pinned_digests(command, tmp_path):
    out = tmp_path / command
    config = GOLDEN / f"{command}.json"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert written == DIGESTS[command]
