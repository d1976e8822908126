"""The byte-identity contract: a fixed configuration gives the same report,
byte for byte, as the one kept in tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import rhoq

GOLDEN = Path(__file__).parent / "golden" / "audit_all_p3_prec12_levels1-5_tol5_seed11.json"
ARGV = ["audit", "all", "--p", "3", "--prec", "12", "--levels", "1:5", "--tol", "5", "--seed", "11"]


def test_audit_report_is_byte_identical_to_golden():
    env = dict(os.environ, PYTHONPATH=str(Path(rhoq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rhoq.cli", *ARGV], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == GOLDEN.read_bytes()
