"""What ``import repro`` costs: no scipy, no native build, no library load.

Import time is paid by every CLI call, worker process and benchmark
setup, so heavy dependencies are imported where they are used and the
native SMO kernel is built and loaded on the first solve, not before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import json, sys
import repro, repro.cli
from repro.svm import native
maps = open("/proc/self/maps").read() if sys.platform == "linux" else ""
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "native_tried": native.kernel._tried,
    "native_mapped": "smo_kernel" in maps,
}))
"""


def _import_probe(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_import_leaves_scipy_out(tmp_path):
    assert _import_probe(tmp_path)["scipy"] == []


def test_import_builds_and_loads_no_native_code(tmp_path):
    probe = _import_probe(tmp_path)
    assert probe["native_tried"] is False
    assert probe["native_mapped"] is False
    assert not (tmp_path / "cache").exists()
