"""Crash safety of the shared store primitives (repro.core.atomic).

Each test runs the writer in a real subprocess armed through
``REPRO_CHAOS`` (never set in this test process's own environment),
SIGKILLs it inside the crash window, and checks what a reader sees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def chaos_env(**arms) -> dict:
    """A subprocess environment with ``REPRO_CHAOS`` arms (and nothing
    chaotic inherited by this test process)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CHAOS", "REPRO_CHAOS_MARK_DIR")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(arms)
    return env


def test_crash_mid_atomic_write_never_exposes_partial_file(tmp_path):
    target = str(tmp_path / "doc.json")
    code = (
        "import sys\n"
        "from repro.core.atomic import atomic_write_json\n"
        "atomic_write_json(sys.argv[1], {'huge': 'x' * 100000})\n"
    )
    env = chaos_env(REPRO_CHAOS="atomic-write=kill")
    proc = subprocess.run([sys.executable, "-c", code, target],
                          env=env, timeout=60)
    assert proc.returncode == -9
    assert not os.path.exists(target)  # never materialized partially
    # A pre-existing document survives the same crash untouched.
    with open(target, "w") as fh:
        json.dump({"old": True}, fh)
    proc = subprocess.run([sys.executable, "-c", code, target],
                          env=env, timeout=60)
    assert proc.returncode == -9
    assert json.load(open(target)) == {"old": True}
    # Without chaos the exact same call lands the new document whole.
    proc = subprocess.run([sys.executable, "-c", code, target],
                          env=chaos_env(), timeout=60)
    assert proc.returncode == 0
    assert json.load(open(target))["huge"].startswith("x")


def test_crash_mid_append_never_garbles_the_log(tmp_path):
    log = str(tmp_path / "log.jsonl")
    code = (
        "import sys\n"
        "from repro.core.atomic import atomic_append_line\n"
        "atomic_append_line(sys.argv[1], '{\"n\": 3}')\n"
    )
    for n in (1, 2):
        subprocess.run(
            [sys.executable, "-c", code.replace('"n": 3', f'"n": {n}'), log],
            env=chaos_env(), timeout=60, check=True,
        )
    proc = subprocess.run(
        [sys.executable, "-c", code, log],
        env=chaos_env(REPRO_CHAOS="append-line=kill"), timeout=60,
    )
    assert proc.returncode == -9
    lines = open(log).read().splitlines()
    assert [json.loads(ln)["n"] for ln in lines] == [1, 2]  # nothing torn
