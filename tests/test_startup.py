"""Start-up boundary: SciPy is loaded only where an LP or MILP is solved.

The serving, simulation and sweep paths load numpy and their own layer
only, so a process starts without the LP stack and runs without SciPy
installed.  Each check runs in a fresh interpreter, because the test
process itself has imported SciPy long before these tests run.
``sys.modules["scipy"] = None`` makes every ``import scipy`` fail there
the way a missing install does.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.client import http_call

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: Prefix that runs the CLI with SciPy unimportable.
NO_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _env() -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(code: str, *args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=_env(), timeout=timeout,
    )


def test_entry_modules_load_no_scipy():
    proc = _python(
        "import sys, json\n"
        "import repro.cli, repro.serve.http, repro.sim.simulation\n"
        "import repro.experiments.runner\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_exact_solvers_name_the_extra_without_scipy():
    proc = _python(
        "import sys; sys.modules['scipy'] = None\n"
        "from repro import lp_rounding, lp_upper_bound, solve_exact_milp\n"
        "from repro.instances.generators import random_smd\n"
        "inst = random_smd(4, 3, 2.0, seed=1)\n"
        "for solver in (solve_exact_milp, lp_upper_bound, lp_rounding):\n"
        "    try:\n"
        "        solver(inst)\n"
        "    except ImportError as exc:\n"
        "        print(solver.__name__, exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "solve_exact_milp", "lp_upper_bound", "lp_rounding",
    ]
    assert all("repro-mmd[exact]" in line for line in lines)


@pytest.mark.parametrize("flag", ["--bound", "--exact"])
def test_exact_command_without_scipy_exits_2(tmp_path, flag):
    """A command that needs SciPy prints the CLI's one-line error naming
    the extra and exits 2, like any other usage error: no traceback."""
    path = tmp_path / "inst.json"
    made = _python(NO_SCIPY, "generate", "--family", "smd", "--streams", "4",
                   "--users", "3", "--seed", "1", "-o", str(path))
    assert made.returncode == 0, made.stderr
    proc = _python(NO_SCIPY, "solve", str(path), flag)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "repro-mmd[exact]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--workload", "small-streams", "--horizon", "20",
         "--policies", "threshold", "allocate"],
        ["sweep", "smoke-sim", "-o", os.devnull],
    ],
    ids=["simulate", "sweep"],
)
def test_commands_run_without_scipy(argv):
    proc = _python(NO_SCIPY, *argv)
    assert proc.returncode == 0, proc.stderr


def test_serve_runs_without_scipy(tmp_path):
    """``serve run`` starts, acks an offer and stops cleanly on SIGTERM."""
    proc = subprocess.Popen(
        [sys.executable, "-c", NO_SCIPY, "serve", "run",
         "--dir", str(tmp_path / "svc"), "--workload", "small-streams",
         "--streams", "12", "--users", "8", "--seed", "3"],
        stdout=subprocess.PIPE, env=_env(), text=True,
    )
    try:
        started = json.loads(proc.stdout.readline())
        status, body = http_call(
            "127.0.0.1", started["port"], "POST", "/offer",
            {"stream": 0, "key": "o0"}, timeout=5.0)
        assert status == 200 and body["ok"] and body["seq"] == 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_first_offer_imports_nothing(tmp_path):
    """The request path runs on modules loaded at start-up: serving the
    first ``/offer`` leaves ``sys.modules`` as it was."""
    proc = _python(
        "import asyncio, json, sys\n"
        "from repro.instances.workloads import small_streams_workload\n"
        "from repro.serve.http import AdmissionHTTPService\n"
        "from repro.serve.service import AdmissionCore\n"
        "async def main(root):\n"
        "    core = AdmissionCore.create(small_streams_workload(12, 8, seed=3), root)\n"
        "    server = AdmissionHTTPService(core)\n"
        "    port = await server.start()\n"
        "    forever = asyncio.create_task(server.serve_forever())\n"
        "    before = set(sys.modules)\n"
        "    reader, writer = await asyncio.open_connection('127.0.0.1', port)\n"
        "    body = json.dumps({'stream': 0, 'key': 'k0'}).encode()\n"
        "    writer.write(b'POST /offer HTTP/1.1\\r\\nContent-Length: %d\\r\\n\\r\\n'\n"
        "                 % len(body) + body)\n"
        "    await writer.drain()\n"
        "    head = (await reader.readuntil(b'\\r\\n\\r\\n')).decode()\n"
        "    length = int(head.lower().split('content-length:')[1].split()[0])\n"
        "    reply = json.loads(await reader.readexactly(length))\n"
        "    loaded = sorted(set(sys.modules) - before)\n"
        "    writer.close()\n"
        "    forever.cancel()\n"
        "    await server.stop()\n"
        "    print(json.dumps({'reply': reply, 'loaded': loaded}))\n"
        "asyncio.run(main(sys.argv[1]))\n",
        str(tmp_path / "svc"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["reply"]["ok"] and result["reply"]["seq"] == 0
    assert result["loaded"] == []
