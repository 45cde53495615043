"""Proving-service lifecycle: reaching a daemon, stopping one in-process,
and stopping ``repro serve`` by signal.

``tests/test_service.py`` drives requests through a live daemon; these
tests cover what happens around them — a client with no daemon to talk
to, a ``stop()`` with clients still connected (idle, or not reading),
and the SIGINT / SIGTERM path of the real ``repro serve`` process.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.cli import EXIT_CONFIG_ERROR, main
from repro.service import ServiceClient, ServiceError
from repro.service.server import ProvingService, ServiceConfig

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code, message", [
    (["--unix-socket", "/nonexistent.sock"], 1, "cannot reach daemon at"),
    (["--connect", "127.0.0.1:1"], 1, "cannot reach daemon at"),
    (["--connect", "localhost:abc"], EXIT_CONFIG_ERROR, "needs a port"),
], ids=["no_socket", "refused", "bad_port"])
def test_unreachable_daemon_is_one_line(argv, code, message, capsys):
    """No daemon at the address is a transport failure (exit 1) and a
    malformed address a ConfigError (exit 3): one line on stderr, no
    traceback, and no socket left open."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["client", "stats"] + argv) == code
        gc.collect()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not [w for w in caught
                if issubclass(w.category, ResourceWarning)], caught


def test_stop_hangs_up_idle_connections(tmp_path):
    """``stop()`` does not wait on a client that holds an idle
    connection: it shuts the connection, leaves no thread behind, and the
    client's next request fails at once instead of being answered."""
    sock_path = str(tmp_path / "repro.sock")
    before = set(threading.enumerate())
    service = ProvingService(ServiceConfig(unix_socket=sock_path))
    service.start()
    with ServiceClient(sock_path) as idle:
        assert idle.ping()["ok"]
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(1.0)
        assert not stopper.is_alive(), "stop() waited on an idle client"
        assert set(threading.enumerate()) <= before
        t0 = time.monotonic()
        with pytest.raises(ServiceError):
            idle.ping()
        assert time.monotonic() - t0 < 1.0
    assert not os.path.exists(sock_path)


def test_stop_hangs_up_a_peer_that_never_reads(tmp_path):
    """A peer that pipelines ``result`` requests for a proved job and
    never reads the replies (~1 MB of them) fills its socket, so its
    connection thread blocks in a send; ``stop()`` still returns within a
    few seconds and leaves no thread behind.
    A client that reads is answered meanwhile."""
    import socket

    from repro.service import protocol

    sock_path = str(tmp_path / "repro.sock")
    before = set(threading.enumerate())
    service = ProvingService(ServiceConfig(unix_socket=sock_path))
    service.start()
    deaf = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stopper = threading.Thread(target=service.stop, daemon=True)
    try:
        with ServiceClient(sock_path) as svc:
            job_id = svc.submit("prove", circuit_id="litmus", seed=1)
            assert svc.result(job_id, wait_s=60)["state"] == "done"
        deaf.connect(sock_path)
        deaf.sendall(protocol.pack_frame({"op": "result",
                                          "job_id": job_id}) * 150)
        time.sleep(0.5)                   # the replies back up
        with ServiceClient(sock_path) as reader:
            assert reader.result(job_id)["state"] == "done"
        t0 = time.monotonic()
        stopper.start()
        stopper.join(10.0)
        assert not stopper.is_alive(), "stop() waited on a deaf peer"
        assert time.monotonic() - t0 < 5.0
        assert set(threading.enumerate()) <= before
    finally:
        deaf.close()
        if stopper.is_alive():
            stopper.join(10.0)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_signal_drains_and_stops(tmp_path, sig):
    """``repro serve`` stopped by a signal after serving a prove exits 0,
    says it drained, and removes its socket file."""
    sock_path = str(tmp_path / "repro.sock")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix-socket", sock_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # The line is printed once the signal handlers are in place.
        assert "listening on" in proc.stdout.readline()
        with ServiceClient(sock_path) as svc:
            assert svc.prove("litmus", seed=1)[:4] == b"NCPE"
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    assert "drained and stopped" in out
    assert not os.path.exists(sock_path)
