"""The socket-distributed backend: multi-host workers over line JSON.

The parent listens on a TCP socket; workers — local subprocesses it
launches itself, remote ones started by hand — connect and *pull* cells
one at a time off the shared :class:`CellQueue`, so a fast host streams
through cells while a slow one chews on its current cell: work stealing
across machines.  The wire protocol is one JSON object per line, cells
crossing in the primitive spec form :meth:`repro.par.shard.WorkItem.spec`
already defines:

=====================  =============================================
direction              message
=====================  =============================================
parent -> worker       ``{"op": "hello", "obs_metrics": b, "sys_path": [..]}``
worker -> parent       ``{"op": "ready"}``
parent -> worker       ``{"op": "cell", "spec": {...}}`` or ``{"op": "exit"}``
worker -> parent       ``{"op": "result", "cell": {...}}``
                       or ``{"op": "error", "index": i, "error": "..."}``,
                       then ``{"op": "ready"}`` again
=====================  =============================================

By default the executor launches ``jobs`` local worker subprocesses
(``python -m repro.par.executors.socket_worker --connect host:port``) —
the same command starts a *remote* worker against a parent listening on
a routable address (``PSBOX_SOCKET_LISTEN=0.0.0.0:7777``; set
``PSBOX_SOCKET_LAUNCH=0`` to use remote workers only).  Remote hosts
must have ``repro`` importable; the hello's ``sys_path`` entries are
only applied where they exist.  A worker that dies mid-cell has its
cell pushed back for another worker; the run fails fast only when every
launched worker is gone with cells still outstanding.
"""

import json
import os
import queue
import socket
import subprocess
import sys
import threading

from repro.par.executors.base import CellQueue, Executor
from repro.par.executors.spawn import parent_sys_path

#: env knobs for multi-host runs (documented in EXPERIMENTS.md)
LISTEN_ENV = "PSBOX_SOCKET_LISTEN"
LAUNCH_ENV = "PSBOX_SOCKET_LAUNCH"

WORKER_MODULE = "repro.par.executors.socket_worker"


def send_msg(writer, msg):
    """One protocol message: compact JSON, one line, flushed."""
    writer.write(json.dumps(msg, separators=(",", ":")) + "\n")
    writer.flush()


def parse_addr(addr):
    host, _sep, port = addr.rpartition(":")
    if not _sep or not host:
        raise ValueError(
            "socket address must be 'host:port', got {!r}".format(addr))
    return host, int(port)


class SocketExecutor(Executor):
    name = "socket"

    def __init__(self, jobs=1, obs_metrics=False, listen=None, launch=None):
        super().__init__(jobs=jobs, obs_metrics=obs_metrics)
        self.listen = (listen if listen is not None
                       else os.environ.get(LISTEN_ENV, "127.0.0.1:0"))
        env_launch = os.environ.get(LAUNCH_ENV)
        self.launch = (launch if launch is not None
                       else (int(env_launch) if env_launch is not None
                             else jobs))

    def run(self, specs):
        specs = list(specs)
        if not specs:
            return
        host, port = parse_addr(self.listen)
        server = socket.create_server((host, port))
        server.settimeout(0.2)
        bound_port = server.getsockname()[1]
        cells = CellQueue(specs)
        events = queue.Queue()
        stop = threading.Event()
        serving = []      # live per-connection threads
        sys_path = parent_sys_path()

        procs = self._launch_local(bound_port, len(specs), sys_path)

        def accept_loop():
            while not stop.is_set():
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                thread = threading.Thread(
                    target=self._serve, daemon=True,
                    args=(conn, cells, events, sys_path))
                serving.append(thread)
                thread.start()

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()
        try:
            got = 0
            while got < len(specs):
                try:
                    event = events.get(timeout=1.0)
                except queue.Empty:
                    self._check_liveness(procs, serving,
                                         len(specs) - got)
                    continue
                got += 1
                yield event
        finally:
            stop.set()
            acceptor.join()
            server.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for thread in serving:
                thread.join(timeout=5)

    def _launch_local(self, port, n_cells, sys_path):
        """Start the local worker subprocesses (none when launch=0)."""
        workers = min(self.launch, self.jobs, n_cells)
        if workers <= 0:
            return []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            sys_path + [env["PYTHONPATH"]] if env.get("PYTHONPATH")
            else sys_path)
        command = [sys.executable, "-m", WORKER_MODULE,
                   "--connect", "127.0.0.1:{}".format(port)]
        return [subprocess.Popen(command, env=env) for _ in range(workers)]

    def _serve(self, conn, cells, events, sys_path):
        """One connection's request loop: hand out cells, collect events."""
        in_flight = None
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        try:
            send_msg(writer, {"op": "hello",
                              "obs_metrics": self.obs_metrics,
                              "sys_path": sys_path})
            for line in reader:
                msg = json.loads(line)
                op = msg.get("op")
                if op == "ready":
                    spec = cells.steal()
                    if spec is None:
                        send_msg(writer, {"op": "exit"})
                        break
                    in_flight = spec
                    send_msg(writer, {"op": "cell", "spec": spec})
                elif op == "result":
                    in_flight = None
                    events.put({"ok": True, "cell": msg["cell"]})
                elif op == "error":
                    in_flight = None
                    events.put({"ok": False, "index": msg["index"],
                                "error": msg["error"]})
        except (OSError, ValueError):
            pass     # connection lost; the cell (if any) is requeued below
        finally:
            if in_flight is not None:
                cells.push_back(in_flight)
            try:
                conn.close()
            except OSError:
                pass

    def _check_liveness(self, procs, serving, outstanding):
        """Fail fast when every launched worker is gone mid-run."""
        if not procs or outstanding <= 0:
            return   # external-worker mode: keep waiting
        if any(proc.poll() is None for proc in procs):
            return
        if any(thread.is_alive() for thread in serving):
            return
        raise RuntimeError(
            "all {} socket worker(s) exited with {} cell(s) outstanding "
            "(worker exit codes: {})".format(
                len(procs), outstanding,
                [proc.returncode for proc in procs]))
