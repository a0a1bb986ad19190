"""The worker end of the socket-distributed backend.

Run on any host that can reach the parent's listening socket::

    python -m repro.par.executors.socket_worker --connect parent:7777

The worker connects, applies the hello's import-path entries (only the
ones that exist on *this* host — a remote machine uses its own ``repro``
install), arms per-worker metrics when asked, then pulls cells until the
parent says exit.  One JSON object per line in each direction; cells run
through the exact :func:`repro.par.worker.run_cell` path the spawn pool
uses, so a socket cell is bit-identical to every other backend's.
"""

import argparse
import json
import os
import socket
import sys


def serve(sock):
    """The pull loop on an open connection; returns the exit status."""
    reader = sock.makefile("r", encoding="utf-8", newline="\n")
    writer = sock.makefile("w", encoding="utf-8", newline="\n")

    def send(msg):
        writer.write(json.dumps(msg, separators=(",", ":")) + "\n")
        writer.flush()

    hello = json.loads(reader.readline())
    if hello.get("op") != "hello":
        print("socket_worker: expected hello, got {!r}".format(hello),
              file=sys.stderr)
        return 1
    entries = [entry for entry in hello.get("sys_path", ())
               if os.path.isdir(entry)]
    # repro imports must wait for the path fix-up the hello carries
    from repro.par.worker import CellError, run_cell, worker_init

    worker_init(entries, hello.get("obs_metrics", False))
    send({"op": "ready"})
    for line in reader:
        msg = json.loads(line)
        op = msg.get("op")
        if op == "cell":
            spec = msg["spec"]
            try:
                cell = run_cell(spec)
            except CellError as exc:
                send({"op": "error", "index": spec["index"],
                      "error": str(exc)})
            else:
                send({"op": "result", "cell": cell})
            send({"op": "ready"})
        elif op == "exit":
            return 0
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.par.executors.socket_worker",
        description="Serve cells for a socket-distributed parallel run.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the parent runner's listening address")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="connect timeout in seconds (default 30)")
    args = parser.parse_args(argv)
    host, _sep, port = args.connect.rpartition(":")
    if not _sep or not host:
        parser.error("--connect must be 'host:port', got {!r}".format(
            args.connect))
    with socket.create_connection((host, int(port)),
                                  timeout=args.timeout) as sock:
        sock.settimeout(None)
        return serve(sock)


if __name__ == "__main__":
    sys.exit(main())
