"""A `polyufc serve` daemon under the benchmark's control, and a blocking
client for its length-prefixed JSON protocol (4-byte big-endian length,
then the UTF-8 JSON payload)."""

import json
import os
import socket
import struct
import subprocess
import time


class ServeError(Exception):
    pass


def _read_exact(sock, n):
    chunks = []
    while n:
        b = sock.recv(n)
        if not b:
            raise ServeError("daemon closed the connection")
        chunks.append(b)
        n -= len(b)
    return b"".join(chunks)


class Client:
    """One connection, one request in flight (a closed loop)."""

    def __init__(self, path, alive=lambda: True, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if not alive() or time.monotonic() > deadline:
                    raise ServeError("no daemon answers on %s" % path)
                time.sleep(0.02)
        self.sock = s
        self.next_id = 0

    def call(self, op, params):
        """Send one v2 request; return (ok, payload_or_error)."""
        self.next_id += 1
        req = {"id": self.next_id, "version": 2, "op": op, "params": params}
        body = json.dumps(req).encode()
        self.sock.sendall(struct.pack(">I", len(body)) + body)
        (n,) = struct.unpack(">I", _read_exact(self.sock, 4))
        resp = json.loads(_read_exact(self.sock, n))
        if resp.get("id") != self.next_id:
            raise ServeError("response id %r for request %d" % (resp.get("id"), self.next_id))
        if "ok" in resp:
            return True, resp["ok"]
        return False, resp.get("error")

    def close(self):
        self.sock.close()


def proc_cpu_s(pid):
    """User plus system CPU seconds of a live process, from /proc."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServeError("no VmHWM for pid %d" % pid)


class Daemon:
    """`polyufc serve` with one worker and one job: it computes on one
    core, the one the benchmark pins the client and the daemon to."""

    def __init__(self, exe, rundir, env):
        os.makedirs(rundir, exist_ok=True)
        # relative to the checkout root: AF_UNIX paths are limited to 108 bytes
        self.socket = os.path.relpath(os.path.join(rundir, "serve.sock"))
        args = [exe, "serve", "--socket", self.socket, "--workers", "1", "--jobs", "1",
                "--cache-dir", os.path.join(rundir, "store")]
        self.log = open(os.path.join(rundir, "serve.stderr"), "wb")
        self.client = None
        self.proc = subprocess.Popen(
            args, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log, env=env
        )
        try:
            self.client = Client(self.socket, alive=lambda: self.proc.poll() is None)
        except ServeError:
            self.stop()
            raise

    @property
    def pid(self):
        return self.proc.pid

    def call(self, op, params):
        return self.client.call(op, params)

    def cpu_s(self):
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self):
        return proc_peak_rss_mb(self.pid)

    def stop(self):
        """Graceful drain through the protocol; SIGKILL if it hangs."""
        try:
            if self.client is not None:
                try:
                    self.client.call("shutdown", {})
                except (ServeError, OSError):
                    pass
                self.client.close()
                self.client = None
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()
