"""Shared machinery of the end-to-end benchmark: building the programs from
source, launching them, talking HTTP to the result server, recording spans,
and turning samples into metrics.

Everything the benchmark writes goes under the checkout it runs in: the
build under ``.bench_build/`` and stores, sockets and traces under
``.perfbench/``.
"""

import contextlib
import http.client
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import time
import urllib.parse

BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench"
PROGRAMS = ("tables", "sweep", "serve")

# Every program runs its engine on one worker domain, so timings depend on
# the code under test rather than on how many cores happen to be idle.
PROGRAM_ENV = {"MFU_JOBS": "1"}

# A program invocation that outlives this is killed and fails its operation.
# Every invocation the workloads make normally ends within a few seconds.
CALL_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The benchmark cannot run here (no sources, toolchain or build)."""


def build(root):
    """Build the three user-facing programs with dune and return their paths.

    Raises SetupError when the checkout holds no buildable sources.
    """
    if not os.path.isfile(os.path.join(root, "dune-project")):
        raise SetupError(f"no dune-project in {root}: not a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        raise SetupError("dune is not on PATH")
    targets = [f"bin/{p}.exe" for p in PROGRAMS]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", *targets],
            cwd=root, env=env, capture_output=True, text=True, timeout=840)
    except subprocess.TimeoutExpired as e:
        raise SetupError("dune build timed out") from e
    if r.returncode != 0:
        raise SetupError("dune build failed:\n" + r.stderr[-4000:])
    return {p: os.path.join(root, BUILD_DIR, "default", "bin", f"{p}.exe")
            for p in PROGRAMS}


def fresh_dir(path):
    """Remove path (a store and its sibling lease directory) and recreate
    its parent, so the next program run starts from nothing."""
    for p in (path, path + ".leases"):
        shutil.rmtree(p, ignore_errors=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


# --------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans at the benchmark's calls into each layer.

    Disabled, a span does nothing. Enabled, spans are kept with the span
    that caused them and written out once, at the end, as Chrome
    trace-event JSON.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.events = []
        self._ids = iter(range(1, 1 << 62))
        self._stack = [0]

    @contextlib.contextmanager
    def span(self, name, **args):
        if not self.enabled:
            yield
            return
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.events.append({
                "name": name, "ph": "X", "pid": 1,
                "tid": 1,
                "ts": (t0 - self.origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": dict(args, id=sid, parent=parent)})

    def write(self, path):
        if not self.enabled:
            return
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


# --------------------------------------------------------------------------
# Programs


_GC_LINE = re.compile(r"^(allocated_words|top_heap_words): (\d+)$", re.M)


def gc_stats(stderr):
    """Allocated and peak heap words from the report the OCaml runtime
    prints at exit when traced (OCAMLRUNPARAM=v=0x400); {} otherwise."""
    return {name: int(words) for name, words in _GC_LINE.findall(stderr)}


class Programs:
    """Launches the built executables, one span per invocation. When
    tracing, every program also reports its allocation at exit."""

    def __init__(self, paths, root, tracer):
        self.paths = paths
        self.root = root
        self.tracer = tracer
        self.env = dict(os.environ, **PROGRAM_ENV)
        if tracer.enabled:
            self.env["OCAMLRUNPARAM"] = "v=0x400"

    def run(self, program, args, span=None):
        """Run one program to completion.

        Returns (returncode, stdout, stderr, wall seconds).
        """
        argv = [self.paths[program], *args]
        with self.tracer.span(span or program, argv=" ".join(args)):
            t0 = time.perf_counter()
            try:
                r = subprocess.run(argv, cwd=self.root, env=self.env,
                                   capture_output=True, text=True,
                                   timeout=CALL_TIMEOUT_S)
                rc, out, err = r.returncode, r.stdout, r.stderr
            except subprocess.TimeoutExpired:
                rc, out, err = -1, "", f"{program} timed out"
            wall = time.perf_counter() - t0
        return rc, out, err, wall

    def start_server(self, store, sock, stderr=subprocess.DEVNULL):
        """Start serve.exe on a Unix socket and wait until /healthz answers.

        Returns (process, seconds from launch to the first healthy reply).
        """
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(self.root, sock))
        with self.tracer.span("serve.start", store=store):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [self.paths["serve"], "--store", store, "--listen", "unix:" + sock],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr)
            while True:
                if proc.poll() is not None:
                    raise RuntimeError(f"serve.exe exited with {proc.returncode}")
                if time.perf_counter() - t0 > 30:
                    stop_server(proc)
                    raise RuntimeError("serve.exe did not become healthy")
                try:
                    with contextlib.closing(Client(sock, timeout=5)) as c:
                        if c.get("/healthz")[0] == 200:
                            break
                except OSError:
                    pass
                time.sleep(0.002)
            ready = time.perf_counter() - t0
        return proc, ready


def stop_server(proc):
    """SIGTERM the server (it drains gracefully) and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# --------------------------------------------------------------------------
# HTTP client for mfu-serve/v1


class _UnixConnection(http.client.HTTPConnection):
    """An HTTP/1.1 keep-alive connection over the server's Unix socket."""

    def __init__(self, path, timeout):
        super().__init__("mfu-serve", timeout=timeout)
        self.unix_path = path

    def connect(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        try:
            self.sock.connect(self.unix_path)
        except OSError:
            self.sock.close()
            raise


class Client:
    """A client of mfu-serve/v1 on one keep-alive connection."""

    def __init__(self, sock, timeout=60):
        self.conn = _UnixConnection(sock, timeout)
        self.conn.connect()

    def close(self):
        self.conn.close()

    def request(self, method, path, body=None):
        """Send one request; returns (status, body bytes)."""
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path):
        return self.request("GET", path)

    def point(self, spec):
        """GET /v1/point: the point event as one JSON line (bytes)."""
        status, body = self.get("/v1/point?" + urllib.parse.urlencode({"spec": spec}))
        if status != 200:
            raise RuntimeError(f"/v1/point {status}: {body[:200]!r}")
        return body.strip()

    def query(self, spec):
        """POST /v1/query: (the streamed event lines before the summary,
        the decoded summary event)."""
        status, body = self.request("POST", "/v1/query",
                                    json.dumps({"spec": spec}).encode())
        if status != 200:
            raise RuntimeError(f"/v1/query {status}: {body[:200]!r}")
        lines = body.splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        if summary.get("event") != "summary":
            raise RuntimeError("query stream ended without a summary")
        return lines[:-1], summary

    def stats(self):
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats {status}")
        return json.loads(body)


# --------------------------------------------------------------------------
# Statistics


# The reference loop's time on this benchmark's home host (a shared 2-vCPU
# virtual machine) at its fastest: timings are scaled to a host that runs
# the loop this fast.
REFERENCE_LOOP_S = 0.045


def reference_loop():
    """Seconds a fixed pure-Python loop takes now.

    No code of the repository runs in it, so no change to the repository
    moves it, while it slows down with the host's CPU: on the home host the
    loop took 42 to 88 ms over an hour, and scaling the sweep workload's
    times by it cut their run-to-run spread from 0.17 to 0.07."""
    t0 = time.perf_counter()
    x = 0
    for i in range(800_000):
        x += i * i
    return time.perf_counter() - t0



def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """The p-th percentile (0 < p < 100), interpolated between samples
    (statistics.quantiles' inclusive method, which never leaves their
    range); the median of fewer than two samples."""
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
