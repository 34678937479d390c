"""Shared plumbing for the benchmark: paths, environment, seeded inputs,
child processes, the keep-alive HTTP client and summary statistics.

Nothing here imports ``repro``: the end-to-end runs reach the program
only through ``python -m repro`` child processes and HTTP, and the
in-process checks and layer probes import it themselves, after the
timed region.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Environment pinned for the runner and every child it starts.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Upper bound on any single wait for a child (banner, fit, shutdown).
CHILD_TIMEOUT_S = 120.0
#: Grace period between SIGTERM and SIGKILL when stopping a server.
SHUTDOWN_GRACE_S = 10.0


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, child failed to start)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(ucr_path: Path | None = None) -> dict[str, str]:
    """Environment for ``python -m repro`` children.

    ``UCR_ARCHIVE_PATH`` points only at the benchmark's generated data
    (or is unset), so no dataset outside the checkout can leak in.
    """
    env = {k: v for k, v in os.environ.items() if k != "UCR_ARCHIVE_PATH"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    if ucr_path is not None:
        env["UCR_ARCHIVE_PATH"] = str(ucr_path)
    return env


def work_dir(workload: str, seed: int) -> Path:
    """Fresh private scratch directory inside the benchmark's folder."""
    path = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def compile_sources() -> None:
    """Byte-compile the program once, untimed, so every timed start
    imports from the same warm bytecode cache rather than the first run
    in a fresh checkout paying for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=child_env(),
        check=True,
        timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )


# -- seeded inputs ------------------------------------------------------
def prototypes(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """``k`` smooth random-walk class shapes of length ``m``."""
    walks = np.cumsum(rng.standard_normal((k, m)), axis=1)
    kernel = np.ones(5) / 5.0
    return np.array([np.convolve(w, kernel, mode="same") for w in walks])


def clustered(
    rng: np.random.Generator, prototypes: np.ndarray, n: int, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` noisy, rescaled, offset members of the prototype classes,
    every class present once ``n >= k``."""
    k, m = prototypes.shape
    labels = rng.permutation(np.arange(n) % k)
    X = prototypes[labels] + noise * rng.standard_normal((n, m))
    X = X * rng.uniform(0.5, 2.0, size=(n, 1)) + rng.uniform(-3, 3, size=(n, 1))
    return X, labels


def write_ucr(
    root: Path,
    name: str,
    train: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
) -> None:
    """Write one dataset in the UCR 2018 tsv layout, at full precision."""
    folder = root / name
    folder.mkdir(parents=True, exist_ok=True)
    for split, (X, y) in (("TRAIN", train), ("TEST", test)):
        with (folder / f"{name}_{split}.tsv").open("w") as handle:
            for label, row in zip(y, X):
                values = "\t".join(repr(float(v)) for v in row)
                handle.write(f"{int(label)}\t{values}\n")


# -- child processes ----------------------------------------------------
class Reaper:
    """Children a run started; ``reap`` kills and waits for any still
    alive, so an aborted run leaves no process behind."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def track(self, proc: subprocess.Popen) -> subprocess.Popen:
        self.procs.append(proc)
        return proc

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_cli(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Run ``python -m repro ARGS`` to completion; returns (wall s, stdout)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(
            f"repro {' '.join(args[:2])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}"
        )
    return wall, proc.stdout


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def read_line_bounded(proc: subprocess.Popen, stream, what: str) -> str:
    """Blocking ``readline`` with a watchdog that kills a hung child."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = stream.readline()
    finally:
        watchdog.cancel()
    if not line:
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise BenchError(f"{what} exited {proc.returncode} before it was ready")
    return line


@dataclass
class Server:
    """A ``repro serve`` child bound to an ephemeral port."""

    proc: subprocess.Popen
    host: str
    port: int
    spawn_s: float
    forced_kill: bool = False

    @classmethod
    def spawn(
        cls,
        reaper: Reaper,
        artifact: Path,
        env: dict[str, str],
        access_log: Path | None = None,
    ) -> "Server":
        """Start a server and block on its banner for the bound port."""
        args = [
            sys.executable, "-m", "repro", "serve",
            "--artifact", str(artifact), "--port", "0",
        ]
        if access_log is not None:
            args += ["--access-log", str(access_log)]
        started = time.perf_counter()
        proc = reaper.track(subprocess.Popen(
            args,
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        ))
        try:
            while True:
                line = read_line_bounded(proc, proc.stderr, "repro serve")
                if line.startswith("serving ") and " on http://" in line:
                    break
            spawn_s = time.perf_counter() - started
            url = line.split(" on http://", 1)[1].split()[0]
            host, port = url.rsplit(":", 1)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # The server writes one more stderr line at shutdown; drain in the
        # background so a chatty child can never block on a full pipe.
        threading.Thread(target=proc.stderr.read, daemon=True).start()
        return cls(proc, host, int(port), spawn_s)

    def stop(self) -> None:
        """SIGTERM, wait a bounded time, then SIGKILL (recorded)."""
        if self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=SHUTDOWN_GRACE_S)
        except subprocess.TimeoutExpired:
            self.forced_kill = True
            self.proc.kill()
            self.proc.wait()


class HttpClient:
    """One kept-alive HTTP/1.1 connection, reopened if the server closed it.

    A reopen counts in ``reconnects``, not as a failure: a server that
    closes idle connections is allowed to.
    """

    _RETRYABLE = (
        http.client.RemoteDisconnected,
        ConnectionResetError,
        BrokenPipeError,
        ConnectionAbortedError,
    )

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reconnects = 0
        self._conn = self._open()

    def _open(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=CHILD_TIMEOUT_S
        )
        conn.connect()
        return conn

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, float]:
        """Send one request; returns ``(status, body, seconds)``.

        The time runs from sending the request to reading the whole
        response, including a reopen if the server had closed the
        connection. A transport error that a reopen does not cure is
        returned as status 0 (a failed operation) on a fresh connection.
        """
        hdrs = {"Content-Type": "application/json", **(headers or {})}
        started = time.perf_counter()
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=hdrs)
                resp = self._conn.getresponse()
                data = resp.read()
                status = resp.status
                break
            except self._RETRYABLE:
                self._conn.close()
                self._conn = self._open()
                if attempt:
                    status, data = 0, b""
                else:
                    self.reconnects += 1
            except (http.client.HTTPException, OSError):
                self._conn.close()
                self._conn = self._open()
                status, data = 0, b""
                break
        return status, data, time.perf_counter() - started

    def get_json(self, path: str) -> dict:
        status, data, _ = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} -> {status}")
        return json.loads(data)

    def close(self) -> None:
        self._conn.close()


# -- statistics -----------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


def machine_probe_ms() -> float:
    """Fixed pure-Python + numpy work, median of five timings.

    Printed next to every run's metrics (never gated on) so spread
    between runs can be traced to the host's speed at the time.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4096)
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0.0
        for i in range(400_000):
            total += i * 0.5
        for _ in range(200):
            np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(a[::-1]))
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)
