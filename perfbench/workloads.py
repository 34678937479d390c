"""The four workloads, end to end, plus the checks of every answer.

Each workload drives the program only through ``repro fit``,
``repro serve`` over HTTP (``/predict``, ``/stream``, ``/metrics``) and
``repro.cli`` ``evaluate``. Checks and, on a traced run, the layer
probes import ``repro`` in this process after the timed region; see
``layers.py``.

Why these four (README.md has the full table):

- ``predict``: the engine answers in well under a millisecond, so the
  HTTP transport is nearly all of each request;
- ``predict_dtw``: the only workload on the exact elastic search path,
  engine-bound;
- ``stream``: the write path, whose cost per append grows with history;
- ``sweep``: the offline research path, dominated by the pure-Python
  elastic DP, with no HTTP at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
from harness import (
    BenchError,
    HttpClient,
    Outcome,
    Server,
    child_env,
    clustered,
    median,
    percentile,
    run_cli,
    write_ucr,
)

TRACE_HEADER = "X-Repro-Trace-Id"

#: Input sizes. ``tiny`` is the self-check's fast variant.
SIZES = {
    "full": {
        "predict": {"n_ref": 1024, "m": 128, "classes": 16, "noise": 0.4,
                    "warmup": 20, "spawns": 3},
        "predict_dtw": {"n_ref": 512, "m": 128, "classes": 16, "noise": 0.7,
                        "warmup": 2, "spawns": 3, "offline_sample": 2},
        "stream": {"window": 64, "chunk": 64, "appends": 100,
                   "warmup_appends": 4, "spawns": 3},
        "sweep": {"datasets": [(48, 5, 5), (64, 5, 4), (64, 4, 5),
                               (80, 4, 4)],
                  "classes": 2, "starts": 5},
    },
    "tiny": {
        "predict": {"n_ref": 64, "m": 32, "classes": 4, "noise": 0.4,
                    "warmup": 2, "spawns": 1},
        "predict_dtw": {"n_ref": 24, "m": 32, "classes": 4, "noise": 0.4,
                        "warmup": 1, "spawns": 1, "offline_sample": 1},
        "stream": {"window": 16, "chunk": 32, "appends": 12,
                   "warmup_appends": 2, "spawns": 1},
        "sweep": {"datasets": [(16, 4, 4), (24, 4, 4)], "classes": 2,
                  "starts": 1},
    },
}

#: Tail percentile per workload: the highest with at least ten samples
#: beyond it at ``run_seconds`` = 10 on the seed code (README.md has the
#: sample counts). A sweep run holds ~30 sweeps, too few for that rule;
#: its tail is p90 (about three sweeps beyond it).
TAIL_PCT = {"predict": 95.0, "predict_dtw": 85.0, "stream": 90.0,
            "sweep": 90.0}

#: Measures of the sweep, one per misconception M1-M4 plus the baseline.
SWEEP_MEASURES = ("euclidean", "lorentzian", "nccc", "dtw", "msm")

#: Stream detector: a discord fires above this fraction of sqrt(2 * w).
DISCORD_THRESHOLD = 0.7


@dataclass
class Context:
    """One run's settings, scratch directory and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    work: Path
    out: Outcome = field(default_factory=Outcome)
    #: Human-readable lines printed before the JSON result.
    lines: list[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs), ``name -> value``.
    layers: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics the probes could not measure, ``name -> reason``.
    missing: dict[str, str] = field(default_factory=dict)
    reaper: harness.Reaper = field(default_factory=harness.Reaper)

    @property
    def size(self) -> dict:
        return SIZES["tiny" if self.tiny else "full"][self.workload]

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def note(self, text: str) -> None:
        self.lines.append(text)


def summarize(
    ctx: Context, samples_s: list[float], busy_s: float, work_units: float
) -> dict[str, float]:
    """p50, tail and throughput of one phase's timed samples."""
    ms = [s * 1e3 for s in samples_s]
    tail = TAIL_PCT[ctx.workload]
    beyond = sum(1 for v in ms if v > percentile(ms, tail))
    ctx.note(
        f"samples {len(ms)}; tail = p{tail:g} with {beyond} samples "
        f"beyond it; busy {busy_s:.2f} s"
    )
    return {
        "p50_ms": median(ms),
        "tail_ms": percentile(ms, tail),
        "throughput_per_s": work_units / busy_s,
    }


def record_overhead(ctx: Context, untraced: dict, traced: dict) -> None:
    """Tracing overhead: the traced half's p50 against the untraced one."""
    ctx.layers["tracing_overhead_pct"] = (
        traced["p50_ms"] / untraced["p50_ms"] - 1.0
    ) * 100.0
    ctx.note(
        "untraced p50 {:.3f} ms tail {:.3f} ms | traced p50 {:.3f} ms "
        "tail {:.3f} ms".format(
            untraced["p50_ms"], untraced["tail_ms"],
            traced["p50_ms"], traced["tail_ms"],
        )
    )


# -- HTTP plumbing shared by the three server workloads -------------------
@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    status: int
    body: bytes
    seconds: float
    trace_id: str | None
    timed: bool


@dataclass
class Phase:
    """What one server phase produced."""

    records: list[Record]
    busy_s: float
    metrics: dict
    rss_mib: float
    reconnects: int
    forced_kill: bool

    @property
    def timed(self) -> list[Record]:
        return [r for r in self.records if r.timed]


def _finish_phase(
    server: Server, client: HttpClient, records: list[Record], busy: float
) -> Phase:
    """Read /metrics and VmHWM, close the client, stop the server."""
    metrics = client.get_json("/metrics")
    rss = harness.peak_rss_mib(server.proc.pid)
    # Close our kept-alive connection before SIGTERM: an idle client
    # connection can hold a graceful shutdown open indefinitely.
    client.close()
    server.stop()
    return Phase(records, busy, metrics, rss, client.reconnects,
                 server.forced_kill)


def spawn_servers(
    ctx: Context, artifact: Path, env: dict, data_s: float, fit_s: float
) -> tuple[float, Server]:
    """Start the run's fresh servers, keep the last; returns ``setup_s``
    (data + fit + median server start) and the kept server."""
    spawns = []
    for _ in range(ctx.size["spawns"] - 1):
        server = Server.spawn(ctx.reaper, artifact, env)
        spawns.append(server.spawn_s)
        server.stop()
    server = Server.spawn(ctx.reaper, artifact, env)
    spawns.append(server.spawn_s)
    ctx.note(
        f"setup: data {data_s:.3f} s, fit {fit_s:.3f} s, server starts "
        + ", ".join(f"{s:.3f}" for s in spawns) + " s"
    )
    return data_s + fit_s + median(spawns), server


def fit_artifact(
    measure: str, artifact: Path, env: dict, extra: list[str]
) -> float:
    """``repro fit`` on the generated dataset; returns its wall time."""
    wall, _ = run_cli(
        ["fit", measure, "--normalization", "zscore", "--datasets", "1",
         "--out", str(artifact), *extra],
        env,
    )
    return wall


def check_phase(ctx: Context, phase: Phase) -> None:
    """Sheds are failures; a forced kill is recorded."""
    counters = phase.metrics.get("counters", {})
    shed = int(sum(v for k, v in counters.items() if k.startswith("serve.shed")))
    ctx.out.fail(shed, "server shed requests (503)")
    if phase.forced_kill:
        ctx.note("server ignored SIGTERM for the grace period; sent SIGKILL")


# -- predict / predict_dtw --------------------------------------------------
class QueryFeed:
    """Unique seeded queries and their request bodies, made on demand."""

    BATCH = 64

    def __init__(self, rng, prototypes, noise, encode):
        self.rng, self.prototypes, self.noise = rng, prototypes, noise
        self.encode = encode
        self.queries: list[np.ndarray] = []
        self.bodies: list[bytes] = []

    def ensure(self, n: int) -> None:
        while len(self.queries) < n:
            X, _ = clustered(self.rng, self.prototypes, self.BATCH, self.noise)
            for q in X:
                self.queries.append(q)
                self.bodies.append(self.encode(q))


def closed_loop(
    client: HttpClient,
    path: str,
    feed: QueryFeed,
    start: int,
    seconds: float,
    warmup: int,
    trace_prefix: str | None,
) -> tuple[list[Record], float, int]:
    """Send queries ``start, start+1, ...`` one at a time until ``seconds``
    of timed requests have passed; the first ``warmup`` are not timed.
    Query generation happens between requests and is not timed."""
    records: list[Record] = []
    busy = 0.0
    i = start
    while busy < seconds:
        feed.ensure(i + 1)
        trace_id = f"{trace_prefix}{i:08x}" if trace_prefix else None
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        status, body, took = client.request("POST", path, feed.bodies[i], headers)
        timed = i - start >= warmup
        if timed:
            busy += took
        records.append(Record(i, status, body, took, trace_id, timed))
        i += 1
    return records, busy, i


def _predict_like(ctx: Context, measure: str, fit_extra: list[str], encode):
    size = ctx.size
    rng = ctx.rng(1)
    started = time.perf_counter()
    prototypes = harness.prototypes(rng, size["classes"], size["m"])
    train = clustered(rng, prototypes, size["n_ref"], size["noise"])
    test = clustered(rng, prototypes, 8, size["noise"])
    ucr = ctx.work / "ucr"
    write_ucr(ucr, "Refs", train, test)
    data_s = time.perf_counter() - started
    env = child_env(ucr)
    artifact = ctx.work / "artifact"
    fit_s = fit_artifact(measure, artifact, env, fit_extra)
    feed = QueryFeed(ctx.rng(2), prototypes, size["noise"], encode)

    phases: dict[str, Phase] = {}
    if not ctx.trace:
        setup_s, server = spawn_servers(ctx, artifact, env, data_s, fit_s)
        client = HttpClient(server.host, server.port)
        records, busy, _ = closed_loop(
            client, "/predict", feed, 0, ctx.seconds, size["warmup"], None
        )
        phases["e2e"] = _finish_phase(server, client, records, busy)
    else:
        # Traced run: an untraced half, then a half against a server
        # writing its access log with the client tagging every request.
        half = ctx.seconds / 2.0
        server = Server.spawn(ctx.reaper, artifact, env)
        client = HttpClient(server.host, server.port)
        records, busy, nxt = closed_loop(
            client, "/predict", feed, 0, half, size["warmup"], None
        )
        phases["untraced"] = _finish_phase(server, client, records, busy)
        access_log = ctx.work / "access.jsonl"
        server = Server.spawn(ctx.reaper, artifact, env, access_log)
        client = HttpClient(server.host, server.port)
        records, busy, _ = closed_loop(
            client, "/predict", feed, nxt, half, size["warmup"], "b-"
        )
        phases["traced"] = _finish_phase(server, client, records, busy)
        setup_s = data_s + fit_s + server.spawn_s
    return feed, artifact, phases, setup_s


def _check_predict_answers(ctx, records, expect) -> None:
    """Compare every response with the in-process answers ``expect(i)``
    (the fields that carry the answer; work counters are not judged)."""
    bad_status = bad_answer = 0
    for rec in records:
        if rec.status != 200:
            bad_status += 1
            continue
        payload = json.loads(rec.body)
        if any(payload.get(k) != v for k, v in expect(rec.index).items()):
            bad_answer += 1
    ctx.out.fail(bad_status, "non-200 /predict responses")
    ctx.out.fail(bad_answer, "/predict answers differ from in-process engine")


def _phase_metrics(ctx, phase: Phase) -> dict[str, float]:
    timed = phase.timed
    metrics = summarize(ctx, [r.seconds for r in timed], phase.busy_s, len(timed))
    metrics["peak_rss_mib"] = phase.rss_mib
    return metrics


def run_predict(ctx: Context) -> None:
    import layers

    def encode(q):
        return json.dumps(
            {"queries": [q.tolist()], "k": 3, "mode": "exact", "schema": 2}
        ).encode()

    feed, artifact, phases, setup_s = _predict_like(
        ctx, "euclidean", ["--index", "dft_lb"], encode
    )
    harness.import_program()
    from repro.serving import ModelArtifact, QueryEngine

    art = ModelArtifact.load(artifact)
    engine = QueryEngine(art, cache_size=0)
    sent = max(r.index for p in phases.values() for r in p.records) + 1
    brute = engine.search(np.array(feed.queries[:sent]), k=3, mode="brute")

    def expect(i):
        return {
            "schema": 2,
            "labels": [int(brute.labels[i])],
            "neighbor_indices": [brute.neighbor_indices[i].tolist()],
            "neighbor_distances": [brute.neighbor_distances[i].tolist()],
            "k": 3,
            "mode": "exact",
            "cache_hits": 0,
        }

    for phase in phases.values():
        _check_predict_answers(ctx, phase.records, expect)
        ctx.out.attempted += len(phase.records)
    _finish_http(ctx, phases, setup_s)
    if ctx.trace:
        layers.predict_layers(ctx, art, feed.queries[:sent], phases)


def run_predict_dtw(ctx: Context) -> None:
    import layers

    def encode(q):
        return json.dumps({"queries": [q.tolist()]}).encode()

    feed, artifact, phases, setup_s = _predict_like(ctx, "dtw", [], encode)
    harness.import_program()
    from repro.classification import dissimilarity_matrix, one_nn_predict
    from repro.normalization import get_normalizer
    from repro.serving import ModelArtifact, QueryEngine

    art = ModelArtifact.load(artifact)
    engine = QueryEngine(art, cache_size=0)
    sent = max(r.index for p in phases.values() for r in p.records) + 1
    queries = np.array(feed.queries[:sent])
    result = engine.search(queries)

    def expect(i):
        return {
            "labels": [int(result.labels[i])],
            "indices": [int(result.indices[i])],
            "distances": [float(result.distances[i])],
            "cache_hits": 0,
            "batch": 1,
        }

    for phase in phases.values():
        _check_predict_answers(ctx, phase.records, expect)
        ctx.out.attempted += len(phase.records)
    # A seeded sample must also match the offline full scan.
    sample = ctx.rng(3).choice(sent, size=min(ctx.size["offline_sample"], sent),
                               replace=False)
    normalized = get_normalizer(art.normalization).apply_dataset(queries[sample])
    E = dissimilarity_matrix("dtw", normalized, art.train_X, **art.params)
    offline = one_nn_predict(E, art.train_y)
    mismatched = int(np.sum(
        (offline != result.labels[sample])
        | (np.argmin(E, axis=1) != result.indices[sample])
        | (E.min(axis=1) != result.distances[sample])
    ))
    ctx.out.fail(mismatched, "engine answers differ from offline full-scan 1-NN")
    ctx.note(f"offline full-scan check on {len(sample)} sampled queries")
    _finish_http(ctx, phases, setup_s)
    if ctx.trace:
        layers.predict_dtw_layers(ctx, art, queries, phases)
        offline_layers(ctx)


def _finish_http(ctx: Context, phases: dict[str, Phase], setup_s: float) -> None:
    for phase in phases.values():
        check_phase(ctx, phase)
    main = phases.get("e2e") or phases["untraced"]
    metrics = _phase_metrics(ctx, main)
    metrics["setup_s"] = setup_s
    ctx.out.metrics.update(metrics)
    if "traced" in phases:
        record_overhead(ctx, metrics, _phase_metrics(ctx, phases["traced"]))


# -- stream ---------------------------------------------------------------
def stream_series(ctx: Context) -> tuple[np.ndarray, int, int]:
    """Seeded two-tone series with an injected burst; returns
    ``(series, burst_start, burst_length)``."""
    size = ctx.size
    rng = ctx.rng(4)
    n = size["appends"] * size["chunk"]
    t = np.arange(n, dtype=np.float64)
    p1, p2 = rng.uniform(40, 60), rng.uniform(9, 15)
    series = (
        np.sin(2 * np.pi * t / p1)
        + 0.5 * np.sin(2 * np.pi * t / p2 + rng.uniform(0, 2 * np.pi))
        + 0.1 * rng.standard_normal(n)
    )
    length = 2 * size["window"]
    at = int(rng.integers(n // 2, n - 2 * length))
    series[at : at + length] += 6.0 * series.std() * rng.standard_normal(length)
    return series, at, length


def _stream_round(
    client: HttpClient, stream_id: str, chunks, config: dict, timed: bool,
    trace_prefix: str | None, first_index: int,
) -> tuple[list[Record], float]:
    records = []
    busy = 0.0
    for a, chunk in enumerate(chunks):
        payload = {"values": chunk.tolist()}
        if a == 0:
            payload.update(config)
        i = first_index + a
        trace_id = f"{trace_prefix}{i:08x}" if trace_prefix else None
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        status, body, took = client.request(
            "POST", f"/stream/{stream_id}", json.dumps(payload).encode(), headers
        )
        if timed:
            busy += took
        records.append(Record(a, status, body, took, trace_id, timed))
    status, _, _ = client.request("DELETE", f"/stream/{stream_id}")
    if status != 200:
        records.append(Record(-1, status, b"", 0.0, None, False))
    return records, busy


def _stream_phase(ctx, server, chunks, config, seconds, trace_prefix):
    size = ctx.size
    client = HttpClient(server.host, server.port)
    records, _ = _stream_round(
        client, "warmup", chunks[: size["warmup_appends"]], config, False, None, 0
    )
    rounds: list[list[Record]] = []
    busy = 0.0
    while busy < seconds:
        recs, took = _stream_round(
            client, f"r{len(rounds)}", chunks, config, True, trace_prefix,
            len(rounds) * len(chunks),
        )
        rounds.append(recs)
        busy += took
    all_records = records + [r for recs in rounds for r in recs]
    return _finish_phase(server, client, all_records, busy), rounds


def run_stream(ctx: Context) -> None:
    import layers

    size = ctx.size
    started = time.perf_counter()
    series, burst_at, burst_len = stream_series(ctx)
    # `repro serve` needs an artifact; a small one stands in, since the
    # stream endpoints never query it.
    rng = ctx.rng(5)
    prototypes = harness.prototypes(rng, 4, 32)
    ucr = ctx.work / "ucr"
    write_ucr(ucr, "Refs", clustered(rng, prototypes, 32, 0.4),
              clustered(rng, prototypes, 8, 0.4))
    data_s = time.perf_counter() - started
    env = child_env(ucr)
    artifact = ctx.work / "artifact"
    fit_s = fit_artifact("euclidean", artifact, env, [])
    chunk = size["chunk"]
    chunks = [series[s : s + chunk] for s in range(0, series.shape[0], chunk)]
    # Only values, window and a detector threshold: no capacity.
    config = {"window": size["window"], "discord_threshold": DISCORD_THRESHOLD}

    phases: dict[str, tuple] = {}
    if not ctx.trace:
        setup_s, server = spawn_servers(ctx, artifact, env, data_s, fit_s)
        phases["e2e"] = _stream_phase(ctx, server, chunks, config, ctx.seconds, None)
    else:
        half = ctx.seconds / 2.0
        server = Server.spawn(ctx.reaper, artifact, env)
        phases["untraced"] = _stream_phase(ctx, server, chunks, config, half, None)
        server = Server.spawn(ctx.reaper, artifact, env, ctx.work / "access.jsonl")
        phases["traced"] = _stream_phase(ctx, server, chunks, config, half, "c-")
        setup_s = data_s + fit_s + server.spawn_s

    harness.import_program()
    from repro.streaming import build_monitor

    # Expected responses: the same chunks through an in-process monitor.
    monitor = build_monitor(size["window"], discord_threshold=DISCORD_THRESHOLD)
    expected_alerts = [
        json.loads(json.dumps([a.to_dict() for a in monitor.append(c)]))
        for c in chunks
    ]
    fired = [a for alerts in expected_alerts for a in alerts]
    overlap = [
        a for a in fired
        if a["kind"] == "discord"
        and burst_at - size["window"] < a["at"] < burst_at + burst_len
    ]
    if not overlap:
        ctx.out.fail(1, "no discord alert overlaps the injected burst")
    ctx.note(
        f"burst at {burst_at}+{burst_len}; {len(fired)} alerts per round, "
        f"{len(overlap)} discords on the burst"
    )
    for phase, rounds in phases.values():
        ctx.out.attempted += len(phase.records)
        bad_status = sum(1 for r in phase.records if r.status != 200)
        ctx.out.fail(bad_status, "non-200 /stream responses")
        wrong = 0
        for recs in rounds:
            total = 0
            for rec in recs:
                if rec.status != 200 or rec.index < 0:
                    continue
                body = json.loads(rec.body)
                total += chunks[rec.index].shape[0]
                if (
                    body["accepted"] != chunks[rec.index].shape[0]
                    or body["dropped"] != 0
                    or body["n"] != total
                    or body["alerts"] != expected_alerts[rec.index]
                ):
                    wrong += 1
        ctx.out.fail(wrong, "stream acks or alerts differ from in-process replay")
        check_phase(ctx, phase)

    main = phases.get("e2e") or phases["untraced"]
    ctx.out.metrics.update(_stream_metrics(ctx, main[0], series.shape[0]))
    ctx.out.metrics["setup_s"] = setup_s
    if ctx.trace:
        record_overhead(
            ctx, ctx.out.metrics,
            _stream_metrics(ctx, phases["traced"][0], series.shape[0]),
        )
        layers.stream_layers(ctx, chunks, size["window"], phases, artifact)


def _stream_metrics(ctx, phase: Phase, points_per_round: int) -> dict[str, float]:
    timed = phase.timed
    per_round = [
        median([r.seconds * 1e3 for r in timed[k : k + ctx.size["appends"]]])
        for k in range(0, len(timed), ctx.size["appends"])
    ]
    ctx.note("round p50s " + ", ".join(f"{v:.1f}" for v in per_round) + " ms")
    rounds = len(timed) // max(1, ctx.size["appends"])
    metrics = summarize(
        ctx, [r.seconds for r in timed], phase.busy_s, rounds * points_per_round
    )
    metrics["peak_rss_mib"] = phase.rss_mib
    return metrics


# -- sweep ------------------------------------------------------------------
class SweepWorker:
    """A fresh interpreter that imports ``repro.cli`` and runs sweeps on
    request (``sweep_worker.py``), so each sample's time and the peak RSS
    belong to the sweeping process alone."""

    def __init__(self, reaper: harness.Reaper, env: dict, log: Path):
        self._log = log.open("a")
        self.proc = reaper.track(subprocess.Popen(
            [sys.executable, str(harness.BENCH_DIR / "sweep_worker.py")],
            env=env,
            cwd=harness.ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        ))
        self.ready = self._reply("sweep worker")

    def _reply(self, what: str) -> dict:
        try:
            line = harness.read_line_bounded(self.proc, self.proc.stdout, what)
        except BenchError as exc:
            self._log.flush()
            tail = Path(self._log.name).read_text()[-600:]
            raise BenchError(f"{exc}: {tail}") from None
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply("sweep worker")

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=harness.SHUTDOWN_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def sweep_datasets(ctx: Context) -> list[tuple[str, tuple, tuple]]:
    size = SIZES["tiny" if ctx.tiny else "full"]["sweep"]
    rng = ctx.rng(6)
    out = []
    for d, (m, n_train, n_test) in enumerate(size["datasets"]):
        prototypes = harness.prototypes(rng, size["classes"], m)
        out.append((
            f"Sweep{d}",
            clustered(rng, prototypes, n_train, 0.8),
            clustered(rng, prototypes, n_test, 0.8),
        ))
    return out


def run_sweep(ctx: Context) -> None:
    import layers

    size = ctx.size
    datasets = sweep_datasets(ctx)
    argv = ["evaluate", *SWEEP_MEASURES, "--normalization", "zscore",
            "--datasets", str(len(datasets)), "--executor", "serial"]
    starts, import_s = [], []
    worker = None
    for k in range(size["starts"]):
        if worker is not None:
            worker.close()
        started = time.perf_counter()
        ucr = ctx.work / f"ucr{k}"
        for name, train, test in datasets:
            write_ucr(ucr, name, train, test)
        worker = SweepWorker(ctx.reaper, child_env(ucr), ctx.work / "worker.log")
        starts.append(time.perf_counter() - started)
        import_s.append(worker.ready["import_s"])
    setup_s = median(starts)
    ctx.note("setup: fresh starts " + ", ".join(f"{s:.3f}" for s in starts) + " s")

    warmups = []

    def sweeps(seconds: float, extra: list[str]) -> tuple[list[dict], float]:
        warmups.append(worker.call({"argv": argv + extra}))  # not timed
        out, busy = [], 0.0
        while busy < seconds:
            reply = worker.call({"argv": argv + extra})
            out.append(reply)
            busy += reply["wall_s"]
        return out, busy

    phases = {}
    try:
        if not ctx.trace:
            phases["e2e"] = sweeps(ctx.seconds, [])
        else:
            half = ctx.seconds / 2.0
            phases["untraced"] = sweeps(half, [])
            trace_file = ctx.work / "sweep-trace.jsonl"
            phases["traced"] = sweeps(half, ["--trace", str(trace_file)])
        rss = worker.call({"rss": True})["peak_rss_mib"]
    finally:
        worker.close()

    harness.import_program()
    # A traced run times the layers three times and keeps the medians.
    reference = [
        layers.sweep_reference(ctx, ucr, [d[0] for d in datasets])
        for _ in range(3 if ctx.trace else 1)
    ]
    expected = reference[0][0]
    pairs = sum(
        len(test[1]) * len(train[1]) for _, train, test in datasets
    ) * len(SWEEP_MEASURES)
    for samples in [warmups] + [p[0] for p in phases.values()]:
        ctx.out.attempted += len(samples)
        ctx.out.fail(
            sum(1 for s in samples if s["rc"] != 0 or
                parse_evaluate(s["stdout"]) != expected),
            "evaluate output differs from the recomputed accuracies",
        )
    main = phases.get("e2e") or phases["untraced"]
    metrics = summarize(ctx, [s["wall_s"] for s in main[0]], main[1],
                        pairs * len(main[0]))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mib"] = rss
    ctx.out.metrics.update(metrics)
    ctx.note(f"{pairs} distance pairs per sweep; sweeps "
             + ", ".join(f"{s['wall_s']:.3f}" for s in main[0]) + " s")
    if ctx.trace:
        traced, busy = phases["traced"]
        record_overhead(ctx, metrics, summarize(
            ctx, [s["wall_s"] for s in traced], busy, pairs * len(traced)
        ))
        layers.sweep_layers(ctx, [times for _, times in reference],
                            metrics["p50_ms"] / 1e3, import_s)


def offline_layers(ctx: Context) -> None:
    """The sweep's layers, on ``predict_dtw``'s traced run.

    ``sweep`` is not among BENCHMARK.json's workloads (README.md says
    why), so the offline path's layers are measured here instead: the
    sweep's seeded datasets, its layers timed three times, and three
    complete ``evaluate`` calls in this process after one warm-up, each
    checked against the layers' accuracies.
    """
    import contextlib
    import io

    import layers
    import repro.cli

    datasets = sweep_datasets(ctx)
    ucr = ctx.work / "sweep-ucr"
    for name, train, test in datasets:
        write_ucr(ucr, name, train, test)
    reference = [
        layers.sweep_reference(ctx, ucr, [d[0] for d in datasets])
        for _ in range(3)
    ]
    argv = ["evaluate", *SWEEP_MEASURES, "--normalization", "zscore",
            "--datasets", str(len(datasets)), "--executor", "serial"]
    saved = os.environ.get("UCR_ARCHIVE_PATH")
    os.environ["UCR_ARCHIVE_PATH"] = str(ucr)
    walls, wrong = [], 0
    try:
        for k in range(4):
            captured = io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                rc = repro.cli.main(argv)
            if k:  # the first call is the warm-up
                walls.append(time.perf_counter() - started)
            wrong += rc != 0 or parse_evaluate(captured.getvalue()) != reference[0][0]
    finally:
        if saved is None:
            os.environ.pop("UCR_ARCHIVE_PATH")
        else:
            os.environ["UCR_ARCHIVE_PATH"] = saved
    ctx.out.attempted += 4
    ctx.out.fail(wrong, "evaluate output differs from the recomputed accuracies")
    ctx.note("offline layers: evaluate " + ", ".join(f"{w:.3f}" for w in walls)
             + " s")
    layers.sweep_layers(ctx, [times for _, times in reference], median(walls))


def parse_evaluate(stdout: str) -> dict[str, str]:
    """``label -> accuracy text`` from ``repro evaluate``'s table."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        rows[" ".join(parts[:-1])] = parts[-1] if parts else ""
    return rows


RUNNERS = {
    "predict": run_predict,
    "predict_dtw": run_predict_dtw,
    "stream": run_stream,
    "sweep": run_sweep,
}
