"""Traced-run layer probes: timed calls into each layer's public
functions on the same seeded inputs the end-to-end run used.

Every probe runs after the end-to-end phases, with the servers already
stopped. A probe whose function a later change removed is recorded as
missing (with the reason) instead of failing the run. The metric names,
units and what each should move live in ``layers.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time

import numpy as np

import harness
from harness import child_env, median

#: Queries each in-process probe times (the end-to-end run sent more).
PROBE_QUERIES = {"predict": 200, "predict_dtw": 8}

#: Errors that mean "the function behind this layer is gone".
GONE = (ImportError, AttributeError, KeyError)


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def guarded(ctx, names: list[str], probe) -> None:
    """Run ``probe()``; mark ``names`` missing if its layer is gone."""
    try:
        probe()
    except GONE as exc:
        for name in names:
            ctx.missing[name] = f"{type(exc).__name__}: {exc}"


def cli_import_s(ctx) -> None:
    """Fresh-interpreter ``import repro.cli``, one start."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=harness.CHILD_TIMEOUT_S,
    )
    ctx.layers["cli.import_s"] = float(out.stdout.strip().splitlines()[-1])


# -- serving layers shared by the HTTP workloads ------------------------------
def http_layers(ctx, phases, artifact_dir, fit_kwargs) -> None:
    """Access-log join, /metrics counters, artifact fit and load."""
    traced = phases["traced"]
    durations = {}
    with (ctx.work / "access.jsonl").open() as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("trace_id"):
                durations[entry["trace_id"]] = float(entry["duration_ms"])
    joined = [
        (rec.seconds * 1e3, durations[rec.trace_id])
        for rec in traced.timed
        if rec.trace_id in durations
    ]
    if len(joined) != len(traced.timed):
        ctx.note(
            f"access log joined {len(joined)} of {len(traced.timed)} "
            "traced requests"
        )
    if joined:
        rtt = np.array([j[0] for j in joined])
        handled = np.array([j[1] for j in joined])
        ctx.layers["serving.server.handle_ms"] = median(handled)
        ctx.layers["serving.server.wire_ms"] = median(rtt - handled)
    ctx.layers["serving.server.shed"] = float(sum(
        v for p in phases.values()
        for k, v in p.metrics.get("counters", {}).items()
        if k.startswith("serve.shed")
    ))
    ctx.layers["serving.client.reconnects"] = float(
        sum(p.reconnects for p in phases.values())
    )
    cache = traced.metrics.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    if ctx.workload != "stream" and lookups:
        ctx.layers["serving.engine.cache_hit_ratio"] = cache["hits"] / lookups

    from repro.datasets import load_ucr
    from repro.serving import ModelArtifact

    dataset = load_ucr("Refs", root=ctx.work / "ucr")
    with tempfile.TemporaryDirectory(dir=ctx.work) as tmp:
        took, _ = _timed(
            lambda: ModelArtifact.fit_dataset(dataset, **fit_kwargs).save(tmp)
        )
    ctx.layers["serving.artifact.fit_s"] = took
    ctx.layers["serving.artifact.load_s"] = median(
        [_timed(ModelArtifact.load, artifact_dir)[0] for _ in range(3)]
    )
    cli_import_s(ctx)


def _engine_search_ms(ctx, art, queries, **search) -> None:
    from repro.serving import QueryEngine

    engine = QueryEngine(art, cache_size=0)
    ctx.layers["serving.engine.search_ms"] = 1e3 * median(
        [_timed(engine.search, q[None], **search)[0] for q in queries]
    )


def predict_layers(ctx, art, queries, phases) -> None:
    from repro.normalization import get_normalizer

    http_layers(
        ctx, phases, ctx.work / "artifact",
        {"measure": art.measure, "normalization": art.normalization,
         "params": art.params, "index": ["dft_lb"]},
    )
    sample = queries[: PROBE_QUERIES["predict"]]
    _engine_search_ms(ctx, art, sample, k=3, mode="exact")
    norm = get_normalizer(art.normalization)
    ctx.layers["normalization.apply_ms"] = 1e3 * median(
        [_timed(norm.apply_dataset, q[None])[0] for q in sample]
    )

    def index_search():
        index = next(ix for ix in art.indexes if ix.exact)
        times, pruned, candidates = [], 0, 0
        for q in sample:
            took, (_, _, stats) = _timed(
                index.search, norm.apply_dataset(q[None]), 3
            )
            times.append(took)
            pruned += stats.pruned
            candidates += stats.candidates
        ctx.layers["index.search_ms"] = 1e3 * median(times)
        ctx.layers["index.prune_ratio"] = pruned / candidates

    guarded(ctx, ["index.search_ms", "index.prune_ratio"], index_search)


def predict_dtw_layers(ctx, art, queries, phases) -> None:
    from repro.distances import get_measure
    from repro.distances.elastic import lb_keogh
    from repro.normalization import get_normalizer

    http_layers(
        ctx, phases, ctx.work / "artifact",
        {"measure": art.measure, "normalization": art.normalization,
         "params": art.params},
    )
    sample = queries[: PROBE_QUERIES["predict_dtw"]]
    _engine_search_ms(ctx, art, sample)
    normalized = get_normalizer(art.normalization).apply_dataset(sample)
    delta = art.params["delta"]
    refs = art.train_X

    def lb_pass():
        envelopes = art.precomputed["envelopes"]
        times = []
        for q in normalized:
            started = time.perf_counter()
            for i in range(refs.shape[0]):
                lb_keogh(q, refs[i], delta,
                         y_envelope=(envelopes[i, 0], envelopes[i, 1]))
            times.append(time.perf_counter() - started)
        ctx.layers["search.lb_keogh_ms"] = 1e3 * median(times)

    def cascade_stats():
        from repro.search import cascade_nn_search

        envelopes = art.precomputed["envelopes"]
        total = started = full = 0
        for q in normalized:
            _, _, stats = cascade_nn_search(
                q, refs, delta=delta, envelopes=envelopes
            )
            total += stats.total
            started += stats.abandoned + stats.full_computations
            full += stats.full_computations
        ctx.layers["search.dtw_started_ratio"] = started / total
        ctx.layers["search.dtw_completed_ratio"] = full / max(started, 1)
        ctx.note(
            f"cascade on {len(normalized)} queries: {total} candidates, "
            f"{started} DTWs started, {full} completed"
        )

    guarded(ctx, ["search.lb_keogh_ms"], lb_pass)
    guarded(ctx, ["search.dtw_started_ratio", "search.dtw_completed_ratio"],
            cascade_stats)
    dtw = get_measure("dtw")
    ctx.layers["distances.dtw_pair_ms"] = 1e3 * median(
        [_timed(dtw, normalized[0], refs[j], delta=delta)[0]
         for j in range(min(10, refs.shape[0]))]
    )


# -- stream -----------------------------------------------------------------
def stream_layers(ctx, chunks, window, phases, artifact) -> None:
    from repro.streaming import build_monitor
    from workloads import DISCORD_THRESHOLD

    http_layers(
        ctx, {k: v[0] for k, v in phases.items()}, artifact,
        {"measure": "euclidean", "normalization": "zscore"},
    )
    # The monitor and a bare profile take each chunk in turn, so the two
    # timings of a chunk see the same moment of the host.
    monitor = build_monitor(window, discord_threshold=DISCORD_THRESHOLD)
    profile = None

    def make_profile():
        nonlocal profile
        from repro.streaming import StreamingMatrixProfile

        profile = StreamingMatrixProfile(window)

    guarded(
        ctx,
        ["streaming.profile.append_ms", "streaming.detectors_ms",
         "streaming.profile.entries_changed_per_point"],
        make_profile,
    )
    monitor_s, profile_s, changed, points = [], [], 0, 0
    for c in chunks:
        monitor_s.append(_timed(monitor.append, c)[0])
        if profile is None:
            continue
        before = profile.profile
        profile_s.append(_timed(profile.append, c)[0])
        after = profile.profile
        changed += int(np.sum(after[: before.shape[0]] != before))
        changed += after.shape[0] - before.shape[0]
        points += c.shape[0]
    last = max(1, len(monitor_s) // 10)
    ctx.layers["streaming.monitor.append_ms"] = 1e3 * median(monitor_s)
    ctx.layers["streaming.monitor.append_last_decile_ms"] = 1e3 * median(
        monitor_s[-last:]
    )
    if profile is not None:
        ctx.layers["streaming.profile.append_ms"] = 1e3 * median(profile_s)
        ctx.layers["streaming.detectors_ms"] = 1e3 * median(
            np.array(monitor_s) - np.array(profile_s)
        )
        ctx.layers["streaming.profile.entries_changed_per_point"] = (
            changed / points
        )

    def mass_at_end():
        from repro.search import mass

        series = np.concatenate(chunks)
        ctx.layers["search.mass_ms"] = 1e3 * median(
            [_timed(mass, series[-window:], series)[0] for _ in range(5)]
        )

    guarded(ctx, ["search.mass_ms"], mass_at_end)


# -- sweep ------------------------------------------------------------------
def sweep_reference(ctx, ucr, names) -> tuple[dict[str, str], dict]:
    """Recompute the sweep from its layers: the expected ``evaluate``
    table (``label -> accuracy text``) and each layer's time.

    This is the check of every sweep's output on all runs, and the
    source of the sweep's layer metrics on traced runs.
    """
    from repro.classification import dissimilarity_matrix, one_nn_predict
    from repro.datasets import load_ucr
    from repro.distances import get_measure
    from repro.evaluation import unsupervised_params
    from repro.normalization import get_normalizer
    from workloads import SWEEP_MEASURES

    times: dict = {}
    times["load_s"], datasets = _timed(
        lambda: [load_ucr(name, root=ucr) for name in names]
    )
    norm = get_normalizer("zscore")
    times["normalize_s"], normalized = _timed(
        lambda: [
            (norm.apply_dataset(d.train_X), norm.apply_dataset(d.test_X))
            for d in datasets
        ]
    )
    expected, matrices = {}, []
    times["matrix_s"], times["cells"] = {}, {}
    for name in SWEEP_MEASURES:
        measure = get_measure(name)
        params = unsupervised_params(name)
        took, Es = _timed(
            lambda: [
                dissimilarity_matrix(name, test, train, **params)
                for train, test in normalized
            ]
        )
        times["matrix_s"][name] = took
        times["cells"][name] = sum(
            _dp_cells(name, train.shape[1], params) * E.size
            for (train, _), E in zip(normalized, Es)
        )
        matrices.append((measure.label, Es))
    started = time.perf_counter()
    predictions = [
        (label, [one_nn_predict(E, d.train_y) for E, d in zip(Es, datasets)])
        for label, Es in matrices
    ]
    times["one_nn_s"] = time.perf_counter() - started
    for label, preds in predictions:
        accuracy = np.array(
            [np.mean(p == d.test_y) for p, d in zip(preds, datasets)]
        ).mean()
        expected[label] = f"{accuracy:.4f}"
    dtw = get_measure("dtw")
    train, test = normalized[0]
    times["dtw_pair_s"] = median(
        [_timed(dtw, test[i % len(test)], train[i % len(train)], delta=10.0)[0]
         for i in range(10)]
    )
    return expected, times


def _dp_cells(name: str, m: int, params: dict) -> int:
    """DP cells one pair of length-``m`` series fills (computed, not
    counted): the Sakoe-Chiba band for DTW, the full grid for MSM."""
    if name == "msm":
        return m * m
    if name == "dtw":
        w = m if params["delta"] >= 100 else int(round(m * params["delta"] / 100))
        return sum(min(m, i + w) - max(1, i - w) + 1 for i in range(1, m + 1))
    return 0


def sweep_layers(ctx, runs: list[dict], sweep_s, import_s=None) -> None:
    """Layer metrics from ``sweep_reference`` timings (median per layer
    over ``runs``) and the sweep's median time.

    Without ``import_s`` (fresh-start import times) the caller's own
    ``cli.import_s`` stands; ``distances.dtw_pair_ms`` is then left to
    the caller too.
    """
    def med(key, name=None):
        return median([t[key] if name is None else t[key][name] for t in runs])

    if import_s is not None:
        ctx.layers["cli.import_s"] = median(import_s)
        ctx.layers["distances.dtw_pair_ms"] = 1e3 * med("dtw_pair_s")
    ctx.layers["datasets.load_s"] = med("load_s")
    ctx.layers["normalization.apply_s"] = med("normalize_s")
    matrix_s = {name: med("matrix_s", name) for name in runs[0]["matrix_s"]}
    for name, took in matrix_s.items():
        ctx.layers[f"classification.matrix_s.{name}"] = took
    for name in ("dtw", "msm"):
        ctx.layers[f"distances.cells_per_s.{name}"] = (
            runs[0]["cells"][name] / matrix_s[name]
        )
    ctx.layers["classification.one_nn_s"] = med("one_nn_s")
    # The sweep z-normalizes both splits once per measure (per cell).
    accounted = (
        ctx.layers["datasets.load_s"]
        + len(matrix_s) * ctx.layers["normalization.apply_s"]
        + sum(matrix_s.values())
        + ctx.layers["classification.one_nn_s"]
    )
    ctx.layers["evaluation.overhead_s"] = sweep_s - accounted
