"""Benchmark runner for the repro program (see README.md in this folder).

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report            # traced run of every workload
    python3 perfbench/selfcheck.py               # fast self-check

Run from the repository root. The last line of stdout is the JSON
result: with ``--trace 0`` every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric; the lines before it are the
human-readable record (machine probe, sample counts, layer report).
"""

import os
import sys

# Pin hashing and BLAS threading before numpy loads; hash seeds only
# take effect at interpreter start, hence the re-exec.
_PINNED = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **_PINNED})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
from workloads import RUNNERS, Context  # noqa: E402

WORKLOADS = ("predict", "predict_dtw", "stream", "sweep")


def load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json (names, units) and layers.json (what each moves)."""
    with (harness.ROOT / "BENCHMARK.json").open() as handle:
        bench = json.load(handle)
    with (harness.BENCH_DIR / "layers.json").open() as handle:
        layers = {entry["name"]: entry for entry in json.load(handle)["layers"]}
    return bench, layers


def environment_record() -> str:
    """git sha, Python, numpy, numba, backend tier, nproc."""
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "not a git checkout"
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        has_numba = "present"
    except ImportError:
        has_numba = "absent"
    harness.import_program()
    from repro.distances import get_measure
    from repro.distances.backends import resolve_backend

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tier = resolve_backend(get_measure("dtw"), "auto").name
    return (
        f"env: git {sha}; python {platform.python_version()}; numpy "
        f"{np.__version__}; numba {has_numba}; backend tier {tier}; "
        f"nproc {os.cpu_count()}"
    )


def layer_report(ctx: Context, bench: dict, layers: dict) -> list[str]:
    """One line per per-layer metric: value, unit, kind, what it moves."""
    rows = [
        f"layer report: {ctx.workload} (tracing overhead "
        f"{ctx.layers.get('tracing_overhead_pct', float('nan')):+.2f}%)",
        f"  {'metric':<44} {'value':>14} {'unit':<6} {'kind':<8} "
        f"{'moves':<34} {'on workloads':<33} status",
    ]
    for entry in bench["per_layer"]:
        name = entry["name"]
        meta = layers[name]
        if name in ctx.missing:
            status = f"MISSING ({ctx.missing[name]})"
        elif ctx.workload not in meta["workloads"]:
            status = "n/a (not on this workload's path; reported as 0)"
        elif name not in ctx.layers:
            status = "MISSING (no sample)"
        else:
            status = "on path"
        value = ctx.layers.get(name, 0.0)
        rows.append(
            f"  {name:<44} {value:>14.6g} {entry['unit']:<6} {meta['kind']:<8} "
            f"{','.join(meta['moves']):<34} {','.join(meta['workloads']):<33} "
            f"{status}"
        )
    if ctx.workload == "predict" and "serving.server.wire_ms" in ctx.layers:
        traced_p50 = ctx.layers["serving.server.wire_ms"] + ctx.layers[
            "serving.server.handle_ms"
        ]
        rows.append(
            "  wire share of the traced p50 round trip: "
            f"{100 * ctx.layers['serving.server.wire_ms'] / traced_p50:.1f}% "
            f"(wire {ctx.layers['serving.server.wire_ms']:.3f} ms of "
            f"{traced_p50:.3f} ms); untraced p50 "
            f"{ctx.out.metrics['p50_ms']:.3f} ms"
        )
    return rows


def finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise harness.BenchError(f"non-finite metric value {value}")
    return value


def run_one(args) -> int:
    bench, layers = load_spec()
    harness.compile_sources()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        tiny=args.tiny,
        work=harness.work_dir(args.workload, args.seed),
    )
    probe = harness.machine_probe_ms()
    try:
        RUNNERS[args.workload](ctx)
    finally:
        ctx.reaper.reap()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    out = ctx.out
    print(environment_record())
    print(f"machine probe {probe:.3f} ms (not gated)")
    print(f"workload {ctx.workload} seed {ctx.seed} seconds {ctx.seconds:g} "
          f"trace {int(ctx.trace)}")
    for line in ctx.lines + out.notes:
        print(line)
    error_rate = out.failed / max(out.attempted, 1)
    print(f"error_rate {error_rate:.6f} ({out.failed} failed of "
          f"{out.attempted} attempted)")
    if ctx.trace:
        for line in layer_report(ctx, bench, layers):
            print(line)
        metrics = {
            e["name"]: {"value": finite(ctx.layers.get(e["name"], 0.0)),
                        "unit": e["unit"]}
            for e in bench["per_layer"]
        }
    else:
        for e in bench["end_to_end"]:
            print(f"  {e['name']:<18} {out.metrics[e['name']]:>14.6f} {e['unit']}")
        metrics = {
            e["name"]: {"value": finite(out.metrics[e["name"]]), "unit": e["unit"]}
            for e in bench["end_to_end"]
        }
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_report(args) -> int:
    """Traced run of every workload, one child each, reports streamed."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=harness.ROOT, text=True,
                              capture_output=True, timeout=600)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: traced run exited {proc.returncode}")
            status = 1
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-check only; not comparable)")
    parser.add_argument("--report", action="store_true",
                        help="traced run of every workload with its layer report")
    args = parser.parse_args(argv)
    try:
        harness.require_program()
        if args.report:
            return run_report(args)
        if args.workload is None:
            parser.error("--workload is required (or --report)")
        return run_one(args)
    except (harness.BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as exc:
        traceback.print_exc()
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
