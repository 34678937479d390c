"""Sweep process for the ``sweep`` workload: imports ``repro.cli``, then
runs ``repro.cli.main(argv)`` once per request line on stdin.

Protocol (one JSON object per line each way):

- on start it replies ``{"import_s", "load_s"}``: the time to import
  ``repro.cli`` and to load every dataset under ``$UCR_ARCHIVE_PATH``;
- ``{"argv": [...]}`` runs the CLI and replies ``{"wall_s", "rc",
  "stdout"}``, timing only the ``main`` call;
- ``{"rss": true}`` replies ``{"peak_rss_mib"}`` (this process's VmHWM).

It exits when stdin closes. Run only by ``run.py``.
"""

import contextlib
import io
import json
import sys
import time


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    started = time.perf_counter()
    import repro.cli
    from repro.datasets import list_ucr_datasets, load_ucr

    import_s = time.perf_counter() - started
    started = time.perf_counter()
    for name in list_ucr_datasets():
        load_ucr(name)
    _reply({"import_s": import_s, "load_s": time.perf_counter() - started})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("rss"):
            _reply({"peak_rss_mib": _peak_rss_mib()})
            continue
        captured = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = repro.cli.main(request["argv"])
        wall = time.perf_counter() - started
        _reply({"wall_s": wall, "rc": rc, "stdout": captured.getvalue()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
