"""One benchmark process: import mirrorsobol.cli, run cli.main once, write timings as JSON.

    python3 perfbench/child.py OUT.json MODE THREADS -- CLI_ARGS...

MODE is `setup` (import only), `run` (untraced), `trace` (spans on; window
pairs and the solo replay are measured after cli.main returns, outside the
timed spans) or `memtrace` (spans and tracemalloc on, for the peaks only).
`src` must be on PYTHONPATH.
The parent takes the launch time before spawning this process; both read
the same monotonic clock, so import_done - launch is the set-up time.
"""

import json
import sys
import time


def main() -> int:
    out_path, mode, threads = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[5:]
    from mirrorsobol import cli

    out = {"import_done": time.perf_counter()}
    if mode == "setup":
        rc = 0
    elif mode == "run":
        t0 = time.perf_counter()
        rc = cli.main(argv)
        out["run_s"] = time.perf_counter() - t0
    else:
        import spans

        tracer = spans.Tracer(memory=mode == "memtrace")
        tracer.install()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        out["run_s"] = time.perf_counter() - t0
        traced = list(tracer.spans)
        if mode == "memtrace":
            tracer.uninstall()
            out["layers"] = spans.peak_metrics(traced)
        else:
            solo_s = spans.solo_time(traced, tracer.originals)
            tracer.uninstall()
            pairs = spans.count_window_pairs(traced)
            out["layers"] = spans.layer_metrics(traced, threads, out["run_s"], pairs, solo_s)
        out["spans"] = [
            {key: s[key] for key in ("id", "name", "parent", "thread", "start", "end") if key in s}
            | ({"peak_bytes": s["peak_bytes"]} if "peak_bytes" in s else {})
            for s in sorted(traced, key=lambda s: s["start"])
        ]
    out["rc"] = rc
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
