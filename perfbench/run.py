"""End-to-end RFDump benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mix --seed 3 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` with no tracing: it renders the workload's trace
(several times, for the set-up figure), then starts whole passes over
it while another one fits in ``--seconds``, and scores the first pass
against the emulator's ground truth.  Timings in the verdict are scaled
to a reference host speed (see :mod:`perfbench.hostspeed`); the raw
wall-clock figures are printed beside them and kept in the result
file.  With ``--trace 1`` it makes a traced pass
between two untraced ones and reports the per-layer metrics; all three
must emit the same event stream.

Human-readable lines come first; the last line of standard output is
the JSON verdict.  A result file with the host description and every
figure goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-ups made per run; their median is ``setup_s``
SETUPS = 7
#: a run whose first pass finds fewer of the transmissions is broken
RECALL_FLOOR = 0.5


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, nowhere else."""
    for path in (ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"run.py: imported repro from {where}, not from "
                         f"{ROOT / 'src'}")


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with
    at least ten samples beyond it; with fewer than 11 samples there is
    none, and the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def host(seed: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def setup(workload, seed: int, speed):
    """Render the trace and build the monitor ``SETUPS`` times; returns
    the median set-up seconds (raw, and host-scaled by the probes taken
    before and after each set-up), the trace and its window frames."""
    from perfbench import workloads
    from perfbench.hostspeed import scale_of

    probes = [speed.probe()]
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        trace = workloads.render(workload, seed)
        frames = None
        if workload.loop == "open":
            from repro.service import RFDumpDaemon

            frames = workloads.frames_for(trace)
            RFDumpDaemon(workload.config(), kind="streaming")
        else:
            workload.monitor().close()
        times.append(time.perf_counter() - t0)
        probes.append(speed.probe())
    scaled = [t * scale_of(probes[i:i + 2]) for i, t in enumerate(times)]
    return ({"raw": statistics.median(times),
             "scaled": statistics.median(scaled)}, trace, frames)


def warm_up(workload, trace) -> None:
    """Two windows through a throwaway monitor: lazy imports and plan
    caches fill here, not in the first timed window."""
    from perfbench.workloads import OVERLAP
    from repro.core.streaming import StreamingMonitor

    with StreamingMonitor(config=workload.config().replace(shards=1),
                          overlap=OVERLAP) as monitor:
        for window in trace.windows[:2]:
            monitor.process(window)


def canonical(events) -> list:
    return [e.to_json() for e in events]


def score_pass(trace, first) -> "Score":
    from perfbench.score import reported_from_events, score

    return score(trace.truth, reported_from_events(first.events))


def pass_problems(passes) -> list:
    """Every pass must finish, deliver what the daemon published, and
    repeat the first pass's event stream exactly."""
    problems = []
    want = canonical(passes[0].events)
    for i, p in enumerate(passes):
        if p.error:
            problems.append(f"pass {i} failed: {p.error}")
        if not p.delivered_ok:
            problems.append(f"pass {i}: subscriber stream differs from the "
                            f"daemon's backlog")
        if canonical(p.events) != want:
            problems.append(f"pass {i} emitted a different event stream "
                            f"than pass 0")
    return problems


def median_of_medians(per_pass) -> float:
    """Median over the items of a pass (its windows or its events, the
    same in every pass) of each item's median over the passes.

    Pooled over passes, a median of window latencies sits where a few
    windows of one cost meet many of another (on ``mix`` half the
    windows hold a Wi-Fi packet and half do not), and the host's noise
    on those few moves it.  Each window's median over passes is steady,
    and so is their median.
    """
    n = min((len(items) for items in per_pass), default=0)
    if not n:
        return 0.0
    return statistics.median(statistics.median(items[i] for items in per_pass)
                             for i in range(n))


def timings(passes, scales) -> dict:
    """The timing metrics of ``passes``; ``scales`` holds, per pass,
    the factor for each of its windows (see :meth:`Pass.scales`)."""
    from perfbench.workloads import SAMPLE_RATE

    per_window = [[x * f for x, f in zip(p.window_latency, fs)]
                  for p, fs in zip(passes, scales)]
    per_event = [p.event_latencies(fs) for p, fs in zip(passes, scales)]
    window_lat = [x for items in per_window for x in items]
    event_lat = [x for items in per_event for x in items] or [0.0]
    # per pass, so a slow stretch of the host moves one pass, not the run
    speed = [p.samples / sum(items) / SAMPLE_RATE
             for p, items in zip(passes, per_window) if items]
    wl_tail, wl_pct, wl_beyond = tail(window_lat)
    el_tail, el_pct, el_beyond = tail(event_lat)
    return {
        "metrics": {
            "realtime_factor": statistics.median(speed),
            "window_latency_p50_ms": 1e3 * median_of_medians(per_window),
            "window_latency_tail_ms": 1e3 * wl_tail,
            "event_latency_p50_ms": 1e3 * median_of_medians(per_event),
            "event_latency_tail_ms": 1e3 * el_tail,
        },
        "samples": {
            "window_latency": {"n": len(window_lat), "passes": len(passes),
                               "tail_percentile": wl_pct,
                               "beyond": wl_beyond},
            "event_latency": {"n": len(event_lat), "passes": len(passes),
                              "tail_percentile": el_pct,
                              "beyond": el_beyond},
        },
    }


def end_to_end(workload, trace, frames, seconds: float, speed) -> dict:
    from perfbench.workloads import run_pass

    start = time.perf_counter()
    passes = []
    while not passes or (time.perf_counter() - start + statistics.median(
            p.wall for p in passes)) <= seconds:
        p = run_pass(workload, trace, frames, speed=speed)
        if not any(x is not None for x in p.probes):
            p.probes.append(speed.seconds())
        passes.append(p)
    scales = [p.scales() for p in passes]
    first = passes[0]
    lags = [x for p in passes for x in p.generator_lag]
    result = {
        "passes": len(passes),
        "attempted": sum(p.windows_sent for p in passes),
        "failed": sum(p.windows_failed for p in passes),
        "problems": pass_problems(passes),
        "pass_detail": [{"samples": p.samples, "wall_s": p.wall,
                         "busy_s": sum(p.window_latency),
                         "host_scale": statistics.median(fs),
                         "probes": sum(x is not None for x in p.probes)}
                        for p, fs in zip(passes, scales)],
        "raw": timings(passes, [[1.0] * len(p.due) for p in passes])[
            "metrics"],
    }
    result.update(timings(passes, scales))
    if first.error is None:
        result["score"] = score_pass(trace, first)
    if lags:
        result["generator"] = {
            "lag_p50_ms": 1e3 * statistics.median(lags),
            "lag_max_ms": 1e3 * max(lags), "windows": len(lags)}
    return result


def traced(workload, trace, frames, seed: int) -> dict:
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_pass
    from repro.service import protocol

    before = run_pass(workload, trace, frames)
    tracer = Tracer()
    tracer.run = f"{workload.name}-seed{seed}"

    def send(rw, header, payload):
        counter = _CountingWriter(rw)
        with tracer.span("service.ingest.send") as span:
            protocol.send_frame(counter, header, payload)
        span.attrs["bytes"] = counter.written

    with tracer:
        layers.install(tracer)
        traced_pass = run_pass(workload, trace, frames, send=send)
    after = run_pass(workload, trace, frames)
    passes = [before, traced_pass, after]
    problems = pass_problems(passes)
    result = {"passes": len(passes),
              "attempted": sum(p.windows_sent for p in passes),
              "failed": sum(p.windows_failed for p in passes)}
    if any(p.error for p in passes):
        return dict(result, problems=problems, metrics={})
    try:
        layers.check(tracer, traced_pass.windows_sent, workload.shards)
    except AssertionError as exc:
        problems.append(str(exc))
    metrics = layers.layer_metrics(tracer, trace.samples)
    open_loop = workload.loop == "open"
    metrics["service.events_delivered"] = (
        len(traced_pass.events) if open_loop else 0)
    metrics["service.events_dropped"] = traced_pass.events_dropped
    metrics["obs.series"] = before.obs_series
    lags = before.generator_lag + after.generator_lag or [0.0]
    metrics["bench.generator.lag_p50_ms"] = 1e3 * statistics.median(lags)
    metrics["bench.generator.lag_max_ms"] = 1e3 * max(lags)
    # open loop: the schedule sets the wall time, so compare the daemon's
    # busy time; either way against the mean of the untraced passes
    cost = (lambda p: p.service_busy) if open_loop else (lambda p: p.wall)
    metrics["bench.tracing_overhead"] = (
        2 * cost(traced_pass) / (cost(before) + cost(after)))
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{workload.name}-seed{seed}.json"
    tracer.write_chrome(trace_path)
    result.update(problems=problems, metrics=metrics,
                  score=score_pass(trace, traced_pass),
                  chrome_trace=str(trace_path.relative_to(ROOT)))
    return result


class _CountingWriter:
    """File proxy counting the bytes a frame puts on the wire."""

    def __init__(self, raw):
        self._raw = raw
        self.written = 0

    def write(self, data: bytes) -> int:
        self.written += len(data)
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    about = host(args.seed)
    print(f"host: {json.dumps(about, sort_keys=True)}")
    print(f"workload: {workload.name} ({workload.loop} loop, "
          f"{workload.duration} s of trace per pass) -- {workload.why}")

    speed = HostSpeed()
    setup_s, trace, frames = setup(workload, args.seed, speed)
    warm_up(workload, trace)
    if args.trace:
        result = traced(workload, trace, frames, args.seed)
        wanted = spec["per_layer"]
    else:
        result = end_to_end(workload, trace, frames, args.seconds, speed)
        wanted = spec["end_to_end"]
        result["metrics"]["setup_s"] = setup_s["scaled"]
        result["raw"]["setup_s"] = setup_s["raw"]
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    problems = result["problems"]
    score = result.get("score")
    if score is not None:
        if score.recall < RECALL_FLOOR:
            problems.append(f"recall {score.recall:.3f} below the "
                            f"{RECALL_FLOOR} floor")
        attempted = max(result["attempted"], 1)
        result["metrics"].update(
            recall=score.recall, precision=score.precision,
            window_ok_share=1 - result["failed"] / attempted)
        print(f"score: truth={score.truth} reported={score.reported} "
              f"matched={score.matched} unscored={score.unscored} "
              f"recall_by_protocol="
              f"{json.dumps(score.recall_by_protocol(), sort_keys=True)}")
    counts = {
        "duplicate_packets": (score.duplicates if score else None, "count"),
        "phantom_packets": (score.phantoms if score else None, "count"),
        "window_error_share": (result["failed"] / max(result["attempted"], 1),
                               "ratio"),
    }
    for key, info in result.get("samples", {}).items():
        print(f"{key}: {info['n']} samples, tail = p{info['tail_percentile']:.1f} "
              f"({info['beyond']} beyond)")
    if "generator" in result:
        print(f"generator: {json.dumps(result['generator'], sort_keys=True)}")

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in result["metrics"]:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": result["metrics"][name],
                         "unit": entry["unit"]}
    raw = result.get("raw")
    if raw is not None:
        print(f"{'':40s} {'host-scaled':>14} {'raw':>14}")
    for name, item in metrics.items():
        line = f"{name:40s} {item['value']:>14.6g}"
        if raw is not None:
            line += f" {raw.get(name, item['value']):>14.6g}"
        print(f"{line} {item['unit']}")
    if not args.trace:
        for name, (value, unit) in counts.items():
            print(f"{name:40s} {value if value is not None else 'n/a':>14} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    verdict = {"correct": not problems and bool(metrics),
               "attempted": max(int(result["attempted"]), 1),
               "failed": int(result["failed"]), "metrics": metrics}
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    record = dict(verdict, host=about, workload=workload.name,
                  trace=args.trace, seconds=args.seconds, problems=problems,
                  passes=result["passes"], samples=result.get("samples"),
                  pass_detail=result.get("pass_detail"),
                  raw_metrics=result.get("raw"),
                  generator=result.get("generator"),
                  counts={k: v for k, (v, _) in counts.items()},
                  chrome_trace=result.get("chrome_trace"))
    path = out / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(verdict, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
