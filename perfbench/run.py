#!/usr/bin/env python3
"""wallcross benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload git-atlas --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the program is imported from
src/ and driven from outside, as cold CLI processes and as calls into the
public functions.  Each workload is a closed loop with one client: one job
is in flight at a time, so at most this process and one worker run at once.

--trace 0 measures the workload and prints the end-to-end metrics, with
times scaled to a nominal host speed (see hostref.py).
--trace 1 runs one traced pass of every workload (spans around each call
into a public function, see tracing.py) and prints the per-layer metrics
and the estimated tracing overhead of the chosen workload.  The spans are
written to .perfbench_out/ when the run ends.

Every output is checked against oracles.py.  A wrong output counts as a
failed operation; a deterministic count that drifts stops the run with
exit code 3 and no result.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostref
import oracles as ref
import workloads as wl
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

LAUNCHER = "import sys; from wallcross.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = (
    "import sys; from wallcross import cli; "
    "cli.wallsets.load_registry(sys.argv[1] if len(sys.argv) > 1 else None)"
)
STARTUP = "import wallcross.cli"
SETUP_PROBES = 6
MIN_PASSES = 3  # so that one slow pass cannot move a run's median
STARTUP_SAMPLES = 9
COLD_PROBES = 3  # cold and traced requests per verb behind cli.cold_s / cli.main_s
JOB_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

GIT_CFGS = {"n3d3": "git-3-3", "n3d4": "git-3-4", "n4d2": "git-4-2"}
LADDER_K = {2: "fold-dp3-2", 3: "fold-dp3-3", 4: "fold-dp3-4", 5: "cells-dp3-5"}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every metric of the traced run."""
    out = {}
    for cfg in GIT_CFGS:
        for phase in ("probe", "scan", "sweep", "report"):
            out[f"gitwalls.{phase}_s.{cfg}"] = ("s", "lower")
        for count in ("probes", "candidates", "walls"):
            out[f"gitwalls.{count}.{cfg}"] = ("count", "lower")
        out[f"gitwalls.wall_yield.{cfg}"] = ("ratio", "higher")
    for k in LADDER_K:
        out[f"arrangement.cells_s.{k}"] = ("s", "lower")
        out[f"arrangement.graph_s.{k}"] = ("s", "lower")
        if k < 5:
            out[f"arrangement.orbits_s.{k}"] = ("s", "lower")
            out[f"arrangement.burnside_s.{k}"] = ("s", "lower")
    for k in LADDER_K:
        out[f"arrangement.cells.{k}"] = ("count", "lower")
        if k < 5:
            out[f"arrangement.orbits.{k}"] = ("count", "lower")
    out["arrangement.render_json_s"] = ("s", "lower")
    out["arrangement.json_bytes"] = ("bytes", "lower")
    out["arrangement.render_svg_s"] = ("s", "lower")
    out["arrangement.alloc_peak_mb.5"] = ("MB", "lower")
    for name in ("closure", "product_model", "orbit_space", "cardinality", "sym_quotient",
                 "canonicalize", "classify"):
        out[f"stackalg.{name}_s"] = ("s", "lower")
    out["stackalg.group_elements"] = ("count", "lower")
    out["invariants.product_numerics_s"] = ("s", "lower")
    out["invariants.consistency_check_s"] = ("s", "lower")
    out["exactq.moebius_s"] = ("s", "lower")
    out["exactq.codec_s"] = ("s", "lower")
    out["wallsets.load_registry_s"] = ("s", "lower")
    out["wallsets.locate_s"] = ("s", "lower")
    out["cli.startup_s"] = ("s", "lower")
    for verb in wl.VERBS:
        out[f"cli.main_s.{verb}"] = ("s", "lower")
    for verb in wl.VERBS:
        out[f"cli.cold_s.{verb}"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


class Runner:
    """Starts one worker process at a time and checks what it returns."""

    def __init__(self, tmp: Path) -> None:
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
                        PYTHONHASHSEED="0")
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.windows: list[tuple[float, float]] = []

    def spawn(self, argv: list[str], stdin: str | None = None):
        """(seconds, completed process) of one worker; its (start, end) is
        appended to self.windows."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                              text=True, cwd=ROOT, env=self.env, timeout=JOB_TIMEOUT)
        t1 = time.perf_counter()
        self.windows.append((t0, t1))
        return t1 - t0, proc

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def run(self, job: wl.Job, trace: bool = False, tracemalloc: bool = False):
        """(seconds, stdout, extra, spans) of one job, after checking it."""
        self.attempted += 1
        req = job.request
        if req["kind"] == "cli" and "git_after" not in req and not (trace or tracemalloc):
            secs, proc = self.spawn(["-c", LAUNCHER, *req["argv"]])
            rc, out, err, extra, spans = proc.returncode, proc.stdout, proc.stderr, {}, []
        else:
            req = dict(req, trace=trace, tracemalloc=tracemalloc)
            secs, proc = self.spawn([str(WORKER)], json.dumps(req))
            if proc.returncode != 0:
                self.fail(job.name, [f"worker exit {proc.returncode}: {proc.stderr[-300:]}"])
                return secs, "", {}, []
            reply = json.loads(proc.stdout)
            rc, out, err = reply["rc"], reply["out"], reply["err"]
            extra, spans = reply["extra"], reply["spans"]
        problems = job.check(rc, out, err, extra)
        if problems:
            self.fail(job.name, problems)
        return secs, out, extra, spans

    def algebra(self, spec: dict, seconds: float, trace: bool) -> dict:
        req = dict(spec, kind="algebra", seconds=seconds, trace=trace)
        _, proc = self.spawn([str(WORKER)], json.dumps(req))
        if proc.returncode != 0:
            raise RuntimeError(f"algebra worker exit {proc.returncode}: {proc.stderr[-2000:]}")
        reply = json.loads(proc.stdout)
        extra = reply["extra"]
        self.attempted += extra["attempted"]
        self.failed += len(extra["problems"])
        self.problems += [f"algebra-mix: {p}" for p in extra["problems"]]
        extra["spans"] = reply["spans"]
        return extra

    def median_spawn(self, argv: list[str], samples: int) -> float:
        """Median wall time of fresh interpreters, after one warm-up that
        leaves the bytecode cache written."""
        times = []
        for i in range(samples + 1):
            secs, proc = self.spawn(argv)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
            if i:
                times.append(secs)
        return statistics.median(times)


def build(workload: str, seed: int, tmp: Path):
    """(jobs, overlay path or None) of a cold-process workload."""
    if workload == "git-atlas":
        return wl.git_atlas(seed), None
    if workload == "product-ladder":
        return wl.product_ladder(seed, tmp)
    return wl.cli_mix(seed, ROOT, tmp), None


def cold_pass(runner: Runner, jobs: list[wl.Job], trace: bool = False) -> list:
    """Run the job list once, in order; (job, seconds, stdout, extra, spans)
    each."""
    return [(job, *runner.run(job, trace)) for job in jobs]


def measure(workload: str, seed: int, seconds: float, runner: Runner, report: dict) -> dict:
    """End-to-end metrics of one untraced run.

    Set-up is timed SETUP_PROBES times before the workload and as often
    again spread through it, so that its median samples the whole run.
    Times are scaled to a nominal host speed by a hostref.HostProbe that
    runs for the whole measurement; each pass, and the set-up median, is
    scaled by the samples taken while its processes ran.  Cold
    workloads take deciles over all job times of the run; algebra-mix takes
    the median over passes of each pass's deciles."""
    setup: list[tuple[float, tuple[float, float]]] = []  # (seconds, window)
    overlay = None

    def probe(count: int) -> None:
        for _ in range(count):
            secs, proc = runner.spawn(["-c", SETUP, *([overlay] if overlay else [])])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
            setup.append((secs, runner.windows[-1]))

    def first_probe() -> None:
        probe(1)  # writes the bytecode cache; not counted
        setup.clear()
        probe(SETUP_PROBES)

    with hostref.HostProbe() as host:
        if workload == "algebra-mix":
            spec = wl.algebra_mix(seed)
            first_probe()
            extra = runner.algebra(spec, seconds, trace=False)
            probe(SETUP_PROBES)
            passes = extra["passes"]
            samples = extra["attempted"]
            p50, p90 = (statistics.median(d[q] for d in extra["deciles_ns"]) / 1e6
                        for q in (4, 8))
            report["samples_beyond_p90"] = extra["beyond_p90"]
        else:
            jobs, overlay = build(workload, seed, runner.tmp)
            first_probe()
            stride = max(1, len(jobs) // SETUP_PROBES)
            passes, latencies, per_job = [], [], {}
            start = time.perf_counter()
            while True:
                pieces = []
                for i, job in enumerate(jobs):
                    secs = runner.run(job)[0]
                    pieces.append((secs, runner.windows[-1]))
                    latencies.append(secs)
                    per_job.setdefault(job.name, []).append(secs)
                    if not passes and i % stride == stride - 1:
                        probe(1)
                passes.append(pieces)
                done = time.perf_counter() - start + statistics.median(
                    sum(secs for secs, _ in p) for p in passes) > seconds
                if done and len(passes) >= MIN_PASSES:
                    break
            if workload != "cli-mix":
                report["job_s"] = {name: statistics.median(v) for name, v in sorted(per_job.items())}
            samples = len(latencies)
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            p50, p90 = deciles[4] * 1e3, deciles[8] * 1e3
            report["samples_beyond_p90"] = sum(x * 1e3 > p90 for x in latencies)
    raw = [sum(secs for secs, _ in p) for p in passes]
    pass_ref = [host.mean([window for _, window in p]) for p in passes]
    raw_setup = statistics.median(secs for secs, _ in setup)
    setup_ref = host.mean([window for _, window in setup])
    report.update(pass_s=raw, pass_host_ref_s=pass_ref, host_ref_samples=len(host.times),
                  samples=samples, setup_samples=len(setup), setup_host_ref_s=setup_ref,
                  raw_setup_s=raw_setup, raw_run_s=statistics.median(raw),
                  op_p50_ms=p50, op_p90_ms=p90, ops_per_s=samples / sum(raw))
    return {
        "setup_s": hostref.scale(raw_setup, setup_ref),
        "run_s": statistics.median(hostref.scale(p, r) for p, r in zip(raw, pass_ref)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def span_s(spans, name: str, inclusive: bool = False) -> float:
    """Seconds spent in spans called `name`: self time, or whole span time."""
    total = 0
    for span, self_ns in self_times(spans):
        if span[0] == name:
            total += span[2] - span[1] if inclusive else self_ns
    return total / 1e9


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one span adds to a call: the median over repeats of the time
    of a wrapped no-op call minus that of the bare call."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)


def traced(workload: str, seed: int, seconds: float, runner: Runner, trace_log: list) -> dict:
    """Per-layer metrics from one traced pass of every workload."""
    m: dict[str, float] = {}
    results: dict[str, dict] = {}
    traced_cost: dict[tuple[str, str], list[float]] = {}
    span_s_cost = span_cost()
    for name in wl.WORKLOADS:
        if name == "algebra-mix":
            spec = wl.algebra_mix(seed)
            alg = runner.algebra(spec, seconds, trace=True)
            trace_log.append({"workload": name, "job": "pass", "spans": alg["spans"]})
            continue
        jobs, _ = build(name, seed, runner.tmp)
        if name == "product-ladder":
            jobs.append(wl.cells_dp3_5())
        done = cold_pass(runner, jobs, trace=True)
        results[name] = {job.name: (secs, out, extra, spans) for job, secs, out, extra, spans in done}
        if name == "cli-mix":
            cli_done = done
        for job, secs, _, extra, spans in done:
            trace_log.append({"workload": name, "job": job.name, "seconds": secs,
                              "install_s": extra.get("install_s"), "spans": spans})
            cost = extra.get("install_s", 0.0) + len(spans) * span_s_cost
            traced_cost.setdefault((name, job.name), []).append(cost)

    # Tracing overhead per pass of the named workload: every job pays for
    # installing the wrappers and for each span it records, estimated from
    # the traced jobs of the same name.
    if workload == "algebra-mix":
        m["trace.overhead_s"] = len(alg["spans"]) * spec["repeats"] * span_s_cost
    else:
        jobs, _ = build(workload, seed, runner.tmp)
        m["trace.overhead_s"] = sum(statistics.mean(traced_cost[(workload, job.name)])
                                    for job in jobs)

    git = results["git-atlas"]
    for cfg, job in GIT_CFGS.items():
        _, out, extra, spans = git[job]
        for phase in ("probe", "scan", "sweep", "report"):
            m[f"gitwalls.{phase}_s.{cfg}"] = span_s(spans, f"gitwalls.{phase}")
        doc = json.loads(out)
        m[f"gitwalls.probes.{cfg}"] = extra["probes"]
        m[f"gitwalls.candidates.{cfg}"] = len(doc["candidates"])
        m[f"gitwalls.walls.{cfg}"] = len(doc["walls"])
        m[f"gitwalls.wall_yield.{cfg}"] = len(doc["walls"]) / len(doc["candidates"])

    ladder = results["product-ladder"]
    for k, job in LADDER_K.items():
        _, out, _, spans = ladder[job]
        # the job's check has asserted these against the closed forms
        cells, orbits = wl.codim_counts(out, fold=k < 5)
        m[f"arrangement.cells_s.{k}"] = span_s(spans, "arrangement.cells")
        m[f"arrangement.graph_s.{k}"] = span_s(spans, "arrangement.graph")
        m[f"arrangement.cells.{k}"] = sum(cells)
        if k < 5:
            m[f"arrangement.orbits_s.{k}"] = span_s(spans, "arrangement.orbits")
            m[f"arrangement.burnside_s.{k}"] = span_s(spans, "arrangement.burnside")
            m[f"arrangement.orbits.{k}"] = sum(enum for enum, _ in orbits)
    _, out, _, spans = ladder["json-dp3-4"]
    m["arrangement.render_json_s"] = span_s(spans, "arrangement.render", inclusive=True)
    m["arrangement.json_bytes"] = len(out.encode())
    m["arrangement.render_svg_s"] = span_s(ladder["svg-s20"][3], "arrangement.render",
                                           inclusive=True)
    _, _, extra, _ = runner.run(wl.cells_dp3_5(), tracemalloc=True)
    m["arrangement.alloc_peak_mb.5"] = extra.get("alloc_peak", 0) / 2**20

    spans = alg["spans"]
    for name in ("closure", "product_model", "orbit_space", "cardinality", "sym_quotient",
                 "canonicalize", "classify"):
        m[f"stackalg.{name}_s"] = span_s(spans, f"stackalg.{name}")
    closed = sum(s[4]["n"] for s in spans if s[0] == "stackalg.closure" and s[3] < 0)
    ref.expect_count("stackalg.group_elements", closed,
                     sum(op["want"] for op in spec["ops"] if op["op"] == "closure"))
    m["stackalg.group_elements"] = closed
    m["invariants.product_numerics_s"] = span_s(spans, "invariants.product_numerics")
    m["invariants.consistency_check_s"] = span_s(spans, "invariants.consistency_check")
    m["exactq.moebius_s"] = span_s(spans, "exactq.moebius")
    m["exactq.codec_s"] = span_s(spans, "exactq.codec")

    loads = [(s[2] - s[1]) / 1e9 for *_, sp in cli_done for s in sp
             if s[0] == "wallsets.load_registry"]
    m["wallsets.load_registry_s"] = statistics.median(loads)
    m["wallsets.locate_s"] = sum(span_s(sp, "wallsets.locate") for *_, sp in cli_done)

    m["cli.startup_s"] = runner.median_spawn(["-c", STARTUP], STARTUP_SAMPLES)
    for verb in wl.VERBS:
        probes = [r for r in cli_done if r[0].name == verb][:COLD_PROBES]
        m[f"cli.main_s.{verb}"] = statistics.median(
            span_s(r[4], "cli.main", inclusive=True) for r in probes)
        m[f"cli.cold_s.{verb}"] = statistics.median(runner.run(r[0])[0] for r in probes)
    return m


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_before": os.getloadavg(),
    }


def check_names(metrics: dict, trace: bool) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running worker is
    # killed and the temporary directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wallcross" / "cli.py").is_file():
        print(f"error: no wallcross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    trace_log: list = []
    try:
        runner = Runner(tmp)
        try:
            if args.trace:
                values = traced(args.workload, args.seed, args.seconds, runner, trace_log)
                units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
            else:
                values = measure(args.workload, args.seed, args.seconds, runner, report)
                units = END_TO_END
        except ref.CountDrift as exc:
            print(f"count drift, stopping: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    report["env"] = env
    report["fail_rate"] = runner.failed / runner.attempted
    report["problems"] = runner.problems[:20]
    check_names(values, bool(args.trace))
    if trace_log:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"report": report, "jobs": trace_log}))
        report["trace_file"] = str(path.relative_to(ROOT))

    for name, value in values.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"{'setup_s, unscaled':36s} {report['raw_setup_s']:14.6f} s")
        print(f"{'run_s, unscaled':36s} {report['raw_run_s']:14.6f} s")
    for name, value in report.get("job_s", {}).items():
        print(f"{'job_s.' + name:36s} {value:14.6f} s")
    if "ops_per_s" in report:
        print(f"{'op_p50_ms':36s} {report['op_p50_ms']:14.6f} ms ({report['samples']} samples)")
        if report["samples_beyond_p90"] >= 10:  # too few samples beyond it otherwise
            print(f"{'op_p90_ms':36s} {report['op_p90_ms']:14.6f} ms "
                  f"({report['samples_beyond_p90']} samples beyond)")
        print(f"{'ops_per_s':36s} {report['ops_per_s']:14.6f} 1/s")
    print(f"{'fail_rate':36s} {report['fail_rate']:14.6f} ratio")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
