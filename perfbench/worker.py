"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/worker.py < request.json > reply.json

Request kinds (JSON object on stdin):
  cli      {"argv": [...]}: in-process cli.main(argv) with stdout captured;
           "git_after": [n, d] then also runs the candidate scan and counts
           the probes of that configuration.
  git      {"n": n, "d": d}: exploratory walls, then the JSON wall report.
  algebra  {"pool": [...], "ops": [...], "repeats": r, "seconds": s}: a warm
           process making seeded library calls, checked against the
           expected values sent with each op.  A timed pass runs the op
           list r times; the traced pass runs it once.
Optional keys: "trace" records spans around the public functions,
"tracemalloc" reports the traced-allocation peak of the job.

Writes one JSON reply on stdout.  The benchmark times the whole process for
cli and git jobs; algebra jobs time each call in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction

from tracing import Tracer


def run_cli(req: dict, reply: dict) -> None:
    from wallcross import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        reply["rc"] = cli.main(req["argv"])
    reply["out"], reply["err"] = out.getvalue(), err.getvalue()
    if req.get("git_after"):
        from wallcross import gitwalls

        n, d = req["git_after"]
        gitwalls.candidate_twalls(n, d)
        reply["extra"]["probes"] = len(gitwalls.candidate_weights(n, d))


def run_git(req: dict, reply: dict) -> None:
    from wallcross import gitwalls

    n, d = req["n"], req["d"]
    gitwalls.compute_walls(n, d, exploratory=True)
    doc = gitwalls.wall_report(n, d, exploratory=True)
    reply["rc"], reply["out"], reply["err"] = 0, json.dumps(doc), ""
    if req.get("trace"):
        gitwalls.candidate_twalls(n, d)
    reply["extra"]["probes"] = len(gitwalls.candidate_weights(n, d))


# -- algebra-mix --------------------------------------------------------------


def _numerics(spec):
    from wallcross.invariants import FanoNumerics

    dim, volume, hilbert = spec
    return FanoNumerics(dim, Fraction(volume), tuple(Fraction(c) for c in hilbert))


def _prepare(op: dict, models: list):
    """(call, to_value) for one op: call() is the timed library call,
    to_value(result) turns its result into the JSON value to compare."""
    from wallcross import exactq, invariants, stackalg

    kind = op["op"]
    if kind == "closure":
        m = models[op["m"]]
        return m.elements, len
    if kind == "orbit_space":
        m = models[op["m"]]
        return (
            lambda: stackalg.orbit_space(m),
            lambda orbits: sorted([o.size, o.stabilizer_order] for o in orbits),
        )
    if kind == "cardinality":
        m = models[op["m"]]
        return lambda: stackalg.groupoid_cardinality(m), str
    if kind == "product":
        a, b = models[op["a"]], models[op["b"]]
        return (
            lambda: stackalg.product_model(a, b),
            lambda p: [len(p.carrier), len(p.generators), len(p.orbit_partition())],
        )
    if kind == "sym":
        m = models[op["m"]]
        return lambda: stackalg.sym_quotient_model(m, op["k"]), int
    if kind == "canonicalize":
        iso = [tuple(p) for p in op["iso"]]
        points = frozenset(op["points"])
        return (
            lambda: stackalg.canonicalize(op["factors"], iso, points),
            lambda d: [str(d), d.to_json()],
        )
    if kind == "classify":
        iso = [tuple(p) for p in op["iso"]]
        return lambda: stackalg.classify_product_map(op["factors"], iso), lambda k: k.value
    if kind == "product_numerics":
        a, b = _numerics(op["a"]), _numerics(op["b"])
        return (
            lambda: invariants.product_numerics(a, b),
            lambda x: [x.dimension, str(x.volume), [str(c) for c in x.hilbert]],
        )
    if kind == "consistency":
        x = _numerics(op["x"])
        return lambda: invariants.consistency_check(x), len
    if kind == "moebius":
        f, g = exactq.MoebiusMap(*op["f"]), exactq.MoebiusMap(*op["g"])
        x = Fraction(op["x"])

        def call():
            h = f.compose(g)
            return h, h(x), f.inverse()(f(x))

        return call, lambda r: [list(r[0].coefficients()), str(r[1]), str(r[2])]
    if kind == "codec":
        s = op["s"]
        return lambda: exactq.format_rational(exactq.parse_rational(s)), str
    raise ValueError(f"unknown op {kind!r}")


def _algebra_pass(prepared, ops, clock=time.perf_counter_ns):
    """Run the op list once; return (latencies_ns, problems)."""
    lat, problems = [], []
    for (call, to_value), op in zip(prepared, ops):
        t0 = clock()
        result = call()
        lat.append(clock() - t0)
        value = json.loads(json.dumps(to_value(result)))
        if value != op["want"]:
            problems.append(f"{op['op']}: got {value!r}, expected {op['want']!r}")
    return lat, problems


def run_algebra(req: dict, reply: dict) -> None:
    from wallcross.stackalg import FiniteGroupoidModel

    models = [FiniteGroupoidModel(tuple(range(n)), gens) for n, gens in req["pool"]]
    ops = req["ops"]
    prepared = [_prepare(op, models) for op in ops]
    _algebra_pass(prepared, ops)  # warm-up: imports, lazy set-up
    # A pass runs the op list `repeats` times, long enough to span the
    # host's short slow spells.  Each repeat reports its seconds and its
    # (start, end) on the clock the benchmark's host probe uses.  Deciles
    # are taken per pass and only they are kept, so the worker's memory
    # does not grow with the number of passes.
    repeats = req["repeats"]
    passes, deciles, problems, beyond = [], [], [], 0
    start = time.perf_counter()
    while True:
        lat, bad, pieces = [], [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            more_lat, more_bad = _algebra_pass(prepared, ops)
            pieces.append((sum(more_lat) / 1e9, (t0, time.perf_counter())))
            lat += more_lat
            bad += more_bad
        passes.append(pieces)
        deciles.append(statistics.quantiles(lat, n=10, method="inclusive"))
        beyond += sum(x > deciles[-1][8] for x in lat)
        problems += bad
        elapsed = time.perf_counter() - start
        if req.get("trace") or elapsed + statistics.median(
                sum(secs for secs, _ in p) for p in passes) > req["seconds"]:
            break
    reply["extra"].update(passes=passes, deciles_ns=deciles, beyond_p90=beyond,
                          attempted=len(ops) * repeats * len(passes))
    if req.get("trace"):
        tracer = Tracer()
        tracer.install()
        # wrappers are installed on the classes; rebuild the bound calls
        prepared = [_prepare(op, models) for op in ops]
        lat, bad = _algebra_pass(prepared, ops)
        problems += bad
        reply["extra"]["attempted"] += len(ops)
        reply["spans"] = tracer.spans
    reply["extra"]["problems"] = problems


def main() -> None:
    req = json.load(sys.stdin)
    reply = {"extra": {}, "spans": []}
    tracer = None
    if req.get("trace") and req["kind"] != "algebra":
        t0 = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        reply["extra"]["install_s"] = time.perf_counter() - t0
    if req.get("tracemalloc"):
        import tracemalloc

        tracemalloc.start()
    {"cli": run_cli, "git": run_git, "algebra": run_algebra}[req["kind"]](req, reply)
    if req.get("tracemalloc"):
        reply["extra"]["alloc_peak"] = tracemalloc.get_traced_memory()[1]
    if tracer is not None:
        reply["spans"] = tracer.spans
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
