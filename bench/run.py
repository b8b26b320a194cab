"""querymix benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, one process each

Run from the repository root. Each workload is a closed loop in one
process; see bench/README.md for what each measures and why. With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from a traced run that follows an untraced one of
the same length. Human-readable tables, the environment block and the
checks go to the lines before it; the full result (and, traced, every span)
is written under bench/_out/.
"""

import os

# pin BLAS before numpy is imported anywhere; environment.check_blas_pin
# verifies the pin took effect
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

# end-to-end metrics of BENCHMARK.json and the figure each reads per workload kind
END_TO_END = {
    "setup_s": {"train": "setup_s", "eval": "setup_s"},
    "samples_per_s": {"train": "train_samples_per_s", "eval": "eval_scenes_per_s"},
    "latency_p50_ms": {"train": "step_p50_ms", "eval": "infer_p50_ms"},
    "latency_p90_ms": {"train": "step_p90_ms", "eval": "infer_p90_ms"},
    "peak_rss_mb": {"train": "peak_rss_mb", "eval": "peak_rss_mb"},
}


def _import_program():
    """Import querymix from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "querymix" / "__init__.py").is_file():
        sys.exit(f"error: no querymix sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import querymix
    if Path(querymix.__file__).resolve().parent != src / "querymix":
        sys.exit(f"error: imported querymix from {querymix.__file__}, not {src}")


def _table(rows, header) -> str:
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    line = lambda r: "  ".join(str(v).ljust(w) for v, w in zip(r, widths))  # noqa: E731
    return "\n".join([line(header)] + [line(r) for r in rows])


def run_one(args) -> int:
    import environment
    import workloads
    from tracer import Tracer

    reason = environment.check_blas_pin()
    if reason is not None:
        sys.exit(f"error: {reason}; refusing to time an unpinned run")
    env = environment.environment(ROOT)
    kind = workloads.WORKLOADS[args.workload]["kind"]
    tracer = Tracer() if args.trace else None
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"work_{tag}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, tracer, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g}s  trace {args.trace}")
    print("environment: " + json.dumps(env))
    print(_table([(n, f"{v:.6g}", u, s) for n, (v, u, s) in run.figures.items()],
                 ("metric", "value", "unit", "samples")))
    for error in run.op_errors[:10]:
        print(f"operation FAILED: {error}")
    for name, ok, detail in run.checks.results:
        if not ok:
            print(f"check FAILED: {name} {detail}")
    print(f"checks: {len(run.checks.results) - run.checks.failed}/{len(run.checks.results)} passed")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "figures": {n: {"value": v, "unit": u, "samples": s}
                          for n, (v, u, s) in run.figures.items()},
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks.results],
              "operation_errors": run.op_errors}
    if tracer is not None:
        metrics = tracer.layer_metrics(workloads.EVAL_WORKERS)
        metrics["trace.overhead"] = (run.overhead if run.overhead is not None else 0.0, "ratio")
        spans_path = OUT / f"spans_{tag}.csv"
        tracer.write_spans(spans_path)
        print(_table([(n, f"{v:.6g}", u) for n, (v, u) in metrics.items()],
                     ("layer metric", "value", "unit")))
        rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
        print(_table([(n, c, f"{t:.1f}", f"{s:.1f}") for n, (c, t, s) in rows[:40]],
                     ("span (whole run)", "calls", "total_ms", "self_ms")))
        print(f"tracing overhead on the median {'step' if kind == 'train' else 'pass'}: "
              f"{metrics['trace.overhead'][0]:+.1%}  spans: {len(tracer.spans)} -> {spans_path}")
        result["layer_metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    else:
        metrics = {name: run.figures[by_kind[kind]][:2] for name, by_kind in END_TO_END.items()}
    (OUT / f"result_{tag}.json").write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    names = ("train_dynamic", "train_dynamic_beta0", "eval_dynamic")
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="querymix benchmark")
    parser.add_argument("--workload", default="all",
                        choices=("all", "train_dynamic", "train_dynamic_beta0", "eval_dynamic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
