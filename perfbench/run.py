"""Run one akgp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ablate-default --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout: akgp is imported from ``src/``. With
``--trace 0`` the run times the workload's set-up and its two timed steps,
interleaved, and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds of the two timed steps
and reports the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# Workloads that run ablation cells in parallel; all others use one akgp thread.
PARALLEL_WORKLOADS = {"ablate-default"}
BLAS_THREADS = 1
MIN_SAMPLES = 3  # of each step in an end-to-end run

END_TO_END = [
    ("setup_s", "s"),
    ("cmd1_items_per_s", "items/s"),
    ("cmd2_items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("tensor.backward.self_s", "s"),
    ("tensor.backward.calls", "count"),
    ("tensor.tape_records", "count"),
    ("tensor.accumulate_grad.calls", "count"),
    ("data.collate.self_s", "s"),
    ("data.collate.calls", "count"),
    ("data.read_examples.self_s", "s"),
    ("optim.adam_step.self_s", "s"),
    ("optim.adam_step.calls", "count"),
    ("encoders.encode_batch.self_s", "s"),
    ("fusion.gate_integrate.self_s", "s"),
    ("fusion.adapt_task.self_s", "s"),
    ("kg.load_triples.self_s", "s"),
    ("kg.build_graph.self_s", "s"),
    ("kg.adjacency_bytes", "bytes"),
    ("gnn.encode_knowledge.self_s", "s"),
    ("gnn.encode_knowledge.calls", "count"),
    ("retrieval.batch_top1_indices.self_s", "s"),
    ("retrieval.sample_negatives_batch.self_s", "s"),
    ("retrieval.neg_keys_per_negative", "ratio"),
    ("retrieval.retrieve_topk.self_s", "s"),
    ("retrieval.retrieve_topk.calls", "count"),
    ("retrieval.hit_rate", "ratio"),
    ("losses.align_loss_batch.self_s", "s"),
    ("losses.loss_cls_batch.self_s", "s"),
    ("trainer.pretrain_epoch.self_s", "s"),
    ("trainer.finetune_epoch.self_s", "s"),
    ("trainer.evaluate.self_s", "s"),
    ("trainer.start_stage.self_s", "s"),
    ("checkpoint.save.self_s", "s"),
    ("checkpoint.save.bytes", "bytes"),
    ("checkpoint.load.self_s", "s"),
    ("manifest.write_manifest.self_s", "s"),
    ("manifest.bytes_digested", "bytes"),
    ("synthbench.run_cell.self_s", "s"),
    ("synthbench.run_cell.wait_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ablate-default", "train-3k", "serve-10k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--akgp-threads", type=int,
                        help="override AKGP_THREADS (default: nproc for ablate-default, "
                             "else 1); records baselines such as a serial ablation")
    return parser.parse_args(argv)


def pin_threads(workload: str, override: int | None) -> dict:
    """Fix AKGP_THREADS and cap BLAS at one thread, so their product stays
    within nproc. Must run before numpy is imported.

    Multithreaded BLAS wakes its threads on every small product; on a shared
    two-core machine that made per-query retrieve times vary by a quarter.
    """
    nproc = len(os.sched_getaffinity(0))
    akgp_threads = override or (nproc if workload in PARALLEL_WORKLOADS else 1)
    os.environ["AKGP_THREADS"] = str(akgp_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return {"nproc": nproc, "AKGP_THREADS": akgp_threads, "blas_threads": BLAS_THREADS,
            "python": platform.python_version()}


def import_akgp():
    """Import akgp from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "akgp", "__init__.py")):
        raise SystemExit(f"perfbench: no akgp sources under {SRC}")
    sys.path.insert(0, SRC)
    import akgp

    if not os.path.abspath(akgp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: akgp imported from {akgp.__file__}, not {SRC}")


def timed_rounds(step, seconds: float, at_least: int) -> list:
    """Call ``step`` at least ``at_least`` times, then again while the next
    call is predicted to end within ``seconds`` of the first."""
    start = time.perf_counter()
    results = []
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if len(results) >= at_least and now - start + (now - began) > seconds:
            return results


def interleave(steps: dict, shares: dict, seconds: float, at_least: int) -> dict:
    """Call the steps interleaved, always the one furthest behind its share
    of the time spent so far, so that each is sampled across the whole run.
    Stops once each has ``at_least`` samples and the next call is predicted
    to end after ``seconds``. Returns each step's list of results."""
    results = {name: [] for name in steps}
    spent = dict.fromkeys(steps, 0.0)
    start = time.perf_counter()
    while True:
        short = [name for name in steps if len(results[name]) < at_least]
        name = min(short or steps, key=lambda n: spent[n] / shares[n])
        if not short and (time.perf_counter() - start
                          + spent[name] / len(results[name]) > seconds):
            return results
        began = time.perf_counter()
        results[name].append(steps[name]())
        spent[name] += time.perf_counter() - began


def end_to_end(workload, run, seconds: float) -> tuple[dict, dict]:
    steps = {"setup_s": lambda: workload.setup(run),
             "cmd1_items_per_s": lambda: workload.step1(run),
             "cmd2_items_per_s": lambda: workload.step2(run)}
    samples = interleave(steps, workload.shares, seconds, MIN_SAMPLES)
    # Whole-run rates, not medians of calls: the host alternates between a
    # fast and a slow phase every few seconds, and the median of short calls
    # jumps between the two while their sum averages them.
    rate1, rate2 = (sum(s.items for s in samples[slot]) / sum(s.seconds for s in samples[slot])
                    for slot in ("cmd1_items_per_s", "cmd2_items_per_s"))
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "cmd1_items_per_s": rate1,
        "cmd2_items_per_s": rate2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (name1, unit1), (name2, unit2) = workload.label1, workload.label2
    table = {
        name1: (samples["cmd1_items_per_s"][0].items / rate1 if unit1 == "s" else rate1, unit1),
        name2: (rate2, unit2),
    }
    for slot, values in samples.items():
        table[f"{slot} samples"] = (len(values), "count")
        times = (v if slot == "setup_s" else v.seconds for v in values)
        table[f"{slot} sample_s"] = (" ".join(f"{t:.3f}" for t in times), "s")
    for key, values in workload.quality.items():
        table[key] = (statistics.median(values), "")
    return metrics, table


def per_layer(workload, run, seconds: float) -> tuple[dict, dict]:
    from spans import MAX_COUNTERS, Tracer, merge

    plain, traced, totals, absent = [], [], {}, set()

    def pair():
        began = time.perf_counter()
        workload.round(run)
        plain.append(time.perf_counter() - began)
        with Tracer() as tracer:
            began = time.perf_counter()
            workload.round(run)
            traced.append(time.perf_counter() - began)
        absent.update(tracer.absent)
        merge(totals, tracer.stats())

    pairs = len(timed_rounds(pair, seconds, 1))
    stats = {key: value if key in MAX_COUNTERS else value / pairs
             for key, value in totals.items()}
    if stats.get("retrieval.negatives"):
        stats["retrieval.neg_keys_per_negative"] = (stats.get("retrieval.neg_keys", 0)
                                                    / stats["retrieval.negatives"])
    if stats.get("retrieval.hit_rate_n"):
        stats["retrieval.hit_rate"] = (stats["retrieval.hit_rate_sum"]
                                       / stats["retrieval.hit_rate_n"])
    stats["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: float(stats.get(name, 0.0)) for name, _ in PER_LAYER}
    table = {"traced rounds": (pairs, "count"),
             "absent": (", ".join(sorted(absent)) or "none", "")}
    return metrics, table


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_threads(args.workload, args.akgp_threads)
    import_akgp()
    import numpy

    from workloads import WORKLOADS, Runner

    env["numpy"] = numpy.__version__
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run = Runner(work_dir)
        digests = workload.prepare(run, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, table = measure(workload, run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            os.rmdir(WORK_ROOT)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"akgp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs sha256 " + json.dumps(digests, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    table["failed_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    for name, (value, unit) in table.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else f"{value:>16}"
        print(f"  {name:42s} {shown} {unit}")
    for error in run.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
