"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload untraced and traced and reports per-layer self
time instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
correctness check exits with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the load generator and the
# single service worker are the only two runnable threads on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-small", "train-large-sparse", "serve-mixed")


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _latency_ms(seconds) -> list:
    """p50, p90 and p99 of latencies given in seconds, in ms."""
    return [round(1e3 * _percentile(seconds, q), 2) for q in (50, 90, 99)]


def _median(values) -> float:
    return _percentile(values, 50.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    """HEAD's SHA read from ``.git`` (no subprocess); 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy as np
    return {"git_sha": _git_sha(), "cpu": _cpu_model(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _e2e(setup_s, time_to_psnr_s, train_s, step_s, psnr_db, render_ok,
         renders_attempted) -> dict:
    """The end-to-end metric set every workload reports."""
    ms = 1e3
    return {
        "setup_s": (_median(setup_s), "s"),
        "time_to_psnr_s": (time_to_psnr_s, "s"),
        "train_s": (train_s, "s"),
        "train_step_ms_p50": (ms * _median(step_s), "ms"),
        "train_step_ms_p95": (ms * _percentile(step_s, 95), "ms"),
        "psnr_db": (psnr_db, "dB"),
        "render_slo_frac": (render_ok / renders_attempted, "frac"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


PER_LAYER_MS = (
    "grid.forward", "grid.backward", "optim.param_update", "mlp.forward",
    "mlp.backward", "scheduling.sample_pixels", "pipeline.map_rays",
    "pipeline.cull", "field.glue", "volume_rendering.forward",
    "volume_rendering.backward", "losses.loss", "occupancy.refresh",
    "residency.checkout", "checkpoint.load", "checkpoint.save",
    "batching.coalesce",
)

#: Measured layer -> the paper's PipelineStep it is compared against.
MODELED_STEP = {
    "scheduling.sample_pixels": "sample_pixels", "pipeline.map_rays": "map_rays",
    "grid.forward": "grid_forward", "mlp.forward": "mlp_forward",
    "volume_rendering.forward": "volume_render",
    "volume_rendering.backward": "volume_render", "losses.loss": "loss",
    "mlp.backward": "mlp_backward", "grid.backward": "grid_backward",
    "optim.param_update": "param_update",
}


def _layer_metrics(tracer, n_ops: float) -> dict:
    """``<layer>_ms`` = self time per operation, plus shared counts."""
    total = sum(tracer.self_s.values())
    out = {f"{layer}_ms": (1e3 * tracer.self_s.get(layer, 0.0) / n_ops, "ms")
           for layer in PER_LAYER_MS}
    out["trainer.other_ms"] = (
        1e3 * tracer.self_s.get("trainer.step", 0.0) / n_ops, "ms")
    out["trace.op_ms"] = (1e3 * total / n_ops, "ms")
    grid = tracer.self_s.get("grid.forward", 0.0) + tracer.self_s.get(
        "grid.backward", 0.0)
    out["grid.share"] = (grid / total if total else 0.0, "frac")
    steps = tracer.counts.get("steps", 0.0)
    queries = tracer.counts.get("queries_total", 0.0)
    out["grid.points_per_step"] = (
        tracer.counts.get("queries_kept", 0.0) / steps if steps else 0.0,
        "count")
    out["grid.rows_touched_per_step"] = (
        tracer.counts.get("rows_touched", 0.0) / steps if steps else 0.0,
        "count")
    out["pipeline.keep_frac"] = (
        tracer.counts.get("queries_kept", 0.0) / queries if queries else 0.0,
        "frac")
    out["checkpoint.loads"] = (float(tracer.calls.get("checkpoint.load", 0)),
                               "count")
    out["checkpoint.saves"] = (float(tracer.calls.get("checkpoint.save", 0)),
                               "count")
    return out


def _no_service_metrics() -> dict:
    return {"service.render_ms_p50": (0.0, "ms"),
            "service.render_ms_p99": (0.0, "ms"),
            "service.train_job_ms_p50": (0.0, "ms"),
            "residency.evictions": (0.0, "count"),
            "service.queue_wait_ms_p50": (0.0, "ms"),
            "service.batch_size_mean": (0.0, "count"),
            "service.worker_busy_frac": (0.0, "frac"),
            "service.retries": (0.0, "count"),
            "loadgen.lag_ms_max": (0.0, "ms")}


def modeled_vs_measured(spec, tracer) -> list:
    """Rows (step, modeled share, paper-scale modeled share, measured share).

    The model is the calibrated Xavier NX device model applied to
    ``build_iteration_workload`` at this workload's own batch and measured
    keep fraction, and again at the paper's 4096 x 48 batch (Fig. 4).
    """
    from repro import WorkloadScale, build_iteration_workload
    from repro.accelerator.devices import XAVIER_NX, EdgeGPUModel
    from repro.training.profiler import PipelineStep

    queries = tracer.counts.get("queries_total", 0.0)
    keep = tracer.counts.get("queries_kept", 0.0) / queries if queries else 1.0
    device = EdgeGPUModel(XAVIER_NX)

    def shares(scale) -> dict:
        workload = build_iteration_workload(spec.config, scale,
                                            keep_fraction=keep)
        seconds = {}
        for label, value in device.estimate_step_times(workload).items():
            step = label.split("[")[0]
            seconds[step] = seconds.get(step, 0.0) + value
        return seconds

    columns = [shares(WorkloadScale.from_config(spec.config, spec.steps)),
               shares(WorkloadScale.paper_scale(spec.steps)), {}]
    for layer, value in tracer.self_s.items():
        step = MODELED_STEP.get(layer, "unmodeled")
        columns[2][step] = columns[2].get(step, 0.0) + value
    totals = [sum(column.values()) for column in columns]
    steps = [(step, (step,)) for step in PipelineStep.ORDER + ("unmodeled",)]
    steps.append(("grid (fwd+bwd)", PipelineStep.GRID_STEPS))
    return [(label,) + tuple(sum(column.get(s, 0.0) for s in members) / total
                             for column, total in zip(columns, totals))
            for label, members in steps]


# ---------------------------------------------------------------------------
# workloads -> result
# ---------------------------------------------------------------------------
def measure_train(name: str, seed: int, seconds: float, trace: bool):
    from workloads import SLO_MS, TRAIN_SPECS, run_train
    spec = TRAIN_SPECS[name]
    data = run_train(spec, seed, seconds, trace)
    runs = data["runs"]
    checks = {
        "params_finite": all(run["finite"] for run in runs + data["traced_runs"]),
        "psnr_target_reached": all(run["time_to_psnr_s"] is not None
                                   for run in runs),
        f"psnr_above_{spec.psnr_floor:g}dB": all(
            run["psnr_db"] >= spec.psnr_floor for run in runs),
    }
    steps = sum(len(run["step_s"]) for run in runs)
    renders = [s for run in runs for s in run["render_s"]]
    attempted = steps + len(renders)
    info = {"training_runs": len(runs), "steps": steps,
            "renders": len(renders), "failed_frac": 0.0,
            "target_psnr_db": spec.target_psnr,
            "render_ms_p50/p90/p99": _latency_ms(renders)}
    if trace:
        tracer = data["tracer"]
        pairs = list(zip(runs, data["traced_runs"]))
        checks["traced_losses_bit_identical"] = all(
            a["losses"] == b["losses"] for a, b in pairs)
        metrics = _layer_metrics(tracer, tracer.counts.get("steps", 1.0))
        metrics.update(_no_service_metrics())
        metrics["trace.overhead_frac"] = (
            sum(b["train_s"] for _, b in pairs)
            / sum(a["train_s"] for a, _ in pairs) - 1.0, "frac")
        info["modeled_vs_measured"] = modeled_vs_measured(spec, tracer)
        attempted += sum(len(b["step_s"]) for _, b in pairs)
        return metrics, checks, attempted, 0, info
    step_s = [s for run in runs for s in run["step_s"]]
    ttp = [run["time_to_psnr_s"] for run in runs]
    metrics = _e2e(
        setup_s=data["setup_s"],
        # A run that misses the target is censored at its full budget (and
        # already fails the psnr_target_reached check).
        time_to_psnr_s=_median([t if t is not None else run["train_s"]
                                for t, run in zip(ttp, runs)]),
        train_s=_median([run["train_s"] for run in runs]),
        step_s=step_s,
        psnr_db=_median([run["psnr_db"] for run in runs]),
        render_ok=sum(1 for s in renders if 1e3 * s <= SLO_MS),
        renders_attempted=len(renders))
    return metrics, checks, attempted, 0, info


def measure_serve(seed: int, seconds: float, trace: bool, scratch: Path):
    from workloads import (LAG_FLAG_MS, SERVE_PSNR_FLOOR, SLO_MS,
                           TRAIN_JOB_STEPS, run_serve)
    data = run_serve(seed, seconds, trace, scratch)
    phases = data["load"]
    checks = {
        "psnr_target_reached": data["time_to_psnr_s"] is not None,
        f"psnr_above_{SERVE_PSNR_FLOOR:g}dB": all(
            value >= SERVE_PSNR_FLOOR for value in data["scene_psnr"].values()),
        "served_render_matches_solo_1e-6": data["render_error"] <= 1e-6,
    }
    attempted = data["bringup_jobs"]
    failed = 0
    lag = []
    for label, phase in phases.items():
        outcomes = phase["outcomes"]
        done = [o for o in outcomes if "exec" in o]
        stats = phase["stats"]
        checks[f"{label}_jobs_accounted"] = (
            len(outcomes) == phase["submitted"]
            and stats["render_jobs"] + stats["train_jobs"] == len(done))
        attempted += phase["submitted"]
        failed += len(outcomes) - len(done)
        lag += phase["lag_s"]
    load = phases["untraced"]
    renders = [o for o in load["outcomes"] if o["kind"] == "render"]
    render_s = [o["latency_s"] for o in renders if "latency_s" in o]
    trains = [o["latency_s"] for o in load["outcomes"]
              if o["kind"] == "train" and "latency_s" in o]
    info = {"render_error": data["render_error"],
            "scene_psnr_db": data["scene_psnr"],
            "lag_ms_max": 1e3 * max(lag), "lag_ms_p99": 1e3 * _percentile(lag, 99),
            "lag_flag": 1e3 * max(lag) > LAG_FLAG_MS,
            "failed_frac": failed / attempted,
            "renders": len(renders), "train_jobs": len(trains),
            "render_ms_p50/p90/p99": _latency_ms(render_s),
            "train_job_ms_p50": 1e3 * _median(trains),
            "batch_size_mean": load["stats"]["coalesced_jobs"]
            / max(load["stats"]["batches"], 1.0),
            "checkpoint_loads": load["stats"]["checkpoint_loads"]}
    if trace:
        tracer = data["tracer"]
        traced = phases["traced"]
        done = [o for o in traced["outcomes"] if "exec" in o]
        metrics = _layer_metrics(tracer, traced["submitted"])
        stats = traced["stats"]
        busy = _busy_s(done)

        def exec_mean(phase):
            spans = [o["exec"][1] - o["exec"][0] for o in phase["outcomes"]
                     if "exec" in o]
            return sum(spans) / len(spans)

        metrics.update({
            # Latencies come from the untraced half: spans would add to them.
            "service.render_ms_p50": (1e3 * _median(render_s), "ms"),
            "service.render_ms_p99": (1e3 * _percentile(render_s, 99), "ms"),
            "service.train_job_ms_p50": (1e3 * _median(trains), "ms"),
            "residency.evictions": (stats["evictions"], "count"),
            "service.queue_wait_ms_p50": (
                1e3 * _median([o["queued_s"] for o in done]), "ms"),
            "service.batch_size_mean": (
                stats["coalesced_jobs"] / max(stats["batches"], 1.0), "count"),
            "service.worker_busy_frac": (busy / traced["wall_s"], "frac"),
            "service.retries": (stats["retries"], "count"),
            "loadgen.lag_ms_max": (1e3 * max(traced["lag_s"]), "ms"),
            "trace.overhead_frac": (exec_mean(traced) / exec_mean(load) - 1.0,
                                    "frac"),
        })
        return metrics, checks, attempted, failed, info
    metrics = _e2e(
        setup_s=data["setup_s"],
        time_to_psnr_s=(data["time_to_psnr_s"]
                        if data["time_to_psnr_s"] is not None else data["train_s"]),
        train_s=data["train_s"],
        step_s=[s / TRAIN_JOB_STEPS for s in data["job_exec_s"]],
        psnr_db=sum(data["scene_psnr"].values()) / len(data["scene_psnr"]),
        render_ok=sum(1 for s in render_s if 1e3 * s <= SLO_MS),
        renders_attempted=len(renders))
    return metrics, checks, attempted, failed, info


def _busy_s(outcomes) -> float:
    """Length of the union of the jobs' execution intervals."""
    busy, reach = 0.0, float("-inf")
    for start, end in sorted(o["exec"] for o in outcomes):
        if end <= reach:
            continue
        busy += end - max(start, reach)
        reach = end
    return busy


def report(workload, seed, trace, metrics, checks, info, prov) -> None:
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key, value in info.items():
        if key == "modeled_vs_measured":
            print("  step share (%): Xavier NX model at this batch, "
                  "at the paper's batch, and measured here")
            for step, modeled, paper, measured in value:
                print(f"    {step:16s} {100 * modeled:6.1f} {100 * paper:6.1f} "
                      f"{100 * measured:6.1f}")
        else:
            print(f"  {key}: {value}")
    if info.get("lag_flag"):
        print("  FLAG: load generator lagged more than 10 % of the limit")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no library source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    prov = provenance()
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        scratch_root = ROOT / ".perfbench_tmp"
        scratch_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=scratch_root))
        try:
            measured = measure_serve(args.seed, args.seconds, trace, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                scratch_root.rmdir()
            except OSError:
                pass
    else:
        measured = measure_train(args.workload, args.seed, args.seconds, trace)
    metrics, checks, attempted, failed, info = measured
    correct = all(checks.values())
    report(args.workload, args.seed, trace, metrics, checks, info, prov)
    print(json.dumps({
        "correct": correct, "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
