"""Benchmark of whole graphsep CLI runs, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload {dense,support,tables} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload is a list of
`python -m graphsep.cli ...` invocations run one child process at a
time (a closed loop with one client).  Children get PYTHONPATH=<root>/src
and no GRAPHSEP_DENSE_LIMIT, so the caller's shell cannot change which
evaluation path runs.  The op list runs in whole rounds, as many as come
nearest to S seconds at the workload's nominal round time; every op's
stdout is checked against values computed apart from the program
(oracle.py).

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced round
(trace_op.py replays each op in a fresh process with the public
functions wrapped) and prints the per-layer metrics.  Per-op records go
to stdout, one JSON object a line, and with the spans to
.perfbench_out/ in the root; the last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading

import oracle
from workloads import ROUND_SECONDS, WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
CLI_COMMANDS = ("detect", "norms", "bounds", "sweep", "settings")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, failed set-up)."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("GRAPHSEP_DENSE_LIMIT", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(cmd, env, root, out_path, err_path):
    """Run one child to completion through spawn.py; return (wall_s, peak_rss_mb, exit code)."""
    report = err_path + ".spawn"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py"), report, "--", *cmd],
            stdout=out, stderr=err, env=env, cwd=root, start_new_session=True,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:  # the benchmark itself is being stopped
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child killed after {CHILD_TIMEOUT_S} s or launcher failed: {cmd}")
    with open(report, encoding="utf-8") as fh:
        wall, rss_kib, rc = fh.read().split()
    os.remove(report)
    return float(wall), int(rss_kib) / 1024.0, int(rc)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _display_argv(op) -> list:
    return [os.path.basename(a) if a.endswith(".json") else a for a in op.argv]


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds whose nominal time comes nearest to `seconds`; at least one."""
    return max(1, int(seconds / ROUND_SECONDS[workload] + 0.5))


def setup(workload, seed, workdir, env, root) -> float:
    """Median wall time of a fresh-process import plus writing the inputs."""
    walls = []
    log = os.path.join(workdir, "setup.log")
    cmd = [sys.executable, os.path.join(HERE, "build_inputs.py"), workload, str(seed), workdir]
    for _ in range(SETUP_REPEATS):
        wall, _, rc = run_child(cmd, env, root, os.devnull, log)
        if rc != 0:
            raise BenchError(f"set-up failed (exit {rc}): {_last_line(_read(log))}")
        walls.append(wall)
    return statistics.median(walls)


def check_op(op, rc, out_path, err_path) -> dict:
    """Outcome of one finished op: failed (nonzero exit) or checked output."""
    if rc != 0:
        return {"rc": rc, "failed": True, "ok": None, "error": _last_line(_read(err_path))}
    try:
        oracle.check(op, _read(out_path))
    except oracle.CheckError as exc:
        return {"rc": rc, "failed": False, "ok": False, "error": str(exc)}
    return {"rc": rc, "failed": False, "ok": True, "error": None}


def plain_round(ops, workdir, env, root, tag) -> tuple[float, list]:
    """Run the op list once through the CLI; outputs are checked after all ops ran.

    The round's time is the sum of the ops' wall times, which leaves out
    the launcher's own start-up.
    """
    runs = []
    for i, op in enumerate(ops):
        out, err = (os.path.join(workdir, f"{tag}-{i}.{ext}") for ext in ("out", "err"))
        wall, rss, rc = run_child([sys.executable, "-m", "graphsep.cli", *op.argv], env, root, out, err)
        runs.append((op, wall, rss, rc, out, err))
    round_s = sum(run[1] for run in runs)
    records = []
    for op, wall, rss, rc, out, err in runs:
        records.append(
            {"pass": tag, "argv": _display_argv(op), "n": op.n, "path": None,
             "wall_s": wall, "rss_mb": rss, **check_op(op, rc, out, err)}
        )
        os.remove(out)
    return round_s, records


def traced_round(ops, workdir, env, root, seed) -> tuple[float, list, list]:
    """Replay each op in a fresh traced process; wall excludes the untimed probes."""
    records, traces = [], []
    traced_s = 0.0
    for i, op in enumerate(ops):
        out, err, trace, log = (os.path.join(workdir, f"traced-{i}.{ext}") for ext in ("out", "err", "json", "log"))
        cmd = [sys.executable, os.path.join(HERE, "trace_op.py"), trace, out, str(seed * 1000 + i), "--", *op.argv]
        wall, rss, rc = run_child(cmd, env, root, log, err)
        with open(trace, encoding="utf-8") as fh:
            rec = json.load(fh)
        traced_s += wall - rec["post_s"]
        traces.append(rec)
        records.append(
            {"pass": "traced", "argv": _display_argv(op), "n": op.n, "path": rec["path"],
             "wall_s": wall - rec["post_s"], "rss_mb": rss, **check_op(op, rc, out, err)}
        )
        os.remove(out)
    return traced_s, records, traces


def self_times(spans) -> list:
    """Span duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(traces, plain_records, rounds, plain_run_s, traced_run_s) -> dict:
    """Per-layer metrics from the traced round; cli.*_s per untraced round."""
    total = {}  # span name -> summed self time
    dense_s = support_s = 0.0
    counts = dict.fromkeys(
        ("bytes", "amplitudes", "dense_words", "dense_amp_bytes", "entries", "elements", "kept",
         "bound_calls", "partitions", "xi_calls"), 0)
    probes = []
    for rec in traces:
        spans = rec["spans"]
        own = self_times(spans)
        probes += rec["probe_us"]
        counts["partitions"] += rec["partitions"]
        for i, (name, _, _, parent, info) in enumerate(spans):
            total[name] = total.get(name, 0.0) + own[i]
            if name == "tensor.full_tensor":
                counts["entries"] += info.get("entries", 0)
                if info.get("dense"):
                    dense_s += own[i]
                    words = 3 ** info["n"] * info["members"]
                    counts["dense_words"] += words
                    counts["dense_amp_bytes"] += words * 2 ** info["n"] * 16
                else:
                    support_s += own[i]
            elif name == "stabilizer.full_weight_support":
                counts["elements"] += 2 ** info["n"] - 1
                counts["kept"] += info.get("kept", 0)
            elif name == "statefile.load_state_file":
                counts["bytes"] += info["bytes"]
            elif name.startswith("states.") and "n" in info and not (
                parent >= 0 and spans[parent][0].startswith("states.")
            ):
                counts["amplitudes"] += 2 ** info["n"]
            elif name == "separability.k_sep_bound":
                counts["bound_calls"] += 1
            elif name == "separability.xi_noise":
                counts["xi_calls"] += 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    enumerate_s = t("stabilizer.stabilizer_group", "stabilizer.full_weight_support")
    m = {"cli.import_s": (statistics.median(r["import_s"] for r in traces), "s")}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (sum(r["wall_s"] for r in plain_records if r["argv"][0] == cmd) / rounds, "s")
    m.update({
        "statefile.load_s": (t("statefile.load_state_file"), "s"),
        "statefile.bytes": (counts["bytes"], "bytes"),
        "states.build_s": (t(*(n for n in total if n.startswith("states."))), "s"),
        "states.amplitudes": (counts["amplitudes"], "count"),
        "pauli.expectation_us": (statistics.median(probes) if probes else 0.0, "us"),
        "tensor.dense_s": (dense_s, "s"),
        "tensor.dense_words": (counts["dense_words"], "count"),
        "tensor.dense_words_per_s": (ratio(counts["dense_words"], dense_s), "1/s"),
        "tensor.dense_amp_bytes": (counts["dense_amp_bytes"], "bytes_computed"),
        "tensor.support_s": (support_s, "s"),
        "tensor.entries": (counts["entries"], "count"),
        "tensor.norm_table_s": (t("tensor.norm_table"), "s"),
        "tensor.settings_s": (t("tensor.measurement_settings"), "s"),
        "tensor.norm_s": (t("tensor.tensor_norm"), "s"),
        "stabilizer.enumerate_s": (enumerate_s, "s"),
        "stabilizer.elements": (counts["elements"], "count"),
        "stabilizer.elements_per_s": (ratio(counts["elements"], enumerate_s), "1/s"),
        "stabilizer.full_weight_ratio": (ratio(counts["kept"], counts["elements"]), "ratio"),
        "stabilizer.pattern_s": (t("stabilizer.cg_nonzero_pattern", "stabilizer.ghz_nonzero_pattern"), "s"),
        "separability.bound_s": (t("separability.k_sep_bound", "separability.admissible_partitions"), "s"),
        "separability.bound_calls": (counts["bound_calls"], "count"),
        "separability.partitions": (counts["partitions"], "count"),
        "separability.threshold_s": (t("separability.threshold_p"), "s"),
        "separability.xi_s": (t("separability.xi_noise"), "s"),
        "separability.xi_calls": (counts["xi_calls"], "count"),
        "trace.overhead_s": (traced_run_s - plain_run_s, "s"),
    })
    return m


def run(workload, seed, seconds, trace, root) -> dict:
    if not os.path.isfile(os.path.join(root, "src", "graphsep", "cli.py")):
        raise BenchError(f"no graphsep source under {os.path.join(root, 'src')}; run from a checkout root")
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
    try:
        _, ops = build(workload, seed, workdir)
        setup_s = setup(workload, seed, workdir, env, root)
        round_times, records = [], []
        for r in range(round_count(workload, seconds)):
            round_s, recs = plain_round(ops, workdir, env, root, f"plain{r}")
            round_times.append(round_s)
            records += recs
        run_s = statistics.median(round_times)
        traces = []
        if trace:
            traced_s, traced_records, traces = traced_round(ops, workdir, env, root, seed)
            metrics = layer_metrics(traces, records, len(round_times), run_s, traced_s)
            records += traced_records
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (run_s, "s"),
                "op_p50_s": (statistics.median(r["wall_s"] for r in records), "s"),
                "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"records": records, "traces": traces}, fh)
    for rec in records:
        print(json.dumps(rec))
    return {
        "correct": all(r["ok"] for r in records if not r["failed"]),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child and the inputs are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
