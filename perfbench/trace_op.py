"""Traced replay of one CLI op in a fresh process.

    python perfbench/trace_op.py TRACE_JSON STDOUT_FILE PROBE_SEED -- ARGV...

Imports graphsep.cli (timed), wraps the public functions of each module
at every module attribute that names them, so that callers that look
them up (graphsep.cli.full_tensor, graphsep.tensor.full_weight_support,
graphsep.separability.k_sep_bound, ...) go through the wrapper, and
then calls graphsep.cli.main(ARGV) with stdout sent to STDOUT_FILE.
Each fresh process starts with cold lru_caches, as the CLI does.

Spans (name, start, end, parent, info) are kept in memory and written to
TRACE_JSON when the op ends.  Two untimed passes follow the op and are
reported apart: the expectation probe on states whose detect took the
dense path, and the count of admissible partitions behind each
k_sep_bound call.
"""

import sys
import time

_t0 = time.perf_counter()
import graphsep.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import graphsep.pauli  # noqa: E402

PROBE_WORDS = 32

TARGETS = {
    "cli": ("cmd_norms", "cmd_bounds", "cmd_sweep", "cmd_detect", "cmd_settings", "cmd_appendix", "cmd_graph"),
    "statefile": ("load_state_file",),
    "states": ("graph_state", "w_state", "ghz_state", "cluster_state", "noisy_mixture"),
    "tensor": ("full_tensor", "dense_limit", "tensor_norm", "norm_table", "measurement_settings"),
    "stabilizer": ("stabilizer_group", "full_weight_support", "cg_nonzero_pattern", "ghz_nonzero_pattern"),
    "separability": ("k_sep_bound", "admissible_partitions", "threshold_p", "xi_noise"),
}


def _members(ens) -> int:
    return len(ens.terms) if hasattr(ens, "terms") else 1


# Counts taken at the span boundary: from the call's arguments (on entry,
# so a call that raises still has them) and from its result.
ON_CALL = {
    "separability.k_sep_bound": lambda a, kw: {
        "n": a[0], "k": a[1], "admissible_only": a[2] if len(a) > 2 else kw.get("admissible_only", True)
    },
    "statefile.load_state_file": lambda a, kw: {"bytes": os.path.getsize(a[0])},
    "tensor.full_tensor": lambda a, kw: {"n": a[0].n, "members": _members(a[0])},
    "stabilizer.full_weight_support": lambda a, kw: {"n": a[0].n},
}
ON_RETURN = {
    "tensor.full_tensor": lambda r: {"entries": len(r)},
    "stabilizer.full_weight_support": lambda r: {"kept": len(r)},
    **{f"states.{func}": lambda r: {"n": r.n} for func in TARGETS["states"]},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, info]
        self.stack = []
        self.originals = {}

    def wrap(self, name, fn):
        on_call, on_return = ON_CALL.get(name), ON_RETURN.get(name)

        def traced(*args, **kwargs):
            info = on_call(args, kwargs) if on_call else {}
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, info]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_return:
                info.update(on_return(result))
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("graphsep") and m is not None]
        for layer, names in TARGETS.items():
            home = sys.modules[f"graphsep.{layer}"]
            for func in names:
                original = getattr(home, func)
                name = f"{layer}.{func}"
                self.originals[name] = original
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def op_path(spans) -> str:
    """Mark full_tensor spans that swept densely; return the op's path.

    A full_tensor call reaches dense_limit only on the dense path.  The
    op's path is "dense", "support" (full_weight_support or a pattern
    ran), both joined by "+", or "none".
    """
    for s in spans:
        if s[0] == "tensor.dense_limit" and s[3] >= 0 and spans[s[3]][0] == "tensor.full_tensor":
            spans[s[3]][4]["dense"] = True
    dense = any(s[4].get("dense") for s in spans)
    support = any(
        s[0] in ("stabilizer.full_weight_support", "stabilizer.cg_nonzero_pattern", "stabilizer.ghz_nonzero_pattern")
        for s in spans
    )
    return "+".join(name for name, took in (("dense", dense), ("support", support)) if took) or "none"


def _probe(tracer, argv, seed):
    """Time expectation() on seeded identity-free words of the op's state (us each)."""
    path = argv[argv.index("--state-file") + 1]
    state = tracer.originals["statefile.load_state_file"](path).ensemble.terms[0][1]
    rng = np.random.default_rng(seed)
    words = ["".join("XYZ"[i] for i in rng.integers(3, size=state.n)) for _ in range(PROBE_WORDS)]
    times = []
    for word in words:
        pauli = graphsep.pauli.PauliString(word)
        t = time.perf_counter()
        graphsep.pauli.expectation(state, pauli)
        times.append((time.perf_counter() - t) * 1e6)
    return times


def _partition_count(tracer, spans):
    count_of = tracer.originals["separability.admissible_partitions"]
    cache, total = {}, 0
    for name, _, _, _, info in spans:
        if name != "separability.k_sep_bound":
            continue
        key = (info["n"], info["k"], info["admissible_only"])
        if key not in cache:
            try:
                cache[key] = len(count_of(*key))
            except RecursionError:
                cache[key] = 0
        total += cache[key]
    return total


def main(trace_path, stdout_path, probe_seed, argv):
    tracer = Tracer()
    tracer.install()
    error = None
    saved = sys.stdout
    with open(stdout_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        start = time.perf_counter()
        try:
            rc = graphsep.cli.main(argv)
        except Exception as exc:  # a known fault escapes main as a traceback
            rc, error = 1, type(exc).__name__
            traceback.print_exc()
        finally:
            end = time.perf_counter()
            sys.stdout = saved
    spans = tracer.spans
    path = op_path(spans)
    probe = _probe(tracer, argv, probe_seed) if argv[0] == "detect" and "dense" in path else []
    record = {
        "rc": rc,
        "error": error,
        "path": path,
        "import_s": IMPORT_S,
        "main_s": end - start,
        "spans": [[n, s - start, e - start, p, info] for n, s, e, p, info in spans],
        "probe_us": probe,
        "partitions": _partition_count(tracer, spans),
    }
    record["post_s"] = time.perf_counter() - end
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sep = sys.argv.index("--")
    trace_file, stdout_file, seed = sys.argv[1:sep]
    sys.exit(main(trace_file, stdout_file, int(seed), sys.argv[sep + 1:]))
