"""Set-up child: import graphsep and write a workload's seeded state files.

    python perfbench/build_inputs.py WORKLOAD SEED WORKDIR

Run in a fresh process with PYTHONPATH pointing at the package source;
its wall time (interpreter start, `import graphsep`, building and
writing the inputs) is the benchmark's set-up time.  Raw states are
built with the program's own constructors and written with
write_amplitude_file; family and graph documents are written as JSON
after their graph is validated by GraphSpec.
"""

import json
import sys

import graphsep as gs

from workloads import build, random_amplitudes, state_path


def main(workload: str, seed: int, workdir: str) -> None:
    states, _ = build(workload, seed, workdir)
    for state in states:
        path = state_path(workdir, state)
        if state.raw in ("random", "random_real"):
            gs.write_amplitude_file(path, gs.PureState(state.n, random_amplitudes(state)))
        elif state.raw == "cg":
            gs.write_amplitude_file(path, gs.graph_state(gs.complete_graph(state.n)))
        else:
            if state.family == "graph":
                gs.GraphSpec(state.n, state.edges)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(state.document(), fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
