"""Seeded workload definitions: the input states and the CLI op list of each workload.

Nothing here imports graphsep.  The same (workload, seed) always gives
the same states and ops, so the parent process (which checks outputs)
and the set-up child (which writes the state files with the program's
own constructors) agree on every input without talking to each other.

A state is one of
  * a family document  {"family": "cg"|"ghz"|"w"|"cluster", "n": .., "p"?: ..}
  * a graph document   {"family": "graph", "n": .., "edges": [[a, b], ...], "p"?: ..}
  * a raw state        built by the set-up child and written with
                       graphsep.write_amplitude_file: random Gaussian
                       amplitudes (drawn here) or the complete-graph state.
Only raw states carry no family tag, so detect on them takes the dense
path whatever their n.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dense", "support", "tables")

# Wall time of one untraced round of each op list on the reference
# machine (perfbench/README.md).  A run's number of rounds comes from
# --seconds and these figures, never from times measured in the run: a
# stop rule on measured time makes a run on a slow stretch of a shared
# host do fewer rounds, and a run that stops after one long round reports
# a longer round than one that goes on to a second, shorter one.
ROUND_SECONDS = {"dense": 20.0, "support": 25.0, "tables": 9.0}

# Edge density of the seeded random graphs, as a share of all n(n-1)/2
# pairs; the edge count is fixed so that state construction, which costs
# O(|E| 2^n), does not change with the seed.
SPARSE_DEGREE = 4
DENSE_SHARE = 0.5


@dataclass(frozen=True)
class State:
    """One input state file.  raw is None for family and graph documents."""

    name: str
    n: int
    family: str | None = None
    p: float | None = None
    edges: tuple = ()
    raw: str | None = None  # "random", "random_real" or "cg"
    raw_seed: int = 0

    def document(self) -> dict:
        """State-file JSON for family and graph states."""
        doc = {"family": self.family, "n": self.n}
        if self.family == "graph":
            doc["edges"] = [list(e) for e in self.edges]
        if self.p is not None:
            doc["p"] = self.p
        return doc


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv after `python -m graphsep.cli`."""

    argv: tuple
    n: int
    state: State | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def random_amplitudes(state: State) -> np.ndarray:
    """Normalized Gaussian amplitude vector (real or complex), qubit 1 most significant."""
    rng = np.random.default_rng(state.raw_seed)
    amps = rng.normal(size=1 << state.n).astype(np.complex128)
    if state.raw == "random":
        amps += 1j * rng.normal(size=1 << state.n)
    return amps / np.linalg.norm(amps)


def random_edges(rng: np.random.Generator, n: int, m: int) -> tuple:
    """m distinct edges of K_n chosen uniformly, as sorted (a, b) pairs, 1-based."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    pick = rng.choice(len(pairs), size=m, replace=False)
    return tuple(sorted(pairs[i] for i in pick))


def sparse_edges(rng, n: int) -> tuple:
    return random_edges(rng, n, SPARSE_DEGREE * n // 2)


def dense_edges(rng, n: int) -> tuple:
    return random_edges(rng, n, round(DENSE_SHARE * n * (n - 1) / 2))


def _noise(rng) -> float:
    return round(float(rng.uniform(0.02, 0.2)), 4)


def state_path(workdir: str, state: State) -> str:
    return os.path.join(workdir, state.name + ".json")


def _small_dense_states(rng) -> list[State]:
    """Twelve untagged states at n=5-8: the dense path at about one process start each."""
    seeds = [int(x) for x in rng.integers(1 << 31, size=6)]
    return [
        *(State(f"rand{n}", n, raw="random", raw_seed=seed) for n, seed in zip((5, 6, 7, 8), seeds)),
        State("rand6_real", 6, raw="random_real", raw_seed=seeds[4]),
        State("rand8_real", 8, raw="random_real", raw_seed=seeds[5]),
        State("w5_noise", 5, "w", p=_noise(rng)),
        State("w7_noise", 7, "w", p=_noise(rng)),
        State("w6", 6, "w"),
        State("ghz6_noise", 6, "ghz", p=_noise(rng)),
        State("ghz7", 7, "ghz"),
        State("ghz8_noise", 8, "ghz", p=_noise(rng)),
    ]


def _small_graph_states(rng) -> list[State]:
    """Twelve random graph states at n=8-13: the support path at about one process start each."""
    states = []
    for n in range(8, 14):
        states.append(State(f"graph{n}_sparse", n, "graph", edges=sparse_edges(rng, n)))
        states.append(State(f"graph{n}_dense_noise", n, "graph", p=_noise(rng), edges=dense_edges(rng, n)))
    return states


def _random_k(rng, n: int) -> int:
    return 2 + int(rng.integers(min(n, 4) - 1))


def _detects(workdir, pairs) -> tuple[list[State], list[Op]]:
    """The states of (state, k) pairs and a detect op for each."""
    ops = [Op(("detect", "--state-file", state_path(workdir, s), "--k", str(k)), s.n, s) for s, k in pairs]
    return [s for s, _ in pairs], ops


# Each workload function returns its states, its large ops and its small ops (about
# one process start each).  The small ops are most of every op list and
# are spread evenly between the large ones, so the median op (op_p50_s)
# is one of many calls of similar cost sampled across the whole round,
# rather than whichever large op lands in the middle; run_s is still
# dominated by the large ops.
def _dense(rng, workdir):
    seeds = [int(x) for x in rng.integers(1 << 31, size=2)]
    states, large = _detects(workdir, [
        (State("w10", 10, "w"), 2),
        (State("w10_noise", 10, "w", p=_noise(rng)), 2 + int(rng.integers(2))),
        (State("ghz10_noise", 10, "ghz", p=_noise(rng)), 2),
        (State("rand9", 9, raw="random", raw_seed=seeds[0]), 2 + int(rng.integers(2))),
        (State("rand10", 10, raw="random", raw_seed=seeds[1]), 2 + int(rng.integers(2))),
        (State("cg10_raw", 10, raw="cg"), 2),
    ])
    large += [
        Op(("sweep", "--family", "ghz", "--n", "10", "--k", "2", "--p-steps", "101"), 10),
        Op(("norms", "--families", "w", "--n-min", "9", "--n-max", "10"), 10),
    ]
    small_states, small = _detects(workdir, [
        # a small graph-tagged state, so the support path is timed here too
        (State("graph5", 5, "graph", edges=dense_edges(rng, 5)), 2),
        *((s, _random_k(rng, s.n)) for s in _small_dense_states(rng)),
    ])
    small += [
        Op(("bounds", "--n", "10"), 10),
        Op(("settings", "--n", "10", "--noise"), 10),
    ]
    return states + small_states, large, small


def _support(rng, workdir):
    states, large = _detects(workdir, [
        (State("cg20", 20, "cg"), 2),
        (State("cg18_noise", 18, "cg", p=_noise(rng)), 2),
        (State("cluster20_noise", 20, "cluster", p=_noise(rng)), 4),
        *((s, _random_k(rng, s.n)) for s in (
            State("graph18_dense_noise", 18, "graph", p=_noise(rng), edges=dense_edges(rng, 18)),
            State("graph19_sparse", 19, "graph", edges=sparse_edges(rng, 19)),
            State("graph19_dense_noise", 19, "graph", p=_noise(rng), edges=dense_edges(rng, 19)),
            State("graph20_sparse", 20, "graph", edges=sparse_edges(rng, 20)),
            State("graph20_dense_noise", 20, "graph", p=_noise(rng), edges=dense_edges(rng, 20)),
        )),
    ])
    large += [
        Op(("norms", "--families", "cg,cluster,ghz", "--n-min", "11", "--n-max", "18"), 18),
        Op(("settings", "--n", "18", "--noise"), 18),
    ]
    small_states, small = _detects(workdir, [
        (State("graph16_sparse", 16, "graph", edges=sparse_edges(rng, 16)), _random_k(rng, 16)),
        # a small untagged state, so the dense path is timed here too
        (State("w4", 4, "w"), 2),
        *((s, _random_k(rng, s.n)) for s in _small_graph_states(rng)),
    ])
    small += [
        Op(("bounds", "--n", "20"), 20),
        Op(("sweep", "--family", "cg", "--n", "20", "--k", "2", "--p-steps", "11"), 20),
    ]
    return states + small_states, large, small


def _tables(rng, workdir):
    raw_seed = int(rng.integers(1 << 31))
    appendix_n = 8 + int(rng.integers(7))
    graph_n = 5 + int(rng.integers(6))
    states, small = _detects(workdir, [
        (s, 2 + int(rng.integers(s.n - 2))) for s in (
            State("w4_noise", 4, "w", p=_noise(rng)),
            State("rand5", 5, raw="random", raw_seed=raw_seed),
            State("graph6_dense_noise", 6, "graph", p=_noise(rng), edges=dense_edges(rng, 6)),
            State("ghz6", 6, "ghz"),
        )
    ])
    small += [
        Op(("appendix", "--n", str(appendix_n)), appendix_n),
        Op(("graph", "--n", str(graph_n)), graph_n),
        Op(("settings", "--n", "6", "--noise"), 6),
        # Known faults, counted as failed: part_norm converts 2^1098 to a
        # float (OverflowError) and _partitions_into recurses k deep
        # (RecursionError).  A fixed program is checked on its rows.
        Op(("bounds", "--n", "1100", "--k-max", "3"), 1100),
        Op(("bounds", "--n", "1000", "--k-min", "999"), 1000),
    ]
    large = [
        Op(("bounds", "--n", "40"), 40),
        Op(("bounds", "--n", "50"), 50),
        Op(("bounds", "--n", "55"), 55),
        Op(("sweep", "--family", "cg", "--n", "40", "--k", "20", "--p-steps", "101"), 40),
        Op(("sweep", "--family", "ghz", "--n", "8", "--k", "2", "--p-steps", "101"), 8),
        Op(("norms",), 8),
    ]
    return states, large, small


_WORKLOAD_FUNCTIONS = {"dense": _dense, "support": _support, "tables": _tables}


def build(workload: str, seed: int, workdir: str) -> tuple[list[State], list[Op]]:
    """States and op list of a workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    states, large, small = _WORKLOAD_FUNCTIONS[workload](rng, workdir)
    ops = []
    for i, op in enumerate(large):
        ops.append(op)
        ops += small[len(small) * i // len(large): len(small) * (i + 1) // len(large)]
    return states, ops
