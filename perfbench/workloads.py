"""The three workloads and the span recorder the traced runs use.

A workload makes its inputs from its seed, outside the timed region, and
runs them in rounds of identical operations.  Each operation is one call
into a public function of ``bpdp``; a round's time is the sum of its
calls' times.  Outputs are kept for the checks that run after timing.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from bpdp.chain import (FROBOSE_TABLE, TWO_NEIGHBOUR_TABLE, ChainParams,
                        brute_force_hit_prob, compute_pi,
                        compute_two_neighbour_lower_bound, sample_trajectory)
from bpdp.lattice_sim import Rectangle, explore, local_closure_frobose

import reference

Metrics = Dict[str, Tuple[float, str]]


class Tracer:
    """Spans kept in memory and written out once, at the end of a run."""

    def __init__(self):
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._open[-1] if self._open else None,
               "name": name, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(sid)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def seconds(self, name: str) -> List[float]:
        return [(s["end_ns"] - s["start_ns"]) * 1e-9
                for s in self.spans if s["name"] == name]


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


NULL_TRACER = NullTracer()


def write_traces(path: Path, tracers: Dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({name: t.spans for name, t in tracers.items()}, fh)


class Workload:
    """Rounds of calls; counts attempted and failed operations."""

    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.host = None   # a HostSpeed sampled before each call, if set

    def call(self, tracer, span_name: str, fn, *args, **attrs):
        """One timed operation: (output, seconds), or (None, 0) on failure."""
        if self.host is not None:
            self.host.sample()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(span_name, **attrs):
                out = fn(*args)
        except Exception as exc:   # counted as a failed operation
            self.failed += 1
            self.problems.append(f"{span_name}{attrs}: {exc!r}")
            return None, 0.0
        return out, time.perf_counter() - t0

    def _record(self, store: dict, key, value) -> None:
        # Every round repeats the same calls; the program is deterministic.
        if key in store and store[key] != value:
            self.problems.append(f"{key}: {value!r} differs from an earlier "
                                 f"round's {store[key]!r}")
        store.setdefault(key, value)

    def prepare_round(self):
        raise NotImplementedError

    def run_round(self, inputs, tracer) -> float:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def trace_apart(self, tracer: Tracer) -> None:
        """Traced calls a layer metric needs beyond the rounds' own."""

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        raise NotImplementedError


def cells_swept(L: int) -> int:
    """(w, h) cells of the level sweep: sum over phi < L of (phi - 1)."""
    return (L - 1) * (L - 2) // 2


class Ladder(Workload):
    """compute_pi (Frobose, exact) at p = 2^-k, k = 2..9: `bpdp scan`."""

    name = "ladder"
    KS = tuple(range(2, 10))
    TRACED_KS = (6, 7, 8, 9)

    def __init__(self, seed: int):
        super().__init__(seed)
        order = self.rng.permutation(len(self.KS))
        self.ops = [(self.KS[i], ChainParams.from_p(2.0 ** -self.KS[i]))
                    for i in order]
        self.results: Dict[int, Tuple[float, float]] = {}

    def prepare_round(self):
        return self.ops

    def run_round(self, ops, tracer) -> float:
        wall = 0.0
        for k, params in ops:
            r, dt = self.call(tracer, "chain.engine.compute_pi", compute_pi,
                              params, k=k, L=params.threshold)
            if r is not None:
                wall += dt
                self._record(self.results, k, (r.log_pi, r.log_hit_prob))
        return wall

    def check(self) -> List[str]:
        problems = list(self.problems)
        if len(self.results) != len(self.KS):
            return problems + ["not every k has a result"]
        # The reference is trusted only once it matches the brute-force
        # oracle at p = 1/4 for every L up to the oracle's bound (12, the
        # L of k = 2).
        brute = {}
        for L in range(2, 13):
            cp = ChainParams.from_p(0.25, threshold=L)
            brute[L] = brute_force_hit_prob(cp)
            ref = reference.sweep_log_hit_prob(FROBOSE_TABLE, 0.25, L, "exact")
            if not reference.log_close(ref, brute[L], reference.GRID_ABS_TOL):
                problems.append(f"reference sweep {ref!r} vs brute force "
                                f"{brute[L]!r} at p=1/4, L={L}")
        ref_log_pi = {}
        for k, params in sorted(self.ops, key=lambda op: op[0]):
            if k >= 3:
                hit = reference.sweep_log_hit_prob(
                    FROBOSE_TABLE, params.model.p, params.threshold, "exact")
                ref_log_pi[k] = -hit / 2.0
        log_pi = {k: v[0] for k, v in self.results.items()}
        return problems + reference.check_ladder(
            log_pi, ref_log_pi, brute[dict(self.ops)[2].threshold],
            self.results[2][1])

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        per_k: Dict[int, List[float]] = {}
        for s in tracer.spans:
            if s["name"] == "chain.engine.compute_pi":
                k, L = s["attrs"]["k"], s["attrs"]["L"]
                per_k.setdefault(k, []).append(
                    (s["end_ns"] - s["start_ns"]) / cells_swept(L))
        return {f"chain.engine.ns_per_cell.k{k}":
                (statistics.median(per_k[k]), "ns") for k in self.TRACED_KS}


class OracleGrid(Workload):
    """Both DP entry points over p x L x convention, L = 2..12."""

    name = "oracle-grid"
    PS = (0.1, 0.3, 0.5, 0.7)
    LS = tuple(range(2, 13))
    CONVENTIONS = ("exact", "at-least")
    MODELS = {
        "frobose": (compute_pi, FROBOSE_TABLE),
        "two_neighbour": (compute_two_neighbour_lower_bound, TWO_NEIGHBOUR_TABLE),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        keys = [(m, p, L, c) for m in self.MODELS for p in self.PS
                for L in self.LS for c in self.CONVENTIONS]
        order = self.rng.permutation(len(keys))
        self.ops = [(keys[i], ChainParams.from_p(keys[i][1], threshold=keys[i][2],
                                                 convention=keys[i][3]))
                    for i in order]
        self.values: Dict[tuple, float] = {}

    def prepare_round(self):
        return self.ops

    def run_round(self, ops, tracer) -> float:
        wall = 0.0
        for key, params in ops:
            fn = self.MODELS[key[0]][0]
            r, dt = self.call(tracer, f"chain.engine.{key[0]}", fn, params,
                              p=key[1], L=key[2], convention=key[3])
            if r is not None:
                wall += dt
                self._record(self.values, key, r.log_hit_prob)
        return wall

    def check(self) -> List[str]:
        enumerated = {key: reference.enumerate_log_hit_prob(
            self.MODELS[key[0]][1], key[1], key[2], key[3])
            for key in self.values}
        return list(self.problems) + reference.check_grid(self.values, enumerated)

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        return {f"chain.engine.call_us.{m}":
                (statistics.median(tracer.seconds(f"chain.engine.{m}")) * 1e6, "us")
                for m in self.MODELS}


class LatticeBridge(Workload):
    """explore on Bernoulli(0.3) boxes against chain trajectories (8c)."""

    name = "lattice-bridge"
    P = 0.3
    CAP = 10                                   # semi-perimeter cap
    BOX = Rectangle(-12, -12, 13, 13)          # 25 x 25 around the germ
    SAMPLES_PER_ROUND = 500

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = np.array(sorted(self.BOX.cells() - {(0, 0)}))
        self.params = ChainParams.from_p(self.P, threshold=self.CAP)
        self.explore_counts: Counter = Counter()
        self.chain_counts: Counter = Counter()
        self.n_explore = 0
        self.n_chain = 0
        self.explore_steps = 0
        self.chain_steps = 0

    def prepare_round(self):
        masks = self.rng.random((self.SAMPLES_PER_ROUND, len(self.cells))) < self.P
        seeds = self.rng.integers(0, 2 ** 63, size=self.SAMPLES_PER_ROUND)
        return masks, seeds.tolist()

    def _config(self, mask) -> set:
        infected = set(map(tuple, self.cells[mask].tolist()))
        infected.add((0, 0))
        return infected

    def run_round(self, inputs, tracer) -> float:
        masks, seeds = inputs
        wall = 0.0
        germ = Rectangle(0, 0, 1, 1)
        for mask, seed in zip(masks, seeds):
            infected = self._config(mask)
            traj, dt = self.call(tracer, "lattice_sim.explore", explore,
                                 infected, germ, self.BOX, self.CAP)
            if traj is not None:
                wall += dt
                self.n_explore += 1
                self.explore_steps += len(traj) - 1
                self.explore_counts.update(fr.projected() for fr in traj)
            states, dt = self.call(tracer, "chain.oracle.sample_trajectory",
                                   sample_trajectory, self.params, seed)
            if states is not None:
                wall += dt
                self.n_chain += 1
                self.chain_steps += len(states) - 1
                self.chain_counts.update(states)
        return wall

    def check(self) -> List[str]:
        problems, _ = reference.check_frequencies(
            self.explore_counts, self.chain_counts, self.n_explore, self.n_chain)
        return list(self.problems) + problems

    def trace_apart(self, tracer: Tracer) -> None:
        """local_closure_frobose from the germ on a fresh round's
        configurations, outside any round's time."""
        for mask in self.prepare_round()[0]:
            self.call(tracer, "lattice_sim.local_closure_frobose",
                      local_closure_frobose, self._config(mask), (0, 0), self.BOX)

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        explore_s = tracer.seconds("lattice_sim.explore")
        traj_s = tracer.seconds("chain.oracle.sample_trajectory")
        closure_s = tracer.seconds("lattice_sim.local_closure_frobose")
        return {
            "lattice_sim.explore_us": (math.fsum(explore_s) / len(explore_s) * 1e6, "us"),
            "lattice_sim.explore_steps": (self.explore_steps / self.n_explore, "count"),
            "lattice_sim.local_closure_us": (math.fsum(closure_s) / len(closure_s) * 1e6, "us"),
            "chain.oracle.trajectory_us": (math.fsum(traj_s) / len(traj_s) * 1e6, "us"),
            "chain.oracle.trajectory_steps": (self.chain_steps / self.n_chain, "count"),
        }


WORKLOADS = {w.name: w for w in (Ladder, OracleGrid, LatticeBridge)}


def warm_up() -> None:
    """One small call of every public function the workloads time."""
    compute_pi(ChainParams.from_p(0.25))
    compute_two_neighbour_lower_bound(ChainParams.from_p(0.3, threshold=12))
    bridge = LatticeBridge(0)
    masks, seeds = bridge.prepare_round()
    infected = bridge._config(masks[0])
    explore(infected, Rectangle(0, 0, 1, 1), bridge.BOX, bridge.CAP)
    local_closure_frobose(infected, (0, 0), bridge.BOX)
    sample_trajectory(bridge.params, seeds[0])
