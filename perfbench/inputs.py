"""Seeded inputs of the workloads and the optima they must certify.

Everything here is a pure function of the seed: the same seed builds the
same problems, relabelings and request streams.  The program under test
only ever sees the generated problems.
"""

from __future__ import annotations

import bisect
import random

#: Optimal stage counts of the SMT instances on the reduced layouts, written
#: out by hand.  Keys are ``(layout, instance)``; ``none-shielded`` is the
#: storage-less layout with shielding forced on.  The ``none``, ``bottom`` and
#: ``none-shielded`` rows are the 13 smoke cells and match
#: ``benchmarks/baselines/BENCH_BASELINE.json``; the ``double`` rows were
#: certified once by both ``linear`` and ``bisection``.  Widths 2 and 3 of the
#: service catalogue certify the same optima.
OPTIMA = {
    ("bottom", "single-gate"): 1,
    ("bottom", "chain-2"): 3,
    ("bottom", "disjoint-pairs"): 1,
    ("bottom", "triangle"): 5,
    ("bottom", "ring-4"): 2,
    ("none", "single-gate"): 1,
    ("none", "chain-2"): 2,
    ("none", "disjoint-pairs"): 1,
    ("none", "triangle"): 3,
    ("none", "ring-4"): 2,
    ("none-shielded", "single-gate"): 1,
    ("none-shielded", "disjoint-pairs"): 1,
    ("none-shielded", "ring-4"): 2,
    ("double", "single-gate"): 1,
    ("double", "chain-2"): 2,
    ("double", "disjoint-pairs"): 1,
    ("double", "triangle"): 4,
    ("double", "ring-4"): 2,
}

#: Certified optimum of the Steane [[7,1,3]] |0>_L circuit on Layout 2.
STEANE_OPTIMUM = 5

#: Strategies of the smoke sweep: the library default and the service default.
SMOKE_STRATEGIES = ("linear", "bisection")

#: Layout kinds and widths of the service catalogue.
SERVICE_LAYOUTS = ("none", "bottom", "double")
SERVICE_WIDTHS = (2, 3)

#: Zipf exponent of request popularity over the service catalogue.
ZIPF_EXPONENT = 1.0

#: Seed of the fixed popularity order.  The order is part of the workload:
#: which problems are popular sets the mix of hit costs, so it stays the
#: same for every run seed, which only draws the requests and relabelings.
POPULARITY_SEED = 0


def relabel(num_qubits, gates, rng):
    """A random isomorphic copy: permuted qubits, flipped and shuffled gates."""
    perm = list(range(num_qubits))
    rng.shuffle(perm)
    out = []
    for a, b in gates:
        a, b = perm[a], perm[b]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return out


def steane_doc(seed):
    """Steane |0>_L on Layout 2: the paper's labels for seed 0, else relabeled."""
    from repro.qec import get_code
    from repro.qec.state_prep import state_preparation_circuit

    prep = state_preparation_circuit(get_code("steane"))
    gates = [tuple(gate) for gate in prep.cz_gates]
    if seed != 0:
        gates = relabel(prep.num_qubits, gates, random.Random(seed))
    return {
        "num_qubits": prep.num_qubits,
        "gates": [list(gate) for gate in gates],
        "layout": "full:(2) Bottom Storage",
    }


def _cells(layouts, layout_kwargs):
    """``(layout, instance, document)`` for the SMT instances on *layouts*.

    ``none-shielded`` is the storage-less layout with shielding forced on;
    only the airborne-feasible instances are schedulable there.
    """
    from repro.evaluation.runner import AIRBORNE_SMOKE_INSTANCES, SMT_INSTANCES

    cells = []
    for layout in layouts:
        shielded = layout == "none-shielded"
        for name, (num_qubits, gates) in SMT_INSTANCES.items():
            if shielded and name not in AIRBORNE_SMOKE_INSTANCES:
                continue
            doc = {
                "num_qubits": num_qubits,
                "gates": [list(gate) for gate in gates],
                "layout": {"kind": "none" if shielded else layout, **layout_kwargs},
            }
            if shielded:
                doc["shielding"] = True
            cells.append((layout, name, doc))
    return cells


def smoke_cells():
    """The 13 smoke cells as ``(layout, instance, document)``."""
    from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS

    return _cells(("none", "bottom", "none-shielded"), REDUCED_LAYOUT_KWARGS)


def relabeled(doc, rng):
    """A copy of request document *doc* with freshly relabeled gates."""
    copy = dict(doc)
    copy["gates"] = [list(g) for g in relabel(doc["num_qubits"], doc["gates"], rng)]
    return copy


def smoke_pass(cells, rng):
    """One freshly relabeled pass of the sweep.

    One ``(label, expected_optimum, strategy, document)`` per cell and
    strategy.
    """
    return [
        (f"{strategy}/{layout}/{name}", OPTIMA[(layout, name)], strategy, relabeled(doc, rng))
        for layout, name, doc in cells
        for strategy in SMOKE_STRATEGIES
    ]


def service_catalogue():
    """The 36 distinct service problems, with the paper's labels.

    Each entry is ``(label, expected_optimum, document)``.
    """
    from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS

    entries = []
    for width in SERVICE_WIDTHS:
        layout_kwargs = dict(REDUCED_LAYOUT_KWARGS, x_max=width, c_max=width)
        for layout, name, doc in _cells(SERVICE_LAYOUTS + ("none-shielded",), layout_kwargs):
            entries.append((f"w{width}/{layout}/{name}", OPTIMA[(layout, name)], doc))
    return entries


class RequestStream:
    """Seeded Zipf-popular stream of relabeled catalogue requests.

    ``next()`` returns ``(catalogue_index, document)``.  Popularity ranks are
    a fixed permutation of the catalogue (see :data:`POPULARITY_SEED`).
    """

    def __init__(self, catalogue, seed):
        self._catalogue = catalogue
        self._rng = random.Random(seed)
        order = list(range(len(catalogue)))
        random.Random(POPULARITY_SEED).shuffle(order)
        self._indices = order
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def next(self):
        rng = self._rng
        rank = bisect.bisect_left(self._cumulative, rng.random())
        index = self._indices[min(rank, len(self._indices) - 1)]
        return index, relabeled(self._catalogue[index][2], rng)

