"""A stabilizer (tableau) simulator in the Aaronson–Gottesman style.

The simulator tracks the stabilizer group of the state as ``n`` generator
rows (phases included) starting from ``|0...0>`` (generators ``Z_i``).  It
supports the Clifford gates appearing in state-preparation circuits, single
qubit computational-basis measurement, and — most importantly for this
project — an exact membership test ``is_stabilized_by`` that checks whether
a given Pauli operator (with sign) stabilizes the current state.

Destabilizer rows are tracked as well so that measurements of anti-commuting
observables can be performed in the standard O(n²) way.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate, GateKind
from repro.qec import gf2
from repro.qec.pauli import PauliString


class TableauSimulator:
    """Simulate Clifford circuits on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, seed: Optional[int] = None) -> None:
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        self._n = num_qubits
        self._rng = random.Random(seed)
        n = num_qubits
        # Stabilizers: Z_i ; destabilizers: X_i.
        self._stabilizers = [
            PauliString.from_support(n, "Z", [i]) for i in range(n)
        ]
        self._destabilizers = [
            PauliString.from_support(n, "X", [i]) for i in range(n)
        ]

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of simulated qubits."""
        return self._n

    @property
    def stabilizer_generators(self) -> list[PauliString]:
        """Current stabilizer generators (copies)."""
        return [s.copy() for s in self._stabilizers]

    # ------------------------------------------------------------------ #
    # Gates
    # ------------------------------------------------------------------ #
    def _apply_to_all(self, method: str, *qubits: int) -> None:
        for row in self._stabilizers:
            getattr(row, method)(*qubits)
        for row in self._destabilizers:
            getattr(row, method)(*qubits)

    def h(self, qubit: int) -> None:
        """Hadamard."""
        self._apply_to_all("apply_h", qubit)

    def s(self, qubit: int) -> None:
        """Phase gate."""
        self._apply_to_all("apply_s", qubit)

    def sdg(self, qubit: int) -> None:
        """Inverse phase gate."""
        self._apply_to_all("apply_sdg", qubit)

    def x(self, qubit: int) -> None:
        """Pauli X."""
        self._apply_to_all("apply_x", qubit)

    def y(self, qubit: int) -> None:
        """Pauli Y."""
        self._apply_to_all("apply_y", qubit)

    def z(self, qubit: int) -> None:
        """Pauli Z."""
        self._apply_to_all("apply_z", qubit)

    def cz(self, a: int, b: int) -> None:
        """Controlled-Z."""
        self._apply_to_all("apply_cz", a, b)

    def cx(self, control: int, target: int) -> None:
        """Controlled-X."""
        self._apply_to_all("apply_cx", control, target)

    def apply_gate(self, gate: Gate) -> None:
        """Apply a :class:`~repro.circuit.gates.Gate`."""
        dispatch = {
            GateKind.H: self.h,
            GateKind.S: self.s,
            GateKind.SDG: self.sdg,
            GateKind.X: self.x,
            GateKind.Y: self.y,
            GateKind.Z: self.z,
            GateKind.CZ: self.cz,
            GateKind.CX: self.cx,
        }
        dispatch[gate.kind](*gate.qubits)

    def run_circuit(self, circuit: Circuit) -> None:
        """Apply every gate of *circuit* in order."""
        if circuit.num_qubits > self._n:
            raise ValueError("circuit has more qubits than the simulator")
        for gate in circuit:
            self.apply_gate(gate)

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure(self, qubit: int, forced_outcome: Optional[int] = None) -> int:
        """Measure *qubit* in the computational basis; returns 0 or 1."""
        observable = PauliString.from_support(self._n, "Z", [qubit])
        return self.measure_pauli(observable, forced_outcome)

    def measure_pauli(
        self, observable: PauliString, forced_outcome: Optional[int] = None
    ) -> int:
        """Measure a Hermitian Pauli observable; returns 0 (+1) or 1 (-1)."""
        anticommuting = [
            i
            for i, stab in enumerate(self._stabilizers)
            if not stab.commutes_with(observable)
        ]
        if anticommuting:
            outcome = (
                forced_outcome
                if forced_outcome is not None
                else self._rng.randint(0, 1)
            )
            pivot = anticommuting[0]
            # All other anti-commuting stabilizers are multiplied by the
            # pivot so that only one generator anti-commutes.
            for i in anticommuting[1:]:
                self._stabilizers[i] = self._stabilizers[pivot] * self._stabilizers[i]
            for i, destab in enumerate(self._destabilizers):
                if not destab.commutes_with(observable):
                    self._destabilizers[i] = self._stabilizers[pivot] * destab
            # The old stabilizer becomes the destabilizer of the new one.
            self._destabilizers[pivot] = self._stabilizers[pivot]
            new_stabilizer = observable.copy()
            if outcome == 1:
                new_stabilizer.phase = (new_stabilizer.phase + 2) % 4
            self._stabilizers[pivot] = new_stabilizer
            return outcome
        # Deterministic outcome: the observable (up to sign) is in the group.
        expectation = self.expectation(observable)
        if expectation == 1:
            return 0
        if expectation == -1:
            return 1
        raise RuntimeError("observable commutes with the group but is not in it")

    # ------------------------------------------------------------------ #
    # Stabilizer-group queries
    # ------------------------------------------------------------------ #
    def expectation(self, observable: PauliString) -> int:
        """Expectation value of a Pauli observable: +1, -1, or 0 (random)."""
        for stab in self._stabilizers:
            if not stab.commutes_with(observable):
                return 0
        combination = self._express_in_generators(observable)
        if combination is None:
            raise RuntimeError(
                "observable commutes with all generators but is outside the group"
            )
        product = PauliString.identity(self._n)
        for index in np.nonzero(combination)[0]:
            product = product * self._stabilizers[int(index)]
        phase_difference = (observable.phase - product.phase) % 4
        if phase_difference == 0:
            return 1
        if phase_difference == 2:
            return -1
        raise RuntimeError("imaginary relative phase between Hermitian operators")

    def is_stabilized_by(self, observable: PauliString) -> bool:
        """True when *observable* (including its sign) stabilizes the state."""
        for stab in self._stabilizers:
            if not stab.commutes_with(observable):
                return False
        return self.expectation(observable) == 1

    def _express_in_generators(self, observable: PauliString) -> np.ndarray | None:
        matrix = np.vstack([s.symplectic for s in self._stabilizers])
        return gf2.solve(matrix, observable.symplectic)
