"""Gray-code bosonic compilation and two-photon interference simulation."""

from . import beamsplitter, circuit, experiments, gray, pauli, statevector
