"""Whole circuit histories as ground states of a composite evolution.

Attach a clock register to a system and let one step advance the clock
while applying the gate of the stage being entered.  For a circuit whose
full cycle composes to the identity, the states fixed by this composite
evolution are exactly the unnormalised history states
sum_t psi_t (x) |t>: finding a circuit's entire history becomes a
ground-space computation.
"""

import numpy as np

from qclock import (
    composite_dynamic,
    cyclify,
    feynman_check,
    history_state,
    make_circuit,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)

print("hand-sized case: gates [X, X]")
c = make_circuit([X, X])
h = history_state(c, np.array([1, 0], dtype=complex))
print(f"  history of |0>: {np.round(h.real, 3)}  (|0,0> + |1,1>)")
print(feynman_check(c).summary())

print("\na random three-gate circuit, closed up with its adjoints (N=6):")
rng = np.random.default_rng(7)
gates = []
for _ in range(3):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates.append(q * (np.diag(r) / np.abs(np.diag(r))))
c6 = cyclify(gates)
rep = feynman_check(c6)
facts = rep.facts
print(f"  ground dimension {facts['ground_dim']} (system dimension {facts['expected_dim']})")
cycle = rep.check("cycle_product_is_identity").max_error
print(f"  cycle product off the identity by {cycle:.2e}, pass={rep.passed}")

W, labels = composite_dynamic(c6).spectrum.eigenbasis
q = W[:, labels == 0]  # the ground space: orthonormal columns at energy 0
psi = rng.normal(size=4) + 1j * rng.normal(size=4)
psi /= np.linalg.norm(psi)
hist = history_state(c6, psi)
hist /= np.linalg.norm(hist)
residual = np.linalg.norm(hist - q @ (q.conj().T @ hist))
print(f"  a random history state sits in the ground space: residual {residual:.2e}")
