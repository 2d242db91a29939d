"""Synchronised clock-system states and conservation of total energy.

Entangling a system with its clock as sum_t U_t|psi> (x) |t> makes "what
time is it" and "what is the energy" simultaneously answerable.  Reading
the clock's energy instead of its time leaves several systems in a
superposition with a fixed total energy; measuring one member's energy
shifts the total left for the others.
"""

import numpy as np

from qclock import (
    EnergyFamily,
    conundrum_check,
    dynamic_from_generator,
    history_from_state,
    make_clock,
    synchronized_pair,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
d = dynamic_from_generator(X, 2)
e0 = np.array([1, 0], dtype=complex)

pair = synchronized_pair(d, e0)
print(f"synchronised pair of the X dynamic with |0>: {np.round(pair.real, 3)}")
print("\ntime and energy commute on the joint space:")
print(conundrum_check(d, make_clock(2)).summary())

print("\ntwo systems, one clock, total energy fixed at 1:")
fam = EnergyFamily([d, d], [e0, e0], 1)
print(f"  family state: {np.round(fam.amplitudes.real, 3)}   (half of |00> - |11>)")

# the same state read off the clock: contract the clock leg of
# sum_t U_t e0 (x) U_t e0 (x) |t> with the energy-(-1) functional (-1)^t
traj = history_from_state(d, e0).states  # traj[t] = U_t e0
joint = np.einsum("ti,tj->tij", traj, traj).reshape(2, -1)
collapsed = np.array([1, -1]) @ joint
print(f"  projecting the clock onto level -1 gives {np.round(collapsed.real, 3)}, twice it")

out = fam.measure(1, 1)
state = out.amplitudes / np.linalg.norm(out.amplitudes)
print(
    "  measuring system 2 at E'=1 leaves system 1 with energy 0:"
    f" state {np.round(state.real, 3)}, residual {out.residual:.2e}"
)
