"""The shift/phase pair: canonical commutation and mutual unbias.

On the clock space itself, ticking forward (the cyclic shift) and phase
multiplication by a character form the canonical commuting pair:
V_E U_t = chi_E(t) U_t V_E.  The price of that relation is complete
ignorance across the dual bases: every eigenstate of one family is
uniformly distributed when measured in the other's eigenbasis,
|<y_F|x_E>|^2 = 1/N.
"""

import numpy as np

from qclock import dynamic_from_generator, uncertainty_check, weyl_ccr_check

N = 5
shift = np.roll(np.eye(N, dtype=complex), 1, axis=0)
phase = np.diag(np.exp(2j * np.pi * np.arange(N) / N))

dU = dynamic_from_generator(shift, N)
dV = dynamic_from_generator(phase, N)

print(weyl_ccr_check(dU, dV).summary())
print()
print(uncertainty_check(dU, dV).summary())

X, x_labels = dU.spectrum.eigenbasis  # the shift's energy eigenstates: characters
Y, y_labels = dV.spectrum.eigenbasis  # the phase's: the tick states
weights = np.abs(np.conj(Y.T) @ X) ** 2  # row F, column E: |<y_F|x_E>|^2
print(f"\nweights |<y_F|x_E>|^2, rows F = {y_labels.tolist()}, columns E = {x_labels.tolist()}:")
print(np.round(weights, 6))
print(f"  largest distance from 1/N: {np.max(np.abs(weights - 1 / N)):.2e}")
