"""The shift/phase pair: canonical commutation and mutual unbias.

On the clock space itself, ticking forward (the cyclic shift) and phase
multiplication by a character form the canonical commuting pair:
V_E U_t = chi_E(t) U_t V_E.  The price of that relation is complete
ignorance across the dual bases: every eigenstate of one family is
uniformly distributed when measured with the other's observable.
"""

import numpy as np

from qclock import (
    demolition_measurement,
    dynamic_from_generator,
    make_clock,
    observable_from_spectrum,
    time_observable,
    uncertainty_check,
    weyl_ccr_check,
)

N = 5
cs = make_clock(N)
shift = np.roll(np.eye(N, dtype=complex), 1, axis=0)
phase = np.diag(np.exp(2j * np.pi * np.arange(N) / N))

dU = dynamic_from_generator(shift, N)
dV = dynamic_from_generator(phase, N)

print(weyl_ccr_check(dU, dV).summary())
print()
print(uncertainty_check(dU, dV).summary())

print("\na tick state measured against the shift's energy observable:")
obs_u = observable_from_spectrum(dU.spectrum)
tick = np.zeros(N, dtype=complex)
tick[2] = 1.0
print(f"  weights: {np.round(demolition_measurement(obs_u, tick), 6)}")

print("\na character state measured in the tick basis:")
chi = np.exp(2j * np.pi * np.arange(N) / N) / np.sqrt(N)
print(f"  weights: {np.round(demolition_measurement(time_observable(cs), chi), 6)}")
