"""From a periodic unitary to its energy content and back.

Any unitary whose eigenphases are N-th roots of unity generates a Z/N
dynamic U_t = U^t.  Averaging the conjugated family against a character
chi_E carves out the projector P_E onto the energy-E eigenspace; summing
chi_E(t) P_E back up recovers U_t exactly, and the plain time average of
the family is the projector onto its fixed points.
"""

import numpy as np

from qclock import (
    dynamic_from_generator,
    spectral_projector,
    stone_reconstruct,
    time_average,
    validate_dynamic,
)

N = 8
rng = np.random.default_rng(1)

# a 3-level system whose phases sit at the 8th roots of unity
v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
phases = np.exp(2j * np.pi * np.array([0, 2, 5]) / N)
generator = (v * phases) @ v.conj().T

d = dynamic_from_generator(generator, N)
print(validate_dynamic(d).summary())

spec = d.spectrum  # computed once, kept on the dynamic
print(f"\nsupported energy levels: {list(spec.support)}")
for E in spec.support:
    rank = int(round(np.trace(spec.projectors[E]).real))
    print(f"  E={E}: projector of rank {rank}")

rebuilt = stone_reconstruct(spec)
err = np.max(np.abs(rebuilt.unitaries - d.unitaries))
print(f"\nreconstruction from projectors: max deviation {err:.2e}")

avg = time_average(d)
err0 = np.max(np.abs(avg - spectral_projector(d, 0)))
print(f"time average vs ground projector: max deviation {err0:.2e}")
print(f"ground-space rank: {int(round(np.trace(avg).real))}")
