"""When a system becomes a clock: internal time and dynamic descent.

A non-degenerate system has one eigenvector per occupied energy level.  If
those levels form a subgroup {0, g, 2g, ...} of Z/N, Fourier-combining the
eigenvectors over the quotient yields internal tick states that the
one-step translation advances cyclically: the system carries a clock of
size m = N/g inside itself.  A partner system synchronised with it at a
fixed total energy is then governed by that internal clock.
"""

import numpy as np

from qclock import (
    NotASubgroupError,
    dynamic_descent,
    dynamic_from_generator,
    internal_time_observable,
    validate_dynamic,
)

N = 6
w = np.exp(2j * np.pi / N)

print("system with energy levels {0, 2, 4} inside Z/6:")
dg = dynamic_from_generator(np.diag([1, w**2, w**4]), N)
desc = internal_time_observable(dg)
print(f"  subgroup generator g={desc.subgroup_generator}, internal clock size m={desc.internal_size}")
print(f"  internal tick states (columns):\n{np.round(desc.basis, 3)}")
print(f"  one-step translation advances them cyclically: error {desc.permutation_error:.2e}")

print("\nenergy levels {0, 1} inside Z/4 do not close under addition:")
try:
    internal_time_observable(dynamic_from_generator(np.diag([1, 1j]), 4))
except NotASubgroupError as exc:
    print(f"  rejected: {exc}")

print("\ndescent: the internal Z/3 clock governs a compatible partner system")
rng = np.random.default_rng(3)
q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
u = q * (np.diag(r) / np.abs(np.diag(r)))
partner_gen = (u * np.exp(2j * np.pi * 2 * np.array([1, 2]) / N)) @ u.conj().T
dh = dynamic_from_generator(partner_gen, N)
v = dynamic_descent(dg, dh, 0)
print(f"  descended family is a Z/{v.N} dynamic on dim {v.dim}")
print(validate_dynamic(v).summary())
