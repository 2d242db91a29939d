"""Build a finite clock and verify every law its two structures satisfy.

A clock of size N is C^N with a distinguished tick basis.  Two interacting
algebras live on it: one copies ticks (and can erase or compare them), the
other adds them cyclically.  Each of their maps sends a basis state to one
basis state, so the clock stores it as a table of targets.  Their interplay
(Frobenius laws, Hopf law through time inversion, bialgebra laws) is what
makes time translation and energy labelling work; all of it is checked
entry by entry on those tables.
"""

import numpy as np

from qclock import make_clock, verify_strong_complementarity

N = 6
cs = make_clock(N)
add, copy, antipode = cs.group_mult, cs.time_copy, cs.antipode

print(f"clock of size {N}: every map is a table of targets")
print("\nthe addition table, |s>|t> -> |s + t mod N> (row s, column t):")
for s in range(N):
    print("  " + " ".join(str(x) for x in add.target[s]))

print("\nthe copy table, |t> -> |t>|t>:")
first, second = np.divmod(copy.target, N)
print("  " + "  ".join(f"|{t}> -> |{i}>|{j}>" for t, i, j in zip(range(N), first, second)))

print("\nthe antipode table, time inversion |t> -> |-t mod N>:")
print("  " + "  ".join(f"|{t}> -> |{x}>" for t, x in enumerate(antipode.target)))

print("\nall values are exactly 1:", all(
    np.all(table.value == 1) for table in (add, copy, antipode, cs.group_unit, cs.time_delete)
))

print("\nfull law report:")
print(verify_strong_complementarity(cs).summary())
