"""Does a longer history fix plain AIS?  The exact sweep says no.

One might hope that increasing the history length k drives AIS toward the
intuitive storage of each unit (0 for forwarding, 1 bit for XOR).  The
exact oracle shows it does not: AIS(k) is flat in k for both problem
cases, because the forwarding output inherits the drive's first-order
structure (which no extra history explains away) and the XOR output under
an i.i.d. drive is itself i.i.d. (so no history helps).  icAIS resolves
both at k=1.  The chain is solved once, at the longest k; each shorter k
is that exact joint's marginal.
"""

import infostorage as ist
from infostorage import ProcessSpec, UnitSpec

CASES = [
    ("forwarding / markov(0.7)", ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("forwarding")),
    ("xor / iid(0.5)", ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory")),
]

for label, proc, unit in CASES:
    print(label)
    print(f"  {'k':>3}{'AIS':>12}{'icAIS':>12}")
    joint = ist.oracle_joint(proc, unit, 4)
    for k in range(1, 5):
        a = ist.ais(joint, k=k).average_bits
        c = ist.icais(joint, k=k).average_bits
        print(f"  {k:>3}{a:>12.6f}{c:>12.6f}")
    print()
