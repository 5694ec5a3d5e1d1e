"""Local (per-time-step) storage values and the interaction identity.

Local AIS is a log-ratio per transition and can go negative when the past
is misinformative about the next value.  For the forwarding unit under the
sticky drive, every 'repeat' step contributes log2(1.4) ~ +0.485 bits and
every 'switch' step log2(0.6) ~ -0.737 bits; the mix averages to ~0.119.
At every single step, local icAIS = local AIS + local interaction holds
exactly.
"""

import numpy as np

import infostorage as ist
from infostorage import EmbeddingConfig, ProcessSpec, UnitSpec

proc = ProcessSpec("markov_binary", p_stay=0.7, seed=0)
u = ist.generate_input(proc, 50)
x = ist.simulate_unit(UnitSpec("forwarding"), u)
table = ist.count_joint(x, u, EmbeddingConfig(1))

# evaluate the observed transitions under the exact transition law
exact = ist.oracle_joint(proc, UnitSpec("forwarding"), 1)
a = ist.local_ais(table, exact)
c = ist.local_icais(table, exact)
i = ist.local_interaction(table, exact)
# a profile holds one value per table cell; .values gathers them by step on
# each read, so read it once
a_steps, c_steps, i_steps = a.values, c.values, i.values

print("step  x  local AIS  local icAIS  local interaction")
for t in range(12):
    idx = a.start_index + t
    print(
        f"{idx:>4}  {x.data[idx]}  {a_steps[t]:>9.4f}  {c_steps[t]:>11.4f}"
        f"  {i_steps[t]:>17.4f}"
    )

print()
print(f"mean local AIS  = {a.mean:.6f}  (exact average {ist.ais(exact, k=1).average_bits:.6f})")
print(f"identity residual max = {np.max(np.abs(c_steps - a_steps - i_steps)):.1e}")
