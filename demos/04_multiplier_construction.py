"""
Constructing a plurisubharmonic defining function
=================================================

rho = (1 + Kr + T) r with T built stage by stage.  Each stage solves
T_z = 2iS for the part S of the mixed derivative that nothing
dominates.  Then K = 2^e, e <= 20, is read off the scan at K = 1: the
rank-one term gives the least passing K in closed form, and one more
scan there is the verdict (A = 10: K = 1, 64).  When that K lies above
2^20 the scan at K = 1 is the verdict.
"""

from pshdef.catalog import type4_domain
from pshdef.construct import run_construction

# A = 10 needs a single stage
rep = run_construction(type4_domain(10))
print(rep.trace())
print()

# A = 8 is harder: for the first candidate rung 0 puts the least passing K
# above 2^20, and a second stage must cancel more of the mixed derivative
rep = run_construction(type4_domain(8))
print(rep.trace())
print()
print("contraction of the stage sources:")
for entry in rep.contraction:
    print(f"  stage {entry['stage']}: sup|S| {entry['sup_S']:.3e}"
          f" -> {entry['sup_S_next']:.3e} (ratio {entry.get('ratio', 0):.3e})")
