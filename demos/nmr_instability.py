"""Pulse-order instability of the NMR-style hardware.

The same search program is run twice per item: preparing qubit 1 before
qubit 2, and the logically equivalent swap. On ideal hardware the swap is
invisible; with sinusoidal pulses the off-resonant phase errors make the
swapped runs return completely wrong answers for every item, without any
decoherence in the model.
"""

from spinsim import REFERENCE_Q, run_grover

print("running 8 pulse-level simulations...\n")

rows = {}
for init in ("12", "21"):
    for item in range(4):
        rows[(init, item)] = run_grover("nmr", item, init, sample_every=10**9)

print("prepare W1 then W2 (stable):")
print("item   Q1      Q2      reference        read answer  correct?")
for item in range(4):
    r = rows[("12", item)]
    ref = REFERENCE_Q[("nmr", "12", item)]
    answer = round(r.q[0]) + 2 * round(r.q[1])
    print(
        f"  {item}    {r.q[0]:.4f}  {r.q[1]:.4f}  ({ref[0]:.3f}, {ref[1]:.3f})"
        f"   {answer}            {'yes' if answer == item else 'NO'}"
    )

print("\nprepare W2 then W1 (logically equivalent, physically not):")
print("item   Q1      Q2      reference        read answer  correct?")
for item in range(4):
    r = rows[("21", item)]
    ref = REFERENCE_Q[("nmr", "21", item)]
    answer = round(r.q[0]) + 2 * round(r.q[1])
    print(
        f"  {item}    {r.q[0]:.4f}  {r.q[1]:.4f}  ({ref[0]:.3f}, {ref[1]:.3f})"
        f"   {answer}            {'yes' if answer == item else 'NO'}"
    )

print("\nper-item swing between the two preparations (max over qubits):")
for item in range(4):
    a, b = rows[("12", item)], rows[("21", item)]
    swing = max(abs(a.q[0] - b.q[0]), abs(a.q[1] - b.q[1]))
    print(f"  item {item}: {swing:.3f}")
