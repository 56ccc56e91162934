"""Database search on mathematically perfect instructions.

Runs the four-item search for every target item on the idealized hardware
profile and prints the final qubit values. Reading the rounded pair
(Q1, Q2) as a reversed-bit binary number recovers the searched item in a
single query.
"""

from spinsim import fidelity, grover_program, make_profile, new_basis_state, run_sequence

profile = make_profile("ideal")

print("item   Q1       Q2       answer   fidelity with |item>")
for item in range(4):
    prog = grover_program(item, profile, init_order="12")
    final, _ = run_sequence(new_basis_state(2, [0, 0]), prog.seq)
    obs = final.observables()
    bits = [item & 1, (item >> 1) & 1]
    fid = fidelity(final, new_basis_state(2, bits))
    q1, q2 = (q if round(q, 6) else 0.0 for q in obs.q.tolist())  # a readout rounding to zero prints unsigned
    answer = round(q1) + 2 * round(q2)
    print(f"  {item}    {q1:.6f} {q2:.6f}   {answer}        {fid:.12f}")

print()
print("Swapping the two preparation transforms changes nothing here;")
print("single-qubit operations on distinct qubits commute exactly:")
for item in (0, 1):
    a, _ = run_sequence(new_basis_state(2, [0, 0]), grover_program(item, profile, "12").seq)
    b, _ = run_sequence(new_basis_state(2, [0, 0]), grover_program(item, profile, "21").seq)
    qa, qb = a.observables().q, b.observables().q
    print(f"  item {item}: |Q(12) - Q(21)| = {max(abs(qa[0]-qb[0]), abs(qa[1]-qb[1])):.2e}")
