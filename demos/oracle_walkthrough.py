"""Exact gate algebra behind the search: a guided walkthrough.

Everything here uses the oracle module's explicit matrices, no time
integration: the inversion about the mean, the period-3 iteration pattern
of the four-item search, and the identity that lets the pulse programs drop
rotation/inverse pairs.
"""

import numpy as np

from spinsim import (
    grover_iterate_check,
    ideal_two_qubit,
    make_profile,
    matrix_of_sequence,
    sequence_from_product,
)
from spinsim.pulses import full_search_product, shortened_search_product
from spinsim.reference import global_phase_between

np.set_printoptions(precision=3, suppress=True)

print("inversion about the mean (4x4):")
print(ideal_two_qubit("D").real)
print("\nIt is an involution: applying it twice is the identity, so the")
print("search loop must re-query the database between inversions.")

print("\npure-state hits of the query+invert cycle (10 iterations):")
for item in range(4):
    report = grover_iterate_check(item)
    print(f"  item {item}: pure at iterations {report.pure_iterations} "
          f"(index correct: {report.indices_ok})")

print("\nshortened vs full pulse programs (exact gate reconstruction):")
profile = make_profile("ideal")
for item in range(4):
    short = matrix_of_sequence(sequence_from_product(profile, shortened_search_product(item)))
    full = matrix_of_sequence(sequence_from_product(profile, full_search_product(item)))
    phase = global_phase_between(short, full)
    n_short = len(shortened_search_product(item))
    n_full = len(full_search_product(item))
    print(f"  item {item}: {n_full} -> {n_short} instructions, "
          f"relative phase {phase.real:+.0f} (physically irrelevant)")
