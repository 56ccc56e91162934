"""Second-order convergence of the symmetrized product-formula step.

Evolves one sinusoidally driven instruction with successively halved step
lengths and compares each result against a brute-force propagator built
from fourth-order Magnus slices, each exponentiated exactly through its
eigendecomposition and refined until it sits far below the errors measured
here. The error drops by a factor of four per halving, the signature of a second-order method; measuring
1 - |overlap| instead would hide the global phase and show fourth-order
numbers.
"""

import math

import numpy as np

from spinsim import StateVector, StepPlan, dense_propagator, evolve_eo, make_profile

eo = make_profile("nmr").eo("X1")
print(f"instruction: resonant quarter-turn pulse, duration/2pi = {eo.tau/(2*math.pi):g}")
print("building the dense reference propagator...")
oracle = dense_propagator(eo.model, 0.0, eo.tau, tol=3e-9)

rng = np.random.default_rng(1)
amp = rng.normal(size=4) + 1j * rng.normal(size=4)
amp /= np.linalg.norm(amp)
psi0 = StateVector(2, amp)
exact = oracle @ psi0.amp

print("\nsubsteps   step length   l2 error      ratio   1-|overlap|   ratio")
prev = prev_f = None
for m in (80, 160, 320, 640, 1280):
    s = psi0.copy()
    evolve_eo(s, eo, 0.0, plan=StepPlan(m, eo.tau))
    err = np.linalg.norm(s.amp - exact)
    err_f = 1.0 - abs(np.vdot(exact, s.amp))
    r = f"{prev / err:5.2f}" if prev else "    -"
    rf = f"{prev_f / err_f:6.2f}" if prev_f else "     -"
    print(f"{m:8d}   {eo.tau/m:.5f}       {err:.3e}    {r}   {err_f:.3e}    {rf}")
    prev, prev_f = err, err_f

print("\nl2 ratios sit at 4 (second order); overlap-based ratios sit at 16 and")
print("above, since 1-|overlap| squares the error and drops its phase part.")
