"""Qubit trajectories of the search runs, exported as CSV.

Writes the time evolution of both qubit values for the stable and the
swapped preparation of item 0, the data behind trajectory figures. Each row
carries the global time, the norm, all per-qubit spin expectations and an
operation index for per-instruction rescaling when plotting.
"""

import os

from spinsim import run_grover, write_trajectory_csv

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

for init, tag in (("12", "stable"), ("21", "swapped")):
    report = run_grover("nmr", 0, init)
    path = os.path.join(OUT_DIR, f"nmr_item0_{tag}.csv")
    write_trajectory_csv(path, report.samples, 2)
    obs = report.samples.obs
    print(f"{tag} preparation: {len(report.samples)} samples -> {path}")
    print(f"  final Q = ({report.q[0]:.4f}, {report.q[1]:.4f})")
    mid = len(report.samples) // 3
    print(f"  a third of the way in: t = {obs.t[mid]:.1f}, Q = ({obs.q[mid, 0]:.3f}, {obs.q[mid, 1]:.3f})")

print("\ncolumns: step,t,norm,sx1,sy1,sz1,q1,sx2,sy2,sz2,q2,eo_index")
print("The eo_index column groups rows by instruction so plots can rescale")
print("each instruction's interval to equal width.")
