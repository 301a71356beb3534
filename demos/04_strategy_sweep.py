"""A reduced sweep over SNR and pilot counts for both threshold strategies.

Reproduces the qualitative behavior of the two threshold strategies: with a
strictness proportional to the pilot count, the sum rate falls as more
subcarriers must be jammed; with constant strictness, the ordering reverses
at high SNR because the total jamming power barely depends on the pilot
count.  Writes the CSV and plot-data files; plots them when matplotlib is
available.
"""

import json
import os
import tempfile

import numpy as np

from jamcom import ExperimentConfig, run_experiment
from jamcom.experiments import emit_csv, emit_plotdata

theta, beta = 4 * np.pi / 9, 2 * np.pi / 9
out_dir = os.path.join(tempfile.gettempdir(), "jamcom_sweep")
os.makedirs(out_dir, exist_ok=True)

for strategy in (1, 2):
    config = ExperimentConfig(
        n_t=4, K=2, L=1, N=16,
        pilot_sets=[2, 8],
        snr_db_list=[10.0, 20.0, 25.0],
        scheme_list=["RSMA", "SDMA"],
        channel_model={"type": "deterministic", "theta": theta, "beta": beta},
        strategy=strategy, M=4, seed=7, eps_r=1e-3,
    )
    table = run_experiment(config)
    emit_csv(table, os.path.join(out_dir, f"strategy{strategy}.csv"))
    emit_plotdata(table, os.path.join(out_dir, f"strategy{strategy}_curves"))

    print(f"\nstrategy {strategy}:")
    print(f"{'snr':>5} {'scheme':>6} {'pilots':>6} {'sum_rate':>9} {'margin':>10}")
    for row in table.rows:
        print(f"{row.snr_db:5.0f} {row.scheme:>6} {row.pilot_count:6d} "
              f"{row.sum_rate:9.4f} {row.jam_margin:10.2e}")

print(f"\nCSV and curve files under {out_dir}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 4), sharey=True)
    for ax, strategy in zip(axes, (1, 2)):
        curves = {}
        with open(os.path.join(out_dir, f"strategy{strategy}.csv")) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                rec = dict(zip(header, line.strip().split(",")))
                key = (rec["scheme"], int(rec["pilot_count"]))
                curves.setdefault(key, []).append(
                    (float(rec["snr_db"]), float(rec["sum_rate"])))
        for (scheme, pc), pts in sorted(curves.items()):
            pts.sort()
            ax.plot(*zip(*pts), marker="o",
                    linestyle="-" if scheme == "RSMA" else "--",
                    label=f"{scheme}, {pc} pilots")
        ax.set_title(f"strategy {strategy}")
        ax.set_xlabel("SNR (dB)")
        ax.grid(alpha=0.3)
        ax.legend(fontsize=8)
    axes[0].set_ylabel("sum rate (bits/subcarrier)")
    fig.tight_layout()
    fig.savefig(os.path.join(out_dir, "sweep.png"), dpi=120)
    print("figure written to", os.path.join(out_dir, "sweep.png"))
except ImportError:
    print("matplotlib not installed; skipping the figure")
