"""Learn a differential inclusion for the unicycle from 15 samples.

The script excites the system with a short random trajectory, builds the
knowledge base, then continues flying with a smooth test input while checking
that the true state derivative stays inside the learned interval envelope
f(x) + G(x) u at every point.  Saves a plot when matplotlib is available.
"""

import math

import numpy as np

from datareach import (
    G_over,
    advance,
    build_knowledge,
    excite,
    f_over,
    imat_vec,
    unicycle,
)

SEED = 2
T_END = 1.5  # end of the sampled trajectory
HORIZON = 2.5


def main():
    sysu = unicycle()
    samples = excite(sysu, 15, seed=SEED, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
    kb = build_knowledge(samples, sysu.lip, sysu.side)
    x = advance(sysu, samples[-1].x, samples[-1].u, 0.1)

    h = HORIZON / 400
    rows = []
    worst_margin = math.inf
    for k in range(400):
        t = T_END + k * h
        u = np.array([1.0, math.cos(6.0 * (t - T_END))])
        truth = sysu.h_true(x, u)
        enc = f_over(x, kb) + imat_vec(G_over(x, kb), u)
        margin = min(
            float(np.min(truth - enc.lo)), float(np.min(enc.hi - truth))
        )
        worst_margin = min(worst_margin, margin)
        rows.append((t, enc.lo.copy(), enc.hi.copy(), truth))
        x = advance(sysu, x, u, h, 1)

    contained = worst_margin >= 0.0
    print(f"containment of the true derivative: {'100%' if contained else 'VIOLATED'}")
    print(f"smallest margin to an envelope face: {worst_margin:.3e}")
    widths = np.array([hi - lo for _, lo, hi, _ in rows])
    print("mean envelope widths per component:", np.round(widths.mean(axis=0), 4))

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    ts = [r[0] for r in rows]
    lo = np.array([r[1][0] for r in rows])
    hi = np.array([r[2][0] for r in rows])
    tr = np.array([r[3][0] for r in rows])
    plt.figure(figsize=(8, 3))
    plt.fill_between(ts, lo, hi, alpha=0.5, color="seagreen", label="learned envelope")
    plt.plot(ts, tr, "r", lw=1, label="true derivative")
    plt.xlabel("time (s)")
    plt.ylabel("x-velocity")
    plt.legend()
    plt.tight_layout()
    plt.savefig("demo_differential_inclusion.png", dpi=120)
    print("wrote demo_differential_inclusion.png")


if __name__ == "__main__":
    main()
