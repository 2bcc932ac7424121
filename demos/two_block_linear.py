"""Two coupled one-dimensional blocks, certified end to end.

Each block is x_i' = -x_i + 0.2*x_j + u_i.  Quadratic block energies
V_i = x_i^2 turn the coupling into square-root gains aggregated by a
squared sum, so the network operator is genuinely nonlinear even though
the dynamics are linear.  The script prints the spectral radius of the
slope matrix, an eigensolver's estimate with the status of the
Collatz-Wielandt bound beside it, and that bound T(w) <= c w of the
conjugate operator T, which proves the small-gain condition at c < 1.
It then builds the path (the operator is linear in t = s^(1/2), so the
path is the straight ray r w^2), composes the network Lyapunov function,
spot checks the decrease inequality, and finally drives the closed loop
with a unit step to watch V settle under its ISS threshold.

Run:  python3 demos/two_block_linear.py [--out trajectory.csv]
"""

import argparse

import numpy as np

from smallgain.compose import certify
from smallgain.paths import validate_path
from smallgain.sgc import check_linear_spectral, nonlinear_perron
from smallgain.simulate import (
    DecreaseSpec,
    InputSignal,
    check_decrease,
    export_trajectory_csv,
    integrate,
    linear_demo,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the step-response trajectory as CSV")
    args = ap.parse_args()

    model, design = linear_demo(delta=0.2)
    print("slope matrix G:")
    print(design.G)
    print(f"internal gain 1<-2: {design.net.gamma[0][1]!r}")
    print(f"external gain:      {design.net.gamma_u[0]!r}")

    v = check_linear_spectral(design.net)
    print(f"\neig estimate:    rho(G) = {v.rho:.6f}  ->  {v.status}")
    c, p, w, _image = nonlinear_perron(design.net)
    print(f"Perron route:    T(w) <= {c:.6f} w at w = {np.round(w, 6)} "
          f"in t = s^(1/{p[0]:g})")

    cl = certify(design.net, design.specs)
    rep = validate_path(design.net, cl.sigma)
    print(f"\n{cl.route} path: min margin {rep.min_margin:.3e} over {len(rep.radii)} radii")
    thr = cl.iss_threshold(1.0)
    print(f"certificate composed; iss_threshold(1) = {thr:.4f}")

    dec = check_decrease(model, cl, DecreaseSpec(samples=2000, u_norms=(0.0, 1.0)))
    print(f"decrease spot check: {dec.summary()}")

    x0 = np.array([20.0, -20.0])
    traj = integrate(model, x0, signal=InputSignal.step([1.0]), T=20.0,
                     dt=1e-3, certificate=cl)
    tail = traj.v[3 * len(traj.v) // 4:]
    print(f"\nstep response from {x0}: V(0) = {traj.v[0]:.1f}, "
          f"tail max V = {tail.max():.4f} (bound {1.1 * thr:.4f})")
    if args.out:
        with open(args.out, "w") as fh:
            export_trajectory_csv(traj, fh)
        print(f"trajectory written to {args.out}")


if __name__ == "__main__":
    main()
