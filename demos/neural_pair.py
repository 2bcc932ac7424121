"""A two-neuron Cohen-Grossberg network with saturating activations.

The amplification a_i and decay b_i are nonlinear, the coupling runs
through bounded activations, and the resulting gains are saturating
rather than class K-infinity.  The rows add the input after their
wrapper, and the certificate's budget map leaves each row half of its
path margin.  The script designs the gains, certifies, and then lets the
unforced network relax from random initial conditions to show the
contraction the certificate promises.
"""

import numpy as np

from smallgain.compose import certify
from smallgain.sgc import falsify_sgc
from smallgain.simulate import DecreaseSpec, cg_demo, check_decrease, integrate


def main():
    model, design = cg_demo(coupling=0.2)
    print("internal gain 1<-2:", design.net.gamma[0][1])
    print("external gain:     ", design.net.gamma_u[0])
    fal = falsify_sgc(design.net, seed=1)
    print("falsification:     ", fal.status, "(no witness found)")

    cl = certify(design.net, design.specs)
    print(f"certificate composed ({cl.route} route), "
          "which settles what the falsifier could not")

    dec = check_decrease(model, cl, DecreaseSpec(samples=2000))
    print("decrease spot check:", dec.summary())

    rng = np.random.default_rng(7)
    print("\nunforced relaxation, T = 20:")
    for k in range(5):
        x0 = rng.standard_normal(2) * 3.0
        traj = integrate(model, x0, T=20.0, dt=1e-3, certificate=cl)
        ratio = np.linalg.norm(traj.x[-1]) / np.linalg.norm(traj.x[0])
        drift = float(np.max(np.diff(traj.v)))
        print(f"  run {k}: |x(T)|/|x0| = {ratio:.2e}, "
              f"max per-step V drift = {drift:.2e}")


if __name__ == "__main__":
    main()
