"""Max-type aggregation: the cycle condition is the whole story.

For networks whose rows take the maximum of their incoming gains, the
small-gain condition reduces to every cycle of gain compositions lying
strictly below the identity.  Two copies of a two-node loop make the
point: slopes 0.5 certify, slopes 2.0 fail and the falsifier produces a
state vector the operator pushes outward.  Gains are written in the same
expression grammar the CLI configs use.
"""

import io

import numpy as np

from smallgain.gains import GainNetwork, MaxAgg, Zero, eval_operator
from smallgain.parser import parse_gain
from smallgain.paths import export_path_csv, path_max
from smallgain.sgc import check_cycle_condition, falsify_sgc


def loop(expr):
    g = parse_gain(expr)
    z = Zero()
    return GainNetwork(2, ((z, g), (g, z)), (z, z), (MaxAgg(), MaxAgg()))


def main():
    good = loop("0.5*s")
    bad = loop("2*s")

    verdicts = {}
    for name, net in [("contractive", good), ("expansive", bad)]:
        v = verdicts[name] = check_cycle_condition(net)
        print(f"{name} loop: {v.status}")
        if v.cycle is not None:
            print(f"  violating cycle (0-based): {v.cycle}")

    fal = falsify_sgc(bad, seed=3)
    s = np.asarray(fal.witness)
    print(f"falsifier witness s = {s}, Gamma(s) = {eval_operator(bad, s[None, :])[0]}")

    # the closure path is built on the cycle criterion's hold
    sigma = path_max(good, verdicts["contractive"])
    print("\npath for the contractive loop:")
    buf = io.StringIO()
    export_path_csv(good, sigma, buf, radii=np.geomspace(0.1, 10.0, 4))
    for line in buf.getvalue().splitlines()[:5]:
        print(" ", line)


if __name__ == "__main__":
    main()
