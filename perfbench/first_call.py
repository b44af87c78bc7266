"""Set-up probe: import pumplimit in a fresh interpreter and make one first call.

    python3 perfbench/first_call.py WORKLOAD SEED WORKDIR

Prints ``time.monotonic()`` once the first call has returned, as the last
stdout line; the caller subtracts the moment it started this interpreter.
The first call is the workload's entry call on the smallest input: a
one-sample ``pumplimit sweep``, ``pumplimit verify`` of a one-row file the
workload wrote beforehand, or one scalar chain.
"""

import sys
import time


def main(workload: str, seed: str, work: str) -> int:
    import pumplimit
    import pumplimit.cli

    if workload in ("sweep_w1", "sweep_w2"):
        rc = pumplimit.cli.main(["sweep", "--n", "1", "--seed", seed, "--mode", "general",
                                 "--workers", workload[-1], "--out", f"{work}/probe.csv"])
    elif workload == "audit":
        rc = pumplimit.cli.main(["verify", "--in", f"{work}/first.csv"])
    else:
        from scalar import chain

        setting = {"pump_p": 0.6, "t": 0.4, "theta1": 0.7, "theta2": 2.1,
                   "alpha1": 1.0, "alpha2": 5.0, "mu": 0.8, "gamma0": 0.3}
        chain(setting, pumplimit.random_mixed_unitary_channel(1, int(seed)))
        rc = 0
    print(time.monotonic())
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
