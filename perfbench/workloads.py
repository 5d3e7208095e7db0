"""Workload definitions: a seed draws the physical parameters, sizes are fixed.

Each workload is an ordered list of ops. One op is one ``spinbath run`` on a
generated config file. The seed draws the couplings ``k_a``, ``k_b``, the
exchange ``j`` and the state parameter ``r`` from fixed ranges; ``n_bath``,
``samples`` and ``t_max`` are fixed per op, so the cost of a workload does
not depend on the seed.
"""

from __future__ import annotations

import random

# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = ("figures", "large-bath", "oracle")

DEFAULT_SEED = 0


def _draw(seed: int):
    rng = random.Random(seed)

    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 6)

    return u


def build(workload: str, seed: int) -> list[tuple[str, dict]]:
    """Ordered (op name, config fields) pairs for a workload and seed.

    Every config states ``samples``, so the expected CSV row count is known
    without consulting the program's defaults.
    """
    u = _draw(seed)
    if workload == "figures":
        k = u(0.8, 1.2)  # equal couplings: fig1-fig4, separate, common-symmetric
        ka, kb = u(1.1, 1.3), u(0.6, 0.9)  # unequal couplings
        r = u(0.2, 0.8)
        narrow = dict(n_bath=100, bath="gaussian-narrow")
        return [
            ("fig1", dict(scenario="fig1", **narrow, k_a=k, k_b=k, samples=600)),
            ("fig2", dict(scenario="fig2", **narrow, k_a=k, k_b=k, j=u(150.0, 250.0), samples=12000)),
            ("fig3", dict(scenario="fig3", **narrow, k_a=k, k_b=k, j=u(3.0, 7.0), samples=600)),
            ("fig4", dict(scenario="fig4", **narrow, k_a=k, k_b=k, j=u(3.0, 7.0), samples=600)),
            ("fig5", dict(scenario="fig5", **narrow, k_a=ka, k_b=kb, j=u(15.0, 25.0), samples=800)),
            ("fig6", dict(scenario="fig6", samples=201)),
            ("optimize", dict(scenario="optimize", k_a=ka, k_b=kb, samples=201)),
            ("separate", dict(scenario="separate", **narrow, k_a=k, k_b=k, j=0.0,
                              state=f"r_state:{r}", samples=500)),
            ("common-symmetric", dict(scenario="common-symmetric", **narrow, k_a=k, k_b=k,
                                      j=u(2.0, 10.0), state="up_down", samples=500)),
            ("common-asymmetric", dict(scenario="common-asymmetric", **narrow, k_a=ka, k_b=kb,
                                       j=u(10.0, 30.0), state=f"r_state:{r}", samples=500)),
        ]
    if workload == "large-bath":
        k = u(0.8, 1.2)
        ka, kb = u(1.1, 1.3), u(0.6, 0.9)
        r = u(0.2, 0.8)
        return [
            # cold CG tables up to I=100, then reused by the symmetric map
            ("common-asymmetric-n200", dict(scenario="common-asymmetric", n_bath=200,
                                            bath="gaussian-narrow", k_a=ka, k_b=kb,
                                            j=u(10.0, 30.0), state=f"r_state:{r}", samples=200)),
            ("common-symmetric-n200", dict(scenario="common-symmetric", n_bath=200,
                                           bath="gaussian-narrow", k_a=k, k_b=k,
                                           j=u(2.0, 10.0), state="up_down", samples=200)),
            ("separate-n1000-equal", dict(scenario="separate", n_bath=1000, bath="gaussian-narrow",
                                          k_a=k, k_b=k, j=0.0, state=f"r_state:{r}", samples=200)),
            ("separate-n1000-unequal", dict(scenario="separate", n_bath=1000, bath="gaussian-narrow",
                                            k_a=ka, k_b=kb, j=0.0, state=f"r_state:{r}", samples=200)),
        ]
    if workload == "oracle":
        ka, kb = u(0.8, 1.2), u(0.3, 0.6)
        r = u(0.2, 0.8)
        return [
            ("oracle-common-n8", dict(scenario="oracle-compare", mode="common", n_bath=8,
                                      bath="exact", k_a=ka, k_b=kb, j=u(0.5, 2.0),
                                      state=f"r_state:{r}", t_max=5.0, samples=20)),
            ("oracle-separate-n6", dict(scenario="oracle-compare", mode="separate", n_bath=6,
                                        bath="exact", k_a=ka, k_b=kb, j=0.0,
                                        state=f"r_state:{r}", t_max=5.0, samples=20)),
            ("dense-n24", dict(scenario="common-asymmetric", n_bath=24, bath="exact",
                               k_a=ka, k_b=kb, j=u(5.0, 30.0), state="bell_t1",
                               t_max=10.0, samples=500)),
        ]
    raise KeyError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def config_text(fields: dict, output: str) -> str:
    lines = [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
             for key, value in fields.items()]
    lines.append(f"output = {output}")
    return "\n".join(lines) + "\n"
