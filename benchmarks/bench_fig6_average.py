"""Fig. 6 — average slowdown per suite and α (paper §IV-C).

Aggregates Figs. 3-5 (answered from the result store when warm):

- HPCC and HiBench Hadoop: averages below 10 % at both α = 25 % and 50 %;
- HiBench Spark (α = 50 %): the outlier, ≈ 18 % in the paper.
"""

import pytest

from repro.metrics import render_table

from _harness import slowdown_table

WORKLOADS = ("Montage", "BLAST", "dd")
CASES = [
    ("hpcc", 0.25, "HPCC 25%"),
    ("hpcc", 0.50, "HPCC 50%"),
    ("hibench-hadoop", 0.25, "Hadoop 25%"),
    ("hibench-hadoop", 0.50, "Hadoop 50%"),
    ("hibench-spark", 0.50, "Spark 50%"),
]


def collect_averages():
    out = {}
    for suite, alpha, label in CASES:
        data = slowdown_table(suite, alpha)
        benches = list(data["baseline"])
        per_wl = {wl: sum(data["slowdowns"][wl][b] for b in benches)
                  / len(benches) for wl in WORKLOADS}
        per_wl["all"] = sum(per_wl[wl] for wl in WORKLOADS) / len(WORKLOADS)
        out[label] = per_wl
    return out


def test_fig6_average_slowdown(benchmark):
    avgs = benchmark.pedantic(collect_averages, rounds=1, iterations=1)
    rows = [[label] + [f"{avgs[label][wl]:6.2f}%"
                       for wl in (*WORKLOADS, "all")]
            for _s, _a, label in CASES]
    print()
    print(render_table(["suite / alpha", *WORKLOADS, "average"], rows,
                       title="Fig. 6: average slowdown by suite"))

    # HPCC and Hadoop averages below 10 % at both alphas.
    for label in ("HPCC 25%", "HPCC 50%", "Hadoop 25%", "Hadoop 50%"):
        assert avgs[label]["all"] < 10.0, label
    # Spark is the outlier: clearly above the others, bounded below ~25 %.
    spark = avgs["Spark 50%"]["all"]
    hadoop50 = avgs["Hadoop 50%"]["all"]
    assert spark > hadoop50
    assert spark < 25.0
