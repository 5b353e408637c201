"""Contention profiles of the policy grid's hot cells.

Profiles the two contended microbenchmarks under the two retention
policies at 8 processors and reports, per cell, the per-lock contention
totals, the critical-path lock ranking and the who-aborts-whom conflict
matrix (:mod:`repro.obs.profile`).  Expected shape: the nack policy
aborts more than timestamp deferral on the same cells (it restarts
where the deferral policy queues), and single-counter concentrates all
contention on one lock while linked-list spreads it.
"""

from repro.harness import parallel
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.spec import SIZE_PARAM, RunSpec
from repro.obs.profile import critical_path

from conftest import bench_json, emit, engine_kwargs, scale

POLICIES = ("timestamp", "nack")
WORKLOADS = ("single-counter", "linked-list")
NUM_CPUS = 8
#: Seeds of the abort-ordering claim.  Seed 0's cells are the profiled
#: table; the two policies' abort counts differ by less than seed-to-seed
#: spread, so one seed's order says nothing on its own.
FAN_SEEDS = 12


def _cells(ops, seeds=1):
    keys, specs = [], []
    for seed in range(seeds):
        for policy in POLICIES:
            for workload in WORKLOADS:
                config = SystemConfig(num_cpus=NUM_CPUS,
                                      scheme=SyncScheme.TLR, seed=seed
                                      ).with_policy(policy)
                keys.append((seed, f"{policy}/{workload}"))
                specs.append(RunSpec(workload=workload, config=config,
                                     workload_args={SIZE_PARAM[workload]:
                                                    ops}))
    return keys, specs


def test_profile_hot_cells(benchmark):
    ops = 96 * scale()
    keys, specs = _cells(ops, FAN_SEEDS)
    outcomes, _ = benchmark.pedantic(
        parallel.execute, args=(specs,), kwargs=engine_kwargs(),
        rounds=1, iterations=1)

    rows = ["cell                        attempts commits aborts "
            "cycles-lost defer-wait hottest-lock"]
    totals, paths, matrices = {}, {}, {}
    fan_aborts: dict[str, list[int]] = {}
    for (seed, key), outcome in zip(keys, outcomes):
        snapshot = outcome.metrics["profile"]
        fan_aborts.setdefault(key, []).append(snapshot["totals"]["aborts"])
        if seed:
            continue
        totals[key] = snapshot["totals"]
        paths[key] = [[lock, cycles]
                      for lock, cycles in critical_path(snapshot)[:3]]
        matrices[key] = snapshot["conflicts"]
        t = snapshot["totals"]
        hottest = paths[key][0][0] if paths[key] else "-"
        rows.append(f"{key:<27} {t['attempts']:>8} {t['commits']:>7} "
                    f"{t['aborts']:>6} {t['cycles_lost']:>11} "
                    f"{t['deferral_cycles']:>10} {hottest}")
    rows.append(f"aborts over seeds 0-{FAN_SEEDS - 1}:")
    rows.extend(f"{key:<27} {sum(counts):>6} {counts}"
                for key, counts in fan_aborts.items())
    emit("profile-hot-cells", "\n".join(rows))

    bench_json("profile", benchmark,
               config={"policies": list(POLICIES),
                       "workloads": list(WORKLOADS),
                       "num_cpus": NUM_CPUS, "ops": ops,
                       "fan_seeds": FAN_SEEDS},
               results={"totals": totals, "critical_path": paths,
                        "conflicts": matrices, "fan_aborts": fan_aborts})
    for key in totals:
        benchmark.extra_info[key] = totals[key]["commit_rate"]

    # The deferral policy queues where the nack policy restarts, so it
    # aborts no more on most seeds -- and every cell actually contends.
    for workload in WORKLOADS:
        pairs = zip(fan_aborts[f"timestamp/{workload}"],
                    fan_aborts[f"nack/{workload}"])
        no_more = sum(ts <= nack for ts, nack in pairs)
        assert 2 * no_more > FAN_SEEDS, (workload, no_more)
    for key in totals:
        assert totals[key]["attempts"] > totals[key]["commits"] > 0, key
