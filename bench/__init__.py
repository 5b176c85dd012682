"""The repository's benchmark: five workloads, end-to-end metrics and an
outside-in per-layer trace.  ``bench/README.md`` is the manual."""

from . import mc, net, sim

#: workload -> the module of this package that runs it
KINDS = {
    "mc_intact": mc,
    "mc_hunt_r2": mc,
    "sim_fig16_chaos": sim,
    "net_put": net,
    "net_read90": net,
}
