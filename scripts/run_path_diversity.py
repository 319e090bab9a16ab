#!/usr/bin/env python3
"""Path-diversity demo: the four source-parameter variations against
fixtures whose routers hash only the source IP or only the source port.

Expected picture: on the IP-hashing fixture only the vary-ip plans see
many paths; on the port-hashing fixture the roles swap.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowstable import logio
from flowstable.analysis import EmptyPathSetError, PathSet, num_paths
from flowstable.core import AppProtocol
from flowstable.experiments import plan_rq1, run_rq1
from flowstable.prober import SimTransport
from flowstable.simnet import Role, load_topology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def num_nodes(pathset: PathSet) -> int:
    """Size of the union of hops over all groups."""
    if not pathset.groups:
        raise EmptyPathSetError("path set has no groups")
    return len(frozenset().union(*(group.node_set for group in pathset.groups.values())))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--protocol", default="http",
                        choices=[p.value for p in AppProtocol])
    args = parser.parse_args()

    for fixture in ("srcip_hash.topo", "srcport_hash.topo"):
        topology = load_topology((FIXTURES / fixture).read_text())
        (endpoint,) = [n for n in topology.nodes.values() if n.role is Role.ENDPOINT]
        plans = plan_rq1(endpoint.address, AppProtocol(args.protocol), args.seed)
        # Every rq1 run writes a log; this demo keeps only its printout.
        with tempfile.TemporaryDirectory() as directory:
            log = logio.open_run(Path(directory) / "rq1.log", fixture,
                                 seed=args.seed)
            pathsets = run_rq1(plans, SimTransport(topology), log)
        print(f"\n{fixture}  (destination {endpoint.address})")
        print(f"{'variation':>14}  {'paths':>5}  {'nodes':>5}")
        for plan in plans:
            ps = pathsets[plan.variation]
            print(f"{plan.variation.value:>14}  {num_paths(ps):>5}  {num_nodes(ps):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
