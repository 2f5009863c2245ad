"""The dict fill: the oracle for ``FlowStore.recompute``.

This is the textbook progressive filling the simulator ran before it
filled from the store's dense incidence.  It keys flows and links by any
hashable and keeps a set of flows per link.  Both of the store's fills
(the list fill and the vectorized fill) must give exactly the same rates,
bit for bit, and ``FlowStore.utilization`` must give exactly what
:func:`link_utilization` gives, in the same key order.
"""

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.simulator.flowstate import UNCONSTRAINED_RATE
from repro.topology.routing import Link


def flow_sort_key(flow_id: Hashable) -> Tuple[str, Hashable]:
    """Deterministic, type-stable sort key for flow ids.

    Flow ids are ints in the simulator but any Hashable in the library
    API; keying by ``(type name, value)`` keeps same-type ids in natural
    order while never comparing values of different types.
    """
    return (type(flow_id).__name__, flow_id)


def max_min_fair_rates(
    flow_paths: Mapping[Hashable, Sequence[Link]],
    link_capacities: Mapping[Link, float],
) -> Dict[Hashable, float]:
    """Compute max-min fair rates via progressive filling.

    Args:
        flow_paths: for each flow id, the links its path traverses.  Flows
            with an empty link list (e.g. same-host transfers) are assigned
            infinite capacity upstream; here they get a sentinel large rate.
        link_capacities: capacity per link in bits/second.

    Returns:
        bits/second for every flow id.

    Raises:
        KeyError: when a path uses a link with no declared capacity.
    """
    rates: Dict[Hashable, float] = {}
    active: Dict[Hashable, List[Link]] = {}
    flows_on_link: Dict[Link, set] = {}
    for flow_id, path in flow_paths.items():
        links = list(path)
        if not links:
            rates[flow_id] = UNCONSTRAINED_RATE
            continue
        active[flow_id] = links
        for link in links:
            if link not in link_capacities:
                raise KeyError(f"flow {flow_id!r} uses unknown link {link}")
            flows_on_link.setdefault(link, set()).add(flow_id)

    remaining: Dict[Link, float] = {
        link: link_capacities[link] for link in flows_on_link
    }

    # Progressive filling: repeatedly find the bottleneck link (smallest
    # fair share), freeze its flows at that share, subtract, repeat.
    while active:
        bottleneck_share = None
        bottleneck_link = None
        for link, flows in flows_on_link.items():
            if not flows:
                continue
            share = remaining[link] / len(flows)
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            break
        # Sort the frozen set: iterating it directly would visit flows in
        # hash order, which for str ids varies with PYTHONHASHSEED.  Every
        # frozen flow subtracts the *same* bottleneck_share, so the order
        # cannot change any float result — but it does fix the insertion
        # order of ``rates``, keeping downstream iteration deterministic
        # across processes.
        frozen = sorted(flows_on_link[bottleneck_link], key=flow_sort_key)
        for flow_id in frozen:
            rates[flow_id] = max(0.0, bottleneck_share)
            for link in active[flow_id]:
                flows_on_link[link].discard(flow_id)
                remaining[link] -= bottleneck_share
            del active[flow_id]
        flows_on_link = {
            link: flows for link, flows in flows_on_link.items() if flows
        }
    return rates


def link_utilization(
    flow_paths: Mapping[Hashable, Sequence[Link]],
    rates: Mapping[Hashable, float],
    link_capacities: Mapping[Link, float],
) -> Dict[Link, float]:
    """Utilization in [0, ~1] per link under the given rates."""
    load: Dict[Link, float] = {}
    for flow_id, path in flow_paths.items():
        rate = rates.get(flow_id, 0.0)
        for link in path:
            load[link] = load.get(link, 0.0) + rate
    return {
        link: load[link] / link_capacities[link]
        for link in load
        if link_capacities.get(link, 0.0) > 0
    }


def rates_by_fill(store) -> Dict[int, float]:
    """``store.recompute()`` once with each fill forced; the rates per flow id.

    Runs the list fill and then the vectorized fill on the same store and
    asserts they agree bit for bit before returning the rates (in
    admission order).
    """
    from repro.simulator import flowstate

    saved = flowstate.LIST_FILL_MAX_PAIRS
    filled = []
    try:
        for threshold in (1 << 62, 0):
            flowstate.LIST_FILL_MAX_PAIRS = threshold
            store.recompute()
            filled.append(
                {
                    flow_id: float(store.rate[store.row(flow_id)])
                    for flow_id in store.flow_ids()
                }
            )
    finally:
        flowstate.LIST_FILL_MAX_PAIRS = saved
    listed, vectorized = filled
    assert rate_bits(listed) == rate_bits(vectorized)
    return listed


def rate_bits(rates: Mapping[Hashable, float]) -> List[Tuple[Hashable, str]]:
    """Rates as ``(flow id, float.hex())`` pairs: exact, and order-aware."""
    return [(flow_id, float(rate).hex()) for flow_id, rate in rates.items()]
