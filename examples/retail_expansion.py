"""Retail expansion with dynamic updates (the paper's §7 future work).

A retail chain keeps a live PRIME-LS answer while the world changes:
candidate sites come and go (leases appear and fall through) and the
customer base shifts (new customers arrive, others churn).  A standing
query on :class:`repro.engine.SubscriptionEngine` maintains exact
influence counts through all of it, so "where should the next shop
go?" is always answerable without recomputation from scratch.

Run with::

    python examples/retail_expansion.py
"""

import numpy as np

from repro import Candidate, MovingObject, PowerLawPF, select_location
from repro.datasets import tiny_demo
from repro.engine import SubscriptionEngine


def updates_of(obj: MovingObject) -> list[tuple[int, float, float]]:
    """A whole customer as one ingest batch of its positions."""
    return [(obj.object_id, x, y) for x, y in obj.positions.tolist()]


def main() -> None:
    world = tiny_demo(seed=11)
    dataset = world.dataset
    pf = PowerLawPF(rho=0.9, lam=1.0)
    tau = 0.6

    rng = np.random.default_rng(5)
    initial_sites, _ = dataset.sample_candidates(25, rng)

    # The window holds the longest check-in history, so every customer
    # keeps all of its positions.
    window = max(obj.n_positions for obj in dataset.objects)
    engine = SubscriptionEngine(window=window, default_pf=pf)
    customers = {obj.object_id: obj for obj in dataset.objects}
    for obj in customers.values():
        engine.ingest_batch(updates_of(obj))

    def agrees_with_batch(sid: int, sites: list[Candidate]) -> tuple:
        """The standing answer, checked against a from-scratch solve."""
        snap = engine.snapshot(sid)
        batch = select_location(
            list(customers.values()), sites, pf=pf, tau=tau
        )
        assert batch.best_influence == snap.best_influence, (
            f"standing query ({snap.best_influence}) != "
            f"batch ({batch.best_influence})"
        )
        return snap.best_candidate, snap.best_influence

    def switch_portfolio(old_sid: int, sites: list[Candidate]) -> int:
        """A portfolio edit: subscribe the new sites, drop the old query."""
        sid = engine.subscribe(sites, tau=tau)
        engine.unsubscribe(old_sid)
        return sid

    sites = list(initial_sites)
    sid = engine.subscribe(sites, tau=tau)
    best, influence = agrees_with_batch(sid, sites)
    print(
        f"initial portfolio: {len(sites)} sites, "
        f"{engine.n_objects} customers"
    )
    print(f"  best site: {best.candidate_id} reaching {influence} customers")

    # A prime corner lease becomes available downtown.
    downtown = world.city.hotspots[0]
    new_site = Candidate(9_001, downtown.x, downtown.y, label="downtown corner")
    sites = sites + [new_site]
    sid = switch_portfolio(sid, sites)
    gained = engine.snapshot(sid).influences[-1]
    best, influence = agrees_with_batch(sid, sites)
    print(
        f"\nnew lease {new_site.label!r} would reach {gained} customers; "
        f"best site is now {best.candidate_id} ({influence} customers)"
    )

    # Two leases fall through.
    sites = sites[2:]
    sid = switch_portfolio(sid, sites)
    best, influence = agrees_with_batch(sid, sites)
    print(
        f"after losing 2 leases: best site {best.candidate_id} "
        f"({influence} customers)"
    )

    # Customer churn: 10 customers leave town, 15 new ones arrive.
    for obj in dataset.objects[:10]:
        engine.forget_object(obj.object_id)
        del customers[obj.object_id]
    agrees_with_batch(sid, sites)
    newcomer_rng = np.random.default_rng(99)
    for k in range(15):
        positions = world.city.sample_points(20, newcomer_rng)
        newcomer = MovingObject(10_000 + k, positions)
        engine.ingest_batch(updates_of(newcomer))
        customers[newcomer.object_id] = newcomer
    best, influence = agrees_with_batch(sid, sites)
    print(
        f"after churn (-10/+15 customers): best site {best.candidate_id} "
        f"({influence} of {engine.n_objects} customers)"
    )
    print("\nthe standing query agreed with a from-scratch batch solve "
          "after every step")


if __name__ == "__main__":
    main()
