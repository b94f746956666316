"""Pieces shared by the workload modules."""

from __future__ import annotations

from typing import Any, NamedTuple


class Request(NamedTuple):
    text: str  # the JSON request exactly as it is sent
    kind: str  # mix category, for the input record and the oracle
    expect: Any  # what the oracle needs to judge the response


def exact_counts(shares, n):
    """Split n requests by shares, rounding so the counts sum to n.

    Exact counts keep the work per run the same for every seed, so seeds
    change the inputs but not the mix."""
    raw = {k: s * n for k, s in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    by_remainder = sorted(raw, key=lambda k: raw[k] - counts[k], reverse=True)
    for k in by_remainder[: n - sum(counts.values())]:
        counts[k] += 1
    return counts


def seeded_order(rng, counts):
    """Every kind repeated by its count, in a seeded order."""
    kinds = [k for k, c in counts.items() for _ in range(c)]
    return [kinds[i] for i in rng.permutation(len(kinds))]
