"""Seeded attributed stochastic-block-model graphs in the gaeclust dataset format.

Edges follow a degree-corrected SBM: every node carries a Pareto weight,
a fixed share of the edges (the homophily) joins two members of one
block, and both endpoints of an edge are drawn in proportion to the
weights; every node gets at least one edge. Features are binary bag-of-words rows: each node draws a
Poisson number of words, each from its block's topic with probability
`topic_share` and from a background vocabulary otherwise. Everything is
vectorized, so the PubMed-sized preset builds in well under a second.

The same preset and seed always give the same files, byte for byte:

    python3 benchmarks/gen.py --preset cora --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Preset:
    """Target sizes of one synthetic dataset."""

    name: str
    n_nodes: int
    n_features: int
    n_edges: int
    block_shares: tuple     # relative block sizes, one per cluster
    homophily: float        # share of edges inside a block
    words_per_node: float   # mean word draws per node
    topic_share: float      # chance a word comes from the node's block topic
    topic_size: int         # words in each block topic


# Sizes follow the Planetoid splits (Yang et al., ICML 2016); the block
# shares are the class sizes of those datasets.
PRESETS = {
    "cora": Preset("cora-like", 2708, 1433, 5278,
                   (351, 217, 418, 818, 426, 298, 180),
                   homophily=0.81, words_per_node=21.0, topic_share=0.5,
                   topic_size=120),
    "pubmed": Preset("pubmed-like", 19717, 500, 44324,
                     (4103, 7739, 7875),
                     homophily=0.80, words_per_node=60.0, topic_share=0.5,
                     topic_size=80),
}


def _block_labels(rng, preset: Preset) -> np.ndarray:
    shares = np.asarray(preset.block_shares, dtype=np.float64)
    sizes = np.floor(shares / shares.sum() * preset.n_nodes).astype(np.int64)
    sizes[np.argsort(-shares)[: preset.n_nodes - sizes.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(sizes.size), sizes))


def _unique_pairs(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Canonical (u < v) keys u*n+v without self-loops, in first-seen order."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    keys = lo * n + hi
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def _edges(rng, labels: np.ndarray, preset: Preset) -> np.ndarray:
    n = labels.size
    k = int(labels.max()) + 1
    theta = rng.pareto(2.5, size=n) + 1.0
    n_in = int(round(preset.homophily * preset.n_edges))
    n_out = preset.n_edges - n_in
    members = [np.flatnonzero(labels == c) for c in range(k)]
    mass = np.array([theta[m].sum() for m in members])
    block_p = mass ** 2 / np.sum(mass ** 2)
    node_p = theta / theta.sum()

    # every node first gets one partner, so no node is isolated; the
    # remaining edges are oversampled, deduplicated and trimmed, drawing
    # again in the rare case of a shortfall
    own = rng.random(n) < preset.homophily
    partner = np.empty(n, dtype=np.int64)
    for c in range(k):
        sel = members[c][own[members[c]]]
        partner[sel] = rng.choice(members[c], size=sel.size, p=theta[members[c]] / mass[c])
    cross = np.flatnonzero(~own)
    while cross.size:
        partner[cross] = rng.choice(n, size=cross.size, p=node_p)
        cross = cross[labels[partner[cross]] == labels[cross]]
    nodes = np.arange(n)
    inner = _unique_pairs(nodes[own], partner[own], n)
    outer = _unique_pairs(nodes[~own], partner[~own], n)
    while inner.size < n_in:
        counts = rng.multinomial(2 * n_in, block_p)
        us, vs = [], []
        for c in range(k):
            p = theta[members[c]] / mass[c]
            us.append(rng.choice(members[c], size=counts[c], p=p))
            vs.append(rng.choice(members[c], size=counts[c], p=p))
        inner = _unique_pairs(np.concatenate([inner // n, *us]),
                              np.concatenate([inner % n, *vs]), n)
    while outer.size < n_out:
        u = rng.choice(n, size=4 * n_out, p=node_p)
        v = rng.choice(n, size=4 * n_out, p=node_p)
        diff = labels[u] != labels[v]
        outer = _unique_pairs(np.concatenate([outer // n, u[diff]]),
                              np.concatenate([outer % n, v[diff]]), n)
    keys = np.sort(np.concatenate([inner[:n_in], outer[:n_out]]))
    return np.stack([keys // n, keys % n], axis=1)


def _features(rng, labels: np.ndarray, preset: Preset) -> np.ndarray:
    n, j = labels.size, preset.n_features
    k = int(labels.max()) + 1
    zipf = 1.0 / np.arange(1, j + 1)
    background = rng.permutation(j)
    bg_cdf = np.cumsum(zipf) / zipf.sum()
    topics = np.stack([rng.choice(j, size=preset.topic_size, replace=False)
                       for _ in range(k)])
    topic_w = zipf[: preset.topic_size]
    topic_cdf = np.cumsum(topic_w) / topic_w.sum()

    draws = rng.poisson(preset.words_per_node - 1.0, size=n) + 1
    owner = np.repeat(np.arange(n), draws)
    u = rng.random(owner.size)
    from_topic = rng.random(owner.size) < preset.topic_share
    rank_bg = np.minimum(np.searchsorted(bg_cdf, u), j - 1)
    rank_topic = np.minimum(np.searchsorted(topic_cdf, u), preset.topic_size - 1)
    words = np.where(from_topic, topics[labels[owner], rank_topic], background[rank_bg])
    x = np.zeros((n, j), dtype=np.uint8)
    x[owner, words] = 1
    return x


def generate(preset: Preset, seed: int) -> dict:
    """Labels, sorted (u < v) edge array and binary features of one graph."""
    rng = np.random.default_rng([seed, preset.n_nodes])
    labels = _block_labels(rng, preset)
    edges = _edges(rng, labels, preset)
    features = _features(rng, labels, preset)
    return {"labels": labels, "edges": edges, "features": features,
            "k_clusters": int(labels.max()) + 1, "name": preset.name}


def write_dataset(data: dict, out) -> Path:
    """Write the dataset directory that gaeclust.load_dataset reads."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    n = data["labels"].size
    meta = {"n_nodes": int(n), "k_clusters": data["k_clusters"],
            "dataset_name": data["name"]}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in data["edges"].tolist()))
    (out / "labels.tsv").write_text("".join(f"{c}\n" for c in data["labels"].tolist()))
    # "0 1 0 ... 1\n" per row, built as one byte buffer
    x = data["features"]
    buf = np.full((n, 2 * x.shape[1]), ord(" "), dtype=np.uint8)
    buf[:, 0::2] = x + ord("0")
    buf[:, -1] = ord("\n")
    (out / "features.tsv").write_bytes(buf.tobytes())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="cora")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    data = generate(PRESETS[args.preset], args.seed)
    write_dataset(data, args.out)
    print(f"{args.out}: {data['labels'].size} nodes, {len(data['edges'])} edges, "
          f"{data['features'].shape[1]} features, {data['k_clusters']} clusters")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
