"""Genomes built from per-layer parameter arrays, for tests."""

import numpy as np


def flat_genome(layers):
    """Per-layer unit arrays, or the plain-tanh baseline's (W, b) pairs,
    raveled and concatenated in order: the genome that ``decode`` splits back
    into them."""
    parts = [p for layer in layers for p in (layer if isinstance(layer, tuple) else (layer,))]
    return np.concatenate([np.ravel(p) for p in parts])
