"""Test-local oracles of the tilt: exact moments by brute-force enumeration,
for tests to compare the library's closed forms against (every point of the
family weighted by exp(log_weights), with no tanh law or softmax shortcut),
and the v-bit recipe bit by bit in Python integers."""

import math
from fractions import Fraction

import numpy as np

from tiltlab.families import support_batch
from tiltlab.tilt import log_weights, tilt


def brute_mean(family, theta):
    w = np.exp(log_weights(tilt(family, theta)))
    return w @ support_batch(family).densify()


def brute_cov(family, theta):
    w = np.exp(log_weights(tilt(family, theta)))
    mat = support_batch(family).densify()
    centered = mat - w @ mat
    return centered.T @ (centered * w[:, None])


def recipe_bits(rng, p_plus):
    """int8 v-bits for rows of Pr[v = +1] values, drawn the sampler's way
    one bit at a time: a key word from rng, then ceil(d / 4) words per row.
    Bit c of row r is +1 iff the 53-bit U = chunk * 2^37 + low lies below
    ceil(p * 2^53) (exact, by Fraction), with chunk the (c % 4)-th 16-bit
    chunk of the row's word c // 4, low chunk first, and low the top 37
    bits of the first word of Philox(key, counter=r * d + c)."""
    count, d = p_plus.shape
    key = int(rng.bit_generator.random_raw())
    words = rng.bit_generator.random_raw((count, -(-d // 4)))
    v = np.empty((count, d), dtype=np.int8)
    for r in range(count):
        for c in range(d):
            chunk = int(words[r, c // 4]) >> (16 * (c % 4)) & 0xFFFF
            low = np.random.Philox(key=key, counter=r * d + c).random_raw() >> 27
            t = math.ceil(Fraction(float(p_plus[r, c])) * 2 ** 53)
            v[r, c] = 1 if chunk * 2 ** 37 + low < t else -1
    return v
