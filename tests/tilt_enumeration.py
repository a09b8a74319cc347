"""Exact tilt moments by brute-force enumeration, for tests to compare the
library's closed forms against: every point of the family weighted by
exp(log_weights), with no tanh law or softmax shortcut."""

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
