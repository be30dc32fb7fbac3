"""Constant fields for the tests."""

import numpy as np

from ajclab import torusfield as tf


def constant_twoform(grid, six):
    """The 2-form field on ``grid`` whose six components are ``six`` at
    every node."""
    return tf.TwoFormField(grid, np.broadcast_to(np.asarray(six, float), grid.shape + (6,)))
