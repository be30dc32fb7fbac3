"""Fields for the tests: constant ones, and ones built from
components-last nodal values."""

import numpy as np

from ajclab import torusfield as tf


def from_values(cls, grid, values):
    """The field of kind ``cls`` on ``grid`` whose components-last nodal
    values, of shape grid.shape + cls.NCOMP, are ``values``: built from
    their planes, a components-first view that the field copies."""
    k = len(cls.NCOMP)
    return cls(grid, np.moveaxis(np.asarray(values, float), range(4, 4 + k), range(k)))


def constant_twoform(grid, six):
    """The 2-form field on ``grid`` whose six components are ``six`` at
    every node."""
    return from_values(tf.TwoFormField, grid,
                       np.broadcast_to(np.asarray(six, float), grid.shape + (6,)))
