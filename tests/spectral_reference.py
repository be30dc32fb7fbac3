"""Spectral references for the tests: the low-pass of a whole field, and the
frequencies of ``numpy.fft.rfftn``'s real half spectrum, which
``torusfield`` itself no longer lays out."""

import numpy as np

from ajclab import torusfield as tf


def spectral_truncate(field, max_mode):
    """The field with every Fourier mode of an axis frequency above
    ``max_mode`` removed: :func:`ajclab.torusfield.low_pass` on a copy of its
    planes, whose component axes are batch axes."""
    planes = field.planes.copy()
    tf.low_pass(planes, field.grid, max_mode)
    return type(field)(field.grid, tf.sealed(planes))


def half_spectrum_wavenumbers(grid):
    """Integer frequencies of the real half spectrum of ``numpy.fft.rfftn``
    over the grid axes, one broadcastable array per axis: full axes of n
    frequencies on the first three and n/2 + 1 on the last."""
    full = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    half = np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    return [k.reshape([-1 if a == ax else 1 for a in tf.GRID_AXES])
            for ax, k in zip(tf.GRID_AXES, (full, full, full, half))]
