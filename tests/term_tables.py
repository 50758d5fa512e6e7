"""Term tables of mode families read one entry per mode."""

import numpy as np

from quasifree import seqmodel


def expanded_table(family, n):
    """``seqmodel._term_table(family, n)`` with an entry for each of modes 1..n: a table that
    ends at a stated tail has its last entry, the tail's term, repeated up to mode n."""
    return tuple(np.concatenate([terms, np.full(n - terms.size, terms[-1])])
                 for terms in seqmodel._term_table(family, n))
