"""An independent per-path model of the coupling, written as plain loops.

germsim simulates coupled pairs only as the rows of arrays
(``coupling.couple_rows``).  This module rebuilds one pair at a time from
the paper's three steps, with Python floats and loops: a running sum of
the stem increments, a backward sweep that reflects the tail after the
last grid visit to the line theta * t / 2, the keep rule
``u <= exp(theta * w(T) - theta^2 * T / 2)``, and a scan for the first
index where stem and branch differ.  It shares only the word stream
(``RngStream``) and the grid times (``TimeGrid.times``) with germsim, so
the tests compare two implementations, not one with itself.
"""

import math

from germsim.paths import TimeGrid
from germsim.rng import RngStream


def coupled_pair(times, horizon, theta, stream, skip_reflection=False):
    """Stem and branch of one pair drawn from ``stream``: ``n_steps`` words
    for the stem increments, then one for the uniform."""
    n_steps = len(times) - 1
    sd = math.sqrt(horizon / n_steps)
    stem = [0.0]
    for z in stream.standard_normal(n_steps).tolist():
        stem.append(stem[-1] + sd * z)
    u = stream.uniform01()
    x = theta * stem[-1] - 0.5 * theta * theta * horizon
    kept = x >= 0 or u <= math.exp(x)
    branch = list(stem)
    if not (kept or skip_reflection):
        k = n_steps
        while k >= 0 and stem[k] - 0.5 * theta * times[k] < 0:
            branch[k] = theta * times[k] - stem[k]
            k -= 1
    return stem, branch


def first_difference(a, b):
    """First index where the two lists differ, ``None`` where they agree."""
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k
    return None


def couple_summary(seed, namespace, theta, horizon, n_steps, n_paths, skip_reflection):
    """Per path of streams ``(seed, namespace | i)``: the fragmentation time
    (inf where stem and branch agree), whether the first difference lies
    past t = 0, whether the pair agreed to the horizon, and the branch
    value at the horizon."""
    times = TimeGrid(horizon, n_steps).times().tolist()
    frag, germ_ok, kept, branch_end = [], [], [], []
    for i in range(n_paths):
        stem, branch = coupled_pair(
            times, horizon, theta, RngStream(seed, namespace | i), skip_reflection
        )
        k = first_difference(stem, branch)
        frag.append(math.inf if k is None else times[k])
        germ_ok.append(k is None or k >= 1)
        kept.append(k is None)
        branch_end.append(branch[-1])
    return frag, germ_ok, kept, branch_end
