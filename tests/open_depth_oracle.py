"""The per-pattern open regression depth: one full cell pass per perturbed pattern.

This is the route `depth._open_depth` took before it grouped the direction
cells by their signs on the incident hyperplanes. It finds the incident
normals' circuits whenever they may exist, and then minimises the open
count over every direction cell once for each new perturbed pattern
(`depth._new_perturbed_cells`), keeping the first strictly deepest one.
The tests hold the grouped pass to its values, rules and witnesses.
"""

from arrdepth import linalg
from arrdepth.depth import DepthCertificate, _min_count, _new_perturbed_cells


def per_pattern_open_depth(arr, pos, neg):
    """RD' with its certificate at the residual sign masks (pos, neg) of a nonempty arrangement."""
    zero = ((1 << len(arr)) - 1) & ~(pos | neg)
    rows = arr.int_rows
    m = zero.bit_count()
    if m > 2 or (m == 2 and rows[(zero & -zero).bit_length() - 1][0] == rows[zero.bit_length() - 1][0]):
        circuits = linalg.signed_circuits([a for a, _ in rows], zero)
    else:
        circuits = ()
    best = best_u = None
    for plus in _new_perturbed_cells(circuits, zero) if circuits else ():
        val, u = _min_count(arr, pos | plus, neg | (zero & ~plus), "open")
        if best is None or val > best:
            best, best_u = val, u
    if best is None:
        best, best_u = _min_count(arr, pos, neg, "open")
        return best, DepthCertificate(best_u, best, "open")
    return best, DepthCertificate(best_u, best, "open-perturbed")
