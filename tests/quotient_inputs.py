"""The inputs the two quotient verdicts are handed, built as the lemma sweep
builds them: the quotient with `partition.quotient` and its spectral radius
with `spectral.quotient_radii`."""

from specmax.partition import quotient
from specmax.spectral import quotient_radii
from specmax.suites import family_quotient_verdicts, quotient_bound_verdicts


def solved_quotient(g, cells):
    """(B, rho(B)) of the partition of g."""
    spec = quotient(g, cells)
    return spec, quotient_radii([spec])[0]


def bound_verdicts(g, cells, pair):
    """`quotient_bound_verdicts` of the partition, given g's Perron pair."""
    spec, rho_b = solved_quotient(g, cells)
    return quotient_bound_verdicts(g, cells, spec, pair, rho_b)


def family_verdicts(g, cells, pair, looped_pair):
    """`family_quotient_verdicts` of the partition, given the Perron pairs of
    g and of g with a loop at every vertex."""
    (base, rho_b), (looped, rho_looped) = solved_quotient(g, cells), solved_quotient(g.add_loops(), cells)
    return family_quotient_verdicts(g, cells, base, looped, pair, looped_pair, rho_b, rho_looped)
