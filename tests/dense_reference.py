"""Reference implementations over every point, for differential tests.

``dense_nearest_conjugator`` builds the nearest conjugator as a one-line
image of all ``p.degree`` points: it scans both operands for their
fixpoints to find where each chain of the matching starts and ends, and
sends each end back to its own start.  The package reads the same
conjugator from the matching's rows alone (``perm._nearest_conjugator``);
the tests hold the two equal.
"""

from revpal.perm import Permutation


def dense_nearest_conjugator(p, q, rows) -> Permutation:
    """``find_conjugator`` for two involutions whose pairs ``rows`` matched.

    ``rows`` are ``match_pairs``' rows for the pairs of ``p`` onto those of
    ``q``.
    """
    pi, qi = p.image, q.image
    image = list(range(p.degree))
    for a, b, c, d in rows:
        image[a], image[b] = c, d
    # A chain starts at a fixpoint of p that q moves and runs through the
    # points q moves to a fixpoint of q, which closes it onto its start.
    for start in range(p.degree):
        if pi[start] == start != qi[start]:
            end = image[start]
            while qi[end] != end:
                end = image[end]
            image[end] = start
    return Permutation(image)
