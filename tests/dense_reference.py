"""Reference implementations over every point, for differential tests.

``dense_nearest_conjugator`` builds the nearest conjugator as a one-line
image of all ``p.degree`` points, with a fixpoint scan of both operands.
The package reads the same conjugator from the pairs' endpoints alone
(``perm._nearest_conjugator``); the tests hold the two equal.
"""

from revpal.perm import Permutation, match_pairs


def dense_nearest_conjugator(p, q, rows) -> Permutation:
    """``find_conjugator`` for two involutions whose pairs ``rows`` matched.

    ``rows`` are ``match_pairs``' rows for the pairs of ``p`` onto those of
    ``q``.
    """
    lines = (p.degree - 1).bit_length()
    pi, qi = p.image, q.image
    image = list(range(p.degree))
    heads = set()
    for a, b, c, d in rows:
        image[a], image[b] = c, d
        # A step h -> x from a fixpoint of p to a fixpoint of q closes into
        # the 2-cycle (h x), whose second step the flank gets for free.
        for h, x in ((a, c), (b, d)):
            if pi[h] == h and qi[x] == x:
                image[x] = h
                heads.add(h)
    # The other fixpoints of q that p moves go to the nearest free
    # fixpoints of p that q moves, each matched as a pair of one point.
    points = range(p.degree)
    p_points = [(y, y) for y in points if pi[y] == y != qi[y] and y not in heads]
    q_points = [(x, x) for x in points if qi[x] == x == image[x] != pi[x]]
    for a, _, c, _ in match_pairs(p_points, q_points, lines):
        image[a] = c
    return Permutation(image)
