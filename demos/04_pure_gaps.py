"""Pure gaps at pairs and triples of the distinguished points.

A tuple is pure when the Riemann-Roch dimension stays flat as every
coordinate drops by one.  Counts are closed form: (g-1)g/3 pairs and
(g-1)g(2g-1)/30 triples.
"""

from tripoint import (builtin_curves, pure_gap_count_pair,
                      pure_gap_count_triple, pure_gap_oracle, pure_gaps,
                      pure_gaps_pair_via_homma_kim)

for n in (3, 4, 5, 6):
    pairs = pure_gaps(n, 2)
    triples = pure_gaps(n, 3)
    print(f"n={n}: {len(pairs)} pure pairs (formula {pure_gap_count_pair(n)}),"
          f" {len(triples)} pure triples "
          f"(formula {pure_gap_count_triple(n)})")

print("\nn=4 pure pairs with their parameters:")
for rec in pure_gaps(4, 2):
    p = rec.params
    print(f"  {rec.tuple_}  (i={p['i']}, j={p['j']}, r={p['r']}, s={p['s']})"
          f"  dim {rec.predicted_dimension}")

# a second, independent description: inversions of the Kim permutation
same = pure_gaps_pair_via_homma_kim(4) == [r.tuple_ for r in pure_gaps(4, 2)]
print(f"\ninversion description agrees at n=4: {same}")

# and the dimension oracle agrees tuple by tuple
c16 = builtin_curves()["q16-n4"]
confirmed = sum(pure_gap_oracle(c16, rec.tuple_)
                for rec in pure_gaps(4, 2))
print(f"oracle confirms {confirmed}/10 pure pairs on q16-n4")

confirmed3 = sum(pure_gap_oracle(c16, rec.tuple_)
                 for rec in pure_gaps(4, 3))
print(f"oracle confirms {confirmed3}/11 pure triples on q16-n4")
