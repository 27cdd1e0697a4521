"""Small group tables shared by the tests."""
import itertools

from twistalg import GroupTable

PERMS = list(itertools.permutations(range(3)))        # identity first
# the symmetric group S_3, a o b at (a, b): the smallest non-abelian group
S3 = GroupTable([[PERMS.index(tuple(a[i] for i in b)) for b in PERMS]
                 for a in PERMS])
