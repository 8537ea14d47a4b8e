"""Attach a unit, read off the shifted trace forms, then remove it again.

Run: python3 demos/unitalization_roundtrip.py
"""
from fractions import Fraction
import itertools
import random

import numpy as np

from tracealg.core import (MetrizedAlgebra, deunitalization, einstein_fit,
                           intrinsic_unitalization, unitalization)
from tracealg.linalg import inv, max_abs

F = Fraction
rng = random.Random(0)
n = 3

# random invariant metrized algebra from a symmetric cubic + invertible gram
C = np.zeros((n, n, n), dtype=object) + F(0)
for i in range(n):
    for j in range(i + 1):
        for k in range(j + 1):
            v = F(rng.randint(-3, 3), rng.randint(1, 3))
            for p in set(itertools.permutations((i, j, k))):
                C[p] = v
G = np.array([[F(2), F(1), F(0)], [F(1), F(2), F(1)], [F(0), F(1), F(2)]],
             dtype=object)
m = np.einsum("ijl,kl->ijk", C, inv(G))
A = MetrizedAlgebra(m, G, "commutative")

U = unitalization(A)
print("dim %d -> %d, unit found: %s" % (A.dim, U.dim, U.find_unit()))
ricA = np.asarray(A.ricci_form().gram)
ricU = np.asarray(U.ricci_form().gram)
assert max_abs(ricU[:n, :n] - (ricA + (n - 1) * G)) == 0
print("ric shift by (n-1) * gram verified exactly")

D = deunitalization(U)
assert max_abs(np.asarray(D.structure) - np.asarray(A.structure)) == 0
assert max_abs(np.asarray(D.gram) - np.asarray(A.gram)) == 0
print("deunitalization returns the original algebra exactly")

I = intrinsic_unitalization(A)
assert max_abs(np.asarray(I.ricci_form().gram)) == 0
print("intrinsic unitalization is Ricci-flat")
