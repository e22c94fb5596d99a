#!/usr/bin/env python3
"""The three standalone identities behind the closed forms, demonstrated.

1. Complement identity: ties f(lam, complement of G) to f(n-2-lam, G).
2. Line-graph identity: f of the line graph is a shifted copy of f.
3. Two-variable eigenvalue lemma: the spectrum of P(Q, J) for regular G.
4. Q-cospectral mates: two such graphs that are not isomorphic have equal
   brute-force polynomials for every transformation.
"""

from itertools import combinations

from xyzspectra import (
    BiPoly,
    Graph,
    charpoly,
    check_complement_lemma,
    check_eigen_lemma,
    check_line_graph_relation,
    complement,
    complete_graph,
    cycle_graph,
    line_graph,
    list_cases,
    petersen_graph,
    regularity,
    signless_laplacian,
    xyz_transform,
)

print("1. Complement identity")
for name, g in [("K4", complete_graph(4)), ("C5", cycle_graph(5)), ("petersen", petersen_graph())]:
    fc = charpoly(signless_laplacian(complement(g)))
    ok = check_complement_lemma(g)
    print(f"  {name}: complement polynomial {fc.pretty('lam')}")
    print(f"        identity holds exactly: {ok}")
print()

print("2. Line-graph identity")
for name, g in [("C6", cycle_graph(6)), ("K4", complete_graph(4)), ("petersen", petersen_graph())]:
    fl = charpoly(signless_laplacian(line_graph(g)))
    ok = check_line_graph_relation(g)
    print(f"  {name}: line graph on {g.m} vertices, polynomial degree {fl.degree}")
    print(f"        identity holds exactly: {ok}")
print()

print("3. Eigenvalue lemma for P(Q, J)")
x, y = BiPoly.u(), BiPoly.v()
shapes = {"x": x, "y": y, "x + y": x + y, "x*y": x * y, "x^2 + y": x * x + y}
for name, g in [("K3", complete_graph(3)), ("C4", cycle_graph(4))]:
    verdicts = {label: check_eigen_lemma(g, p) for label, p in shapes.items()}
    summary = ", ".join(f"{label}: {ok}" for label, ok in verdicts.items())
    print(f"  {name}: {summary}")
print()

print("4. Q-cospectral mates: the Shrikhande graph and the rook graph K4xK4")


def cayley_z4z4(gens):
    """Cayley graph of Z4 x Z4; vertex (a, b) is 4a + b."""
    edges = {tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
             for a in range(4) for b in range(4) for da, db in gens}
    return Graph(16, sorted(edges))


mates = {
    "Shrikhande": cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]),
    "K4xK4": cayley_z4z4([(k, 0) for k in (1, 2, 3)] + [(0, k) for k in (1, 2, 3)]),
}
for name, g in mates.items():
    edges = {frozenset(e) for e in g.edges}
    k4 = sum(all(frozenset(p) in edges for p in combinations(quad, 2))
             for quad in combinations(range(g.n), 4))
    print(f"  {name}: {regularity(g)}-regular on {g.n} vertices, {k4} K4 subgraphs")
a, b = mates.values()
qa, qb = (charpoly(signless_laplacian(g)) for g in (a, b))
print(f"  Q-cospectral: {qa == qb}")
same = sum(charpoly(signless_laplacian(xyz_transform(a, c)))
           == charpoly(signless_laplacian(xyz_transform(b, c))) for c in list_cases())
print(f"  transforms with equal brute-force polynomials: {same}/64")
