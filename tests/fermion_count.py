"""Exact counts of free-fermion accessible sets, from the Majorana graph alone.

Under the Jordan-Wigner map, with 1-based sites, the Majoranas are
gamma_{2k-1} = Z_1 ... Z_{k-1} X_k and gamma_{2k} = Z_1 ... Z_{k-1} Y_k, and
every Pauli string is, up to phase, one monomial gamma_S over a subset S of
1..2N.  A quadratic string gamma_a gamma_b anticommutes with gamma_S exactly
when one of a, b lies in S, and the bracket is then a multiple of
gamma_{S ^ {a, b}}: it moves one token of S along the edge {a, b}.

So with the Hamiltonian's strings as the edges of a graph on the 2N
Majoranas, a seed S reaches every S' with as many tokens as S in each
component c (unlabeled tokens on a connected graph reach every placement;
Kornhauser, Miller & Spirakis, FOCS 1984).  With n_c the size of c, E_c
its edges and s_c = |S & c|:

- members: the product over c of C(n_c, s_c), summed over the seeds'
  distinct vectors (s_c);
- edges: the sum over c of |E_c| C(n_c - 2, s_c - 1) times the product of
  C(n_c', s_c') over the other components c';
- gamma_S ends at site ceil(max S / 2), so the members whose highest site
  is at most k are counted as above with only the Majoranas up to 2k.

Nothing here goes through the package; strings are read and made from
their x and z masks (site k at bit k - 1).
"""

from math import comb

from pauliaccess import PauliString


def _comb(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def majorana_masks(a: int) -> tuple[int, int]:
    """The (x, z) masks of gamma_a: X or Y at site ceil(a / 2), Z below it."""
    k = (a + 1) // 2
    below = (1 << (k - 1)) - 1
    return 1 << (k - 1), below | (1 << (k - 1) if a % 2 == 0 else 0)


def subset_string(subset, n_qubits: int) -> PauliString:
    """The phase-free string of the monomial over a set of Majoranas."""
    x = z = 0
    for a in subset:
        mx, mz = majorana_masks(a)
        x, z = x ^ mx, z ^ mz
    return PauliString(n_qubits, x, z)


def majorana_subset(s: PauliString) -> frozenset[int]:
    """The Majoranas of a string's monomial, by the Jordan-Wigner walk.

    Site k holds gamma_{2k} when z_k differs from the parity of x above k,
    and gamma_{2k-1} when x_k differs from that.
    """
    above = s.x_mask >> 1  # bit k - 1: the parity of x over sites above k
    shift = 1
    while shift < s.n_qubits:
        above ^= above >> shift
        shift *= 2
    even = s.z_mask ^ above
    odd = s.x_mask ^ even
    return frozenset(
        [2 * k + 1 for k in range(s.n_qubits) if odd >> k & 1]
        + [2 * k + 2 for k in range(s.n_qubits) if even >> k & 1]
    )


class MajoranaGraph:
    """The graph on Majoranas 1..2N whose edges are a Hamiltonian's pairs."""

    def __init__(self, n_qubits: int, pairs):
        self.n_qubits = n_qubits
        self.pairs = [tuple(p) for p in pairs]
        root = list(range(2 * n_qubits + 1))

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        for a, b in self.pairs:
            root[find(a)] = find(b)
        #: component of each Majorana, by its root
        self.component = [find(a) for a in range(2 * n_qubits + 1)]

    def vectors(self, seeds) -> set[tuple[tuple[int, int], ...]]:
        """The seeds' distinct token vectors, as sorted (component, s_c)
        pairs over the components that hold a token."""
        out = set()
        for subset in seeds:
            tokens = {}
            for a in subset:
                c = self.component[a]
                tokens[c] = tokens.get(c, 0) + 1
            out.add(tuple(sorted(tokens.items())))
        return out

    def _sizes(self, top: int) -> dict[int, int]:
        """Majoranas up to ``top`` in each component."""
        sizes = {}
        for a in range(1, top + 1):
            c = self.component[a]
            sizes[c] = sizes.get(c, 0) + 1
        return sizes

    def _placements(self, vector, top: int) -> int:
        sizes = self._sizes(top)
        count = 1
        for c, s in vector:
            count *= _comb(sizes.get(c, 0), s)
        return count

    def member_count(self, seeds) -> int:
        return sum(self._placements(v, 2 * self.n_qubits) for v in self.vectors(seeds))

    def edge_count(self, seeds, pairs=None) -> int:
        """Access-graph edges labeled by ``pairs``, all the Hamiltonian's by
        default; the components stay those of every pair."""
        sizes = self._sizes(2 * self.n_qubits)
        edges = {}
        for a, _ in self.pairs if pairs is None else pairs:
            edges[self.component[a]] = edges.get(self.component[a], 0) + 1
        total = 0
        for vector in self.vectors(seeds):
            tokens = dict(vector)
            rest = self._placements(vector, 2 * self.n_qubits)
            # a component without tokens has no bracket to move one
            for c, s in tokens.items():
                others = rest // _comb(sizes[c], s)
                total += edges.get(c, 0) * _comb(sizes[c] - 2, s - 1) * others
        return total

    def block_sizes(self, seeds) -> dict[int, int]:
        """Members per highest site k, for each k that has any."""
        out = {}
        for vector in self.vectors(seeds):
            below = 0
            for k in range(1, self.n_qubits + 1):
                upto = self._placements(vector, 2 * k)
                if upto > below:
                    out[k] = out.get(k, 0) + upto - below
                below = upto
        return out
