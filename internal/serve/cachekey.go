package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"parcolor"
)

// Cache-key canonicalization. The content address of a request is a
// SHA-256 over a canonical serialization of (graph content, palette mode,
// result-affecting solve options):
//
//   - Explicit edge lists are addressed by the *built* graph's CSR — the
//     Builder sorts adjacency, drops self-loops and deduplicates, so any
//     edge ordering, orientation or duplication of the same simple graph
//     hashes identically. Each undirected edge enters once as (u,v), u<v,
//     in ascending order.
//   - Named-generator specs are addressed by (generator, n, seed): the
//     generators are deterministic functions of their seed, so the spec
//     *is* the content, and hits skip generation as well as solving.
//     A generator spec and its materialized edge list hash differently —
//     cheaper keys were preferred over cross-form unification.
//   - The solver configuration enters as ten values in the order
//     algorithm, seed, seed bits, Nisan PRG, bitwise, bins, mid-degree,
//     low-degree cutoff, degree ranges and degree sharding. A request can
//     set five of them (solveConfig). Nisan, bins and mid-degree are
//     Solver options no request sets; the low-degree cutoff (always auto)
//     and degree-range peeling (always off) are not settable at all. All
//     five are written as fixed bytes, their default values, so that keys
//     stay stable.
//     The server's worker bound never enters: it changes cost, never the
//     coloring.

// keyVersion guards the serialization: bump it whenever the canonical
// form changes so stale keys can never alias new ones.
const keyVersion = "parcolor/serve/v1\n"

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// writeOptions folds the ten keyed solver values into h; the five a
// request cannot set are written as fixed default bytes.
func writeOptions(h hash.Hash, c solveConfig) {
	writeU64(h, uint64(c.alg))
	writeU64(h, c.seed)
	writeU64(h, uint64(c.seedBits))
	writeBool(h, false) // Nisan PRG
	writeBool(h, c.bitwise)
	writeU64(h, 0)      // bins (auto)
	writeU64(h, 0)      // mid-degree (auto)
	writeU64(h, 0)      // low-degree cutoff (auto)
	writeBool(h, false) // degree ranges
	writeBool(h, c.degreeShard)
}

// KeyForGraph returns the content address of solving the built graph g
// under paletteMode and c.
func KeyForGraph(g *parcolor.Graph, paletteMode string, c solveConfig) string {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte("edges\x00"))
	h.Write([]byte(paletteMode))
	h.Write([]byte{0})
	writeOptions(h, c)
	writeU64(h, uint64(g.N()))
	writeU64(h, uint64(g.M()))
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				writeU64(h, uint64(uint32(u))<<32|uint64(uint32(v)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyForGenerator returns the content address of solving the named
// deterministic generator workload under paletteMode and c.
func KeyForGenerator(generator string, n int, seed uint64, paletteMode string, c solveConfig) string {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte("gen\x00"))
	h.Write([]byte(generator))
	h.Write([]byte{0})
	h.Write([]byte(paletteMode))
	h.Write([]byte{0})
	writeOptions(h, c)
	writeU64(h, uint64(n))
	writeU64(h, seed)
	return hex.EncodeToString(h.Sum(nil))
}
