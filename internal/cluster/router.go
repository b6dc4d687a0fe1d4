package cluster

import (
	"hash/fnv"
	"sort"
)

// Router picks every cell's home backend with rendezvous (highest-
// random-weight) hashing: every (key, member) pair gets a pseudo-random
// score, and a key belongs to the member with the highest score. The
// property the scheduler relies on is stability: a key's owner depends
// only on the member set, so every scheduler, every pass of a study, and
// every later study homes the same cell on the same backend, keeping
// that backend's cache hot for exactly its slice of the study grid.
//
// Rendezvous hashing is also minimally disruptive — removing a member
// reassigns only the keys it owned, each to its second rank — which
// FuzzRoute pins; the scheduler fails over by re-leasing instead, so it
// never removes a member.
type Router struct {
	members []string
}

// NewRouter builds a router over the given members, deduplicated; order
// does not matter (scores, not positions, decide ownership).
func NewRouter(members []string) *Router {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	return &Router{members: uniq}
}

// Members returns the member set in sorted order.
func (r *Router) Members() []string {
	return append([]string(nil), r.members...)
}

// score is the rendezvous weight of key on member. FNV-64a over
// member NUL key: cheap, stateless, and uniform enough that a 45x61
// grid spreads within a few percent of even (see FuzzRoute).
func score(member string, key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(member))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(key)
	return h.Sum64()
}

// Rank returns the members ordered by descending score for key: Rank[0]
// is the key's owner, Rank[1] the owner once Rank[0] leaves, and so on.
// Ties break by member name so the order is total and deterministic. It
// is the sorting reference the router tests check Route against.
func (r *Router) Rank(key string) []string {
	ranked := append([]string(nil), r.members...)
	scores := make(map[string]uint64, len(ranked))
	for _, m := range ranked {
		scores[m] = score(m, []byte(key))
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// Route returns key's owner, or "" for an empty member set. The key is
// bytes so a caller can route job after job from one reused buffer.
func (r *Router) Route(key []byte) string {
	var best string
	var bestScore uint64
	for _, m := range r.members {
		s := score(m, key)
		if best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}
