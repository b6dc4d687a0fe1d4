package cluster

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

func testMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://backend-%d:8722", i)
	}
	return ms
}

// routeKey is a job's rendezvous key rendered the way harness.AppendKey
// promises to render it, as the string Rank takes.
func routeKey(seed int64, j harness.Job) string {
	cfg := j.CP.Config
	return fmt.Sprintf("%d|%s|%s|%d|%d|%.17g|%t", seed, j.Bench.Name, j.CP.Proc.Name, cfg.Cores, cfg.SMTWays, cfg.ClockGHz, cfg.Turbo)
}

// gridKeys is every cell of the full 45x61 study at seed 42 — the key
// population the router shards in production.
func gridKeys(t *testing.T) []string {
	t.Helper()
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = routeKey(42, j)
	}
	return keys
}

func TestRouterStability(t *testing.T) {
	members := testMembers(3)
	r1 := NewRouter(members)
	// Same member set presented in a different order (and with a
	// duplicate) must route identically: scores, not positions, decide.
	r2 := NewRouter([]string{members[2], members[0], members[1], members[0]})
	for _, key := range gridKeys(t) {
		if got1, got2 := r1.Route([]byte(key)), r2.Route([]byte(key)); got1 != got2 {
			t.Fatalf("Route(%q) unstable across member orderings: %q vs %q", key, got1, got2)
		}
		if r1.Route([]byte(key)) != r1.Rank(key)[0] {
			t.Fatalf("Route(%q) disagrees with Rank[0]", key)
		}
	}
}

func TestRouterBalance(t *testing.T) {
	members := testMembers(3)
	r := NewRouter(members)
	counts := make(map[string]int)
	keys := gridKeys(t)
	for _, key := range keys {
		counts[r.Route([]byte(key))]++
	}
	mean := float64(len(keys)) / float64(len(members))
	for _, m := range members {
		c := counts[m]
		if float64(c) < 0.7*mean || float64(c) > 1.3*mean {
			t.Fatalf("member %s owns %d of %d cells, outside 30%% of the %.0f mean: %v",
				m, c, len(keys), mean, counts)
		}
	}
}

func TestRouterMinimalDisruption(t *testing.T) {
	members := testMembers(3)
	r := NewRouter(members)
	dead := members[1]
	survivors := NewRouter([]string{members[0], members[2]})
	moved := 0
	for _, key := range gridKeys(t) {
		before := r.Route([]byte(key))
		after := survivors.Route([]byte(key))
		if before != dead {
			// Keys the dead member never owned must not move.
			if after != before {
				t.Fatalf("key %q moved %q -> %q though %q was not its owner", key, before, after, dead)
			}
			continue
		}
		moved++
		// The dead member's keys must land on their second rank.
		if want := r.Rank(key)[1]; after != want {
			t.Fatalf("key %q failed over to %q, want second rank %q", key, after, want)
		}
	}
	if moved == 0 {
		t.Fatal("dead member owned no keys; balance test should have caught this")
	}
}

// TestLeaseHomesMatchRank: the homes a run's lease plan gives, routed
// from one reused key buffer, are the sorting reference's owners of
// each job's key, over the full grid at seeds 42 and 0 and the fleet
// sizes studies run on, so homes stay where they were.
func TestLeaseHomesMatchRank(t *testing.T) {
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	for _, seed := range []int64{42, 0} {
		for _, n := range []int{2, 3} {
			s, err := NewScheduler(testMembers(n), SchedulerOptions{Seed: &seed})
			if err != nil {
				t.Fatal(err)
			}
			r := newRun(s, jobs, func() {})
			for _, l := range r.leases {
				for _, i := range l.idxs {
					if want := s.router.Rank(routeKey(seed, jobs[i]))[0]; l.home != want {
						t.Fatalf("seed %d, %d backends: job %d homed on %s, Rank says %s", seed, n, i, l.home, want)
					}
				}
			}
		}
	}
}

// FuzzRoute fuzzes the rendezvous properties: determinism (same cell,
// same member set, same owner — what keeps a cell's home stable),
// membership (the owner is a member), and minimal disruption (removing
// a non-owner never moves a key; removing the owner promotes exactly
// the second rank).
func FuzzRoute(f *testing.F) {
	f.Add("42|mcf|i7 (45)|4|2|2.6|true", uint8(3))
	f.Add("", uint8(1))
	f.Add("7|lusearch|Atom (45)|1|1|0.8|false", uint8(7))
	f.Fuzz(func(t *testing.T, key string, n uint8) {
		members := testMembers(int(n%8) + 1)
		r := NewRouter(members)

		owner := r.Route([]byte(key))
		if owner != r.Route([]byte(key)) {
			t.Fatal("Route not deterministic")
		}
		found := false
		for _, m := range members {
			if m == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %q not a member of %v", owner, members)
		}
		rank := r.Rank(key)
		if len(rank) != len(r.Members()) {
			t.Fatalf("Rank returned %d members, want %d", len(rank), len(r.Members()))
		}
		if rank[0] != owner {
			t.Fatalf("Rank[0]=%q disagrees with Route=%q", rank[0], owner)
		}

		if len(members) < 2 {
			return
		}
		// Remove a non-owner: the key must not move.
		var without []string
		removedNonOwner := false
		for _, m := range members {
			if !removedNonOwner && m != owner {
				removedNonOwner = true
				continue
			}
			without = append(without, m)
		}
		if got := NewRouter(without).Route([]byte(key)); got != owner {
			t.Fatalf("removing a non-owner moved key: %q -> %q", owner, got)
		}
		// Remove the owner: the key must land on the second rank.
		var survivors []string
		for _, m := range members {
			if m != owner {
				survivors = append(survivors, m)
			}
		}
		if got := NewRouter(survivors).Route([]byte(key)); got != rank[1] {
			t.Fatalf("removing the owner sent key to %q, want second rank %q", got, rank[1])
		}
	})
}
