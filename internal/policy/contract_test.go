package policy

import (
	"math/rand"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// constructors lists every policy the contract suite covers. A new
// policy joins the suite by adding its constructor here.
var constructors = []func() Policy{
	func() Policy { return NewDYRS() },
	func() Policy { return NewIgnem() },
	func() Policy { return NewNaive() },
	func() Policy { return NewCostAware() },
}

// contractView is a 6-node cluster with heterogeneous speeds and two
// dead nodes (2 and 5).
func contractView(seed int64) View {
	return View{
		Nodes: []NodeView{
			{Alive: true, PerByte: 1e-8, Queued: 0},
			{Alive: true, PerByte: 2e-8, Queued: 3},
			{Alive: false, PerByte: 1e-9, Queued: 0}, // dead but tempting
			{Alive: true, PerByte: 5e-8, Queued: 1},
			{Alive: true, PerByte: 1e-8, Queued: 2},
			{Alive: false, PerByte: 1e-9, Queued: 0}, // dead but tempting
		},
		StdBlock: 128 * sim.MB,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// contractRequests is a fixed request sequence whose replica lists
// deliberately include the dead nodes.
func contractRequests() []Request {
	reps := [][]cluster.NodeID{
		{0, 2, 4}, {1, 3, 5}, {2, 5, 0}, {3, 4, 1}, {2, 5}, // only dead replicas
		{4, 0, 1}, {0, 1, 3}, {5, 2, 4},
	}
	var out []Request
	for i, r := range reps {
		out = append(out, Request{
			Block:    dfs.BlockID(i),
			Size:     sim.Bytes(64+32*i) * sim.MB,
			Replicas: r,
		})
	}
	return out
}

// runPass executes one Begin+Assign pass and returns the per-request
// targets (-1 for "no target").
func runPass(p Policy, v View, reqs []Request) []cluster.NodeID {
	p.Begin(v)
	out := make([]cluster.NodeID, len(reqs))
	for i, req := range reqs {
		target, ok := p.Assign(req)
		if !ok {
			target = -1
		}
		out[i] = target
	}
	return out
}

// TestPolicyContract is the table-driven suite every implementation
// must pass: deterministic assignment, targets drawn from the request's
// replica list, dead nodes never targeted, graceful no-replica
// handling, and at least one assignment.
func TestPolicyContract(t *testing.T) {
	for _, mk := range constructors {
		mk := mk
		p := mk()
		t.Run(p.Name(), func(t *testing.T) {
			reqs := contractRequests()

			// Determinism: the same view and request sequence (and, for
			// randomized policies, the same seeded stream) must produce
			// identical targets, every time.
			first := runPass(p, contractView(7), reqs)
			for run := 0; run < 3; run++ {
				again := runPass(p, contractView(7), reqs)
				for i := range first {
					if first[i] != again[i] {
						t.Fatalf("run %d: request %d target %d != first run's %d",
							run, i, again[i], first[i])
					}
				}
			}

			// A fresh instance of the same policy must agree too: no
			// hidden state may leak across passes.
			freshTargets := runPass(mk(), contractView(7), reqs)
			for i := range first {
				if first[i] != freshTargets[i] {
					t.Fatalf("fresh instance diverged at request %d: %d != %d",
						i, freshTargets[i], first[i])
				}
			}

			v := contractView(7)
			for i, target := range first {
				if target < 0 {
					continue
				}
				// Targets must come from the request's replica list.
				found := false
				for _, loc := range reqs[i].Replicas {
					if loc == target {
						found = true
					}
				}
				if !found {
					t.Errorf("request %d targeted %d, not a replica of %v",
						i, target, reqs[i].Replicas)
				}
				// Dead nodes are never targetable.
				if !v.Nodes[int(target)].Alive {
					t.Errorf("request %d targeted dead node %d", i, target)
				}
			}

			// The all-dead-replicas request must decline.
			if first[4] != -1 {
				t.Errorf("request with only dead replicas got target %d", first[4])
			}
			// Empty replica lists must decline.
			p.Begin(contractView(7))
			if target, ok := p.Assign(Request{Block: 99, Size: sim.MB}); ok {
				t.Errorf("empty replica list got target %d", target)
			}

			// Every policy must assign at least one contract request.
			assigned := 0
			for _, target := range first {
				if target >= 0 {
					assigned++
				}
			}
			if assigned == 0 {
				t.Error("policy assigned nothing")
			}
		})
	}
}

// TestPolicyContractTieBreaking pins the deterministic tie-break rule:
// with every node identical, the deterministic policies take the first
// replica in request order (strict-< comparison), for every block.
func TestPolicyContractTieBreaking(t *testing.T) {
	uniform := View{
		Nodes: []NodeView{
			{Alive: true, PerByte: 1e-8}, {Alive: true, PerByte: 1e-8},
			{Alive: true, PerByte: 1e-8}, {Alive: true, PerByte: 1e-8},
		},
		StdBlock: 128 * sim.MB,
		Rand:     rand.New(rand.NewSource(1)),
	}
	for _, mk := range constructors {
		p := mk()
		if p.BindImmediately() {
			continue // Ignem breaks ties randomly
		}
		t.Run(p.Name(), func(t *testing.T) {
			p.Begin(uniform)
			// Distinct blocks with disjoint replica lists: each must take
			// its first-listed replica.
			cases := []Request{
				{Block: 0, Size: 128 * sim.MB, Replicas: []cluster.NodeID{2, 1, 3}},
				{Block: 1, Size: 128 * sim.MB, Replicas: []cluster.NodeID{1, 0}},
			}
			want := []cluster.NodeID{2, 1}
			for i, req := range cases {
				got, ok := p.Assign(req)
				if !ok || got != want[i] {
					t.Errorf("block %d: got (%d, %v), want first replica %d",
						req.Block, got, ok, want[i])
				}
			}
		})
	}
}
