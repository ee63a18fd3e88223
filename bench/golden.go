package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed golden.json holds pins for.
const defaultSeed = 1

// goldenIters is how many leading operations of each engine workload are
// pinned. Every run reaches them, however slow the host.
const goldenIters = 3

//go:embed golden.json
var goldenJSON []byte

// goldenFile is the layout of golden.json: for the default seed, the
// signatures of the first operations of each engine workload, and the total
// simulated events of operation 0's replications (which sweep.Run does not
// report; the layer probe counts them in a bare Session.Replicate loop).
type goldenFile struct {
	Seed        int64                 `json:"seed"`
	Ops         map[string][]solveSig `json:"ops"`
	ProbeEvents map[string]int        `json:"probe_events"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != defaultSeed {
		return g, fmt.Errorf("golden.json pins seed %d, want %d", g.Seed, defaultSeed)
	}
	return g, nil
}

// pinSet holds an engine workload's answers to what they must be: the
// golden signatures for the default seed, and for any seed the first
// answer seen for the same operation index (run-twice equality; the
// warm-up and the first measured operation are both index 0).
type pinSet struct {
	golden []solveSig
	seen   map[int]solveSig
}

// loadPins returns the pins for a workload at a seed.
func loadPins(workload string, seed int64) (*pinSet, error) {
	p := &pinSet{seen: map[int]solveSig{}}
	if seed != defaultSeed {
		return p, nil
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	p.golden = g.Ops[workload]
	if len(p.golden) == 0 {
		return nil, fmt.Errorf("golden.json has no pins for %s", workload)
	}
	return p, nil
}

// check compares operation i's signature with its pins.
func (p *pinSet) check(i int, sig solveSig) error {
	if i < len(p.golden) && sig != p.golden[i] {
		return fmt.Errorf("golden pin mismatch: got %+v, want %+v", sig, p.golden[i])
	}
	if i < goldenIters {
		if prev, ok := p.seen[i]; ok && prev != sig {
			return fmt.Errorf("not repeatable: got %+v, first run gave %+v", sig, prev)
		}
		p.seen[i] = sig
	}
	return nil
}
