// Package experiments implements the evaluation suite E1–E17. The paper
// is a theory paper with no empirical tables, so each experiment
// operationalizes one of its quantitative claims; cmd/mpcbench prints the
// tables and the root-level benchmarks regenerate them.
package experiments

import (
	"fmt"
	"sort"

	"parcolor/internal/stats"
)

// Config scales the suite.
type Config struct {
	// Quick shrinks sweeps for unit tests and -short benchmarks.
	Quick bool
	// Seed drives every randomized workload generator.
	Seed uint64
	// SeedBits bounds derandomization seed spaces (0 = 6, keeping full
	// sweeps tractable on a laptop; the certificate guarantees hold for
	// any value).
	SeedBits int
	// Fault optionally overrides E17's built-in chaos schedules with one
	// custom schedule (cmd/mpcbench -fault-* flags). Ignored by every
	// other experiment.
	Fault FaultConfig
}

// FaultConfig describes one custom chaos schedule for E17. The zero
// value means "use the built-in drop/straggler/crash matrix".
type FaultConfig struct {
	Seed               uint64
	Drop, Dup, Reorder float64
	// CrashMachine < 0 disables the crash; the window is ticks
	// [CrashFrom, CrashTo), CrashTo < 0 = never restarts.
	CrashMachine       int
	CrashFrom, CrashTo int
	CrashSilent        bool
	// Retries bounds per-phase recovery attempts (0 = 8).
	Retries int
}

// Active reports whether the config describes any fault at all.
func (f FaultConfig) Active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.CrashMachine >= 0
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.SeedBits == 0 {
		c.SeedBits = 6
	}
	return c
}

// sizes returns the n sweep for an experiment.
func (c Config) sizes() []int {
	if c.Quick {
		return []int{80, 160}
	}
	return []int{200, 400, 800, 1600}
}

// Runner produces one experiment table.
type Runner func(Config) *stats.Table

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*stats.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg.withDefaults()), nil
}
