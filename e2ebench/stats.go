package main

import (
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// gate is a reusable rendezvous for the rank goroutines of one
// in-process cluster. The last rank to arrive runs the action while
// the others wait, so the action sees every rank quiescent: no rank is
// inside the DSM when counters, clocks or the heap are read.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
}

func newGate(parties int) *gate {
	g := &gate{parties: parties}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait(action func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.waiting++
	if g.waiting == g.parties {
		action()
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
		return
	}
	for gen == g.gen {
		g.cond.Wait()
	}
}
