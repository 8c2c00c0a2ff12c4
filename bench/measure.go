package main

import (
	"encoding/binary"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const mb = 1 << 20

// heapPoller samples the live heap every millisecond and keeps the peak
// since the last reset. stop ends the sampling goroutine and waits for it.
type heapPoller struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapPoller() *heapPoller {
	p := &heapPoller{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// reset starts a new peak window and returns the previous window's peak in
// MB. Only one goroutine calls reset.
func (p *heapPoller) reset() float64 {
	return float64(p.peak.Swap(0)) / mb
}

func (p *heapPoller) stop() {
	close(p.done)
	p.wg.Wait()
}

// runtimeCounters is one snapshot of the process counters behind the
// runtime.* metrics.
type runtimeCounters struct {
	cpu      time.Duration // user + system CPU of the process
	allocs   uint64        // cumulative heap bytes allocated
	gcCPU    float64       // estimated GC CPU seconds
	gcCycles uint64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeCounters{
		cpu:      cpu,
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// sub returns the counter deltas from an earlier snapshot.
func (c runtimeCounters) sub(old runtimeCounters) runtimeCounters {
	return runtimeCounters{
		cpu:      c.cpu - old.cpu,
		allocs:   c.allocs - old.allocs,
		gcCPU:    c.gcCPU - old.gcCPU,
		gcCycles: c.gcCycles - old.gcCycles,
	}
}

func (c runtimeCounters) add(d runtimeCounters) runtimeCounters {
	return runtimeCounters{
		cpu:      c.cpu + d.cpu,
		allocs:   c.allocs + d.allocs,
		gcCPU:    c.gcCPU + d.gcCPU,
		gcCycles: c.gcCycles + d.gcCycles,
	}
}

// hashColors is the FNV-1a hash of a color vector: equal hashes mean
// bit-identical colorings for the purpose of the reproducibility checks.
func hashColors(colors []int32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 4096)
	for _, c := range colors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fits reports whether one more repetition, as long as the average of the
// done repetitions since start, would end by deadline. With none done it
// is true, so every timed loop runs at least once.
func fits(start, deadline time.Time, done int) bool {
	if done == 0 {
		return true
	}
	now := time.Now()
	return !now.Add(now.Sub(start) / time.Duration(done)).After(deadline)
}
