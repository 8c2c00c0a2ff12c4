package par

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		hits := make([]int32, n)
		NewRunner(0).For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	n := 1003
	seen := make([]int32, n)
	NewRunner(0).ForChunked(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestReduceIntMatchesSequential(t *testing.T) {
	f := func(vals []int16) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := NewRunner(0).ReduceInt(len(vals), func(i int) int64 { return int64(vals[i]) })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	vals := make([]int64, 999)
	for i := range vals {
		vals[i] = int64((i*2654435761 + 17) % 1000)
	}
	ref := NewRunner(0).ReduceInt(len(vals), func(i int) int64 { return vals[i] })
	for _, w := range []int{1, 2, 3, 5, 8} {
		r := NewRunner(w)
		sum := r.ReduceInt(len(vals), func(i int) int64 { return vals[i] })
		if sum != ref {
			t.Fatalf("workers=%d: results differ", w)
		}
	}
}

func TestForChunkedWorkerPartitionAndSlots(t *testing.T) {
	n := 777
	r := NewRunner(0)
	w := r.Workers(n)
	seen := make([]int32, n)
	slotHits := make([]int32, w)
	r.ForChunkedWorker(n, func(wk, lo, hi int) {
		if wk < 0 || wk >= w {
			t.Errorf("worker slot %d out of [0,%d)", wk, w)
		}
		atomic.AddInt32(&slotHits[wk], 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
	for wk, h := range slotHits {
		if h > 1 {
			t.Fatalf("worker slot %d used %d times", wk, h)
		}
	}
}

func TestForChunkedWorkerMatchesForChunkedBounds(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		var a, b [][2]int
		var mu sync.Mutex
		r := NewRunner(0)
		r.ForChunked(n, func(lo, hi int) {
			mu.Lock()
			a = append(a, [2]int{lo, hi})
			mu.Unlock()
		})
		r.ForChunkedWorker(n, func(_, lo, hi int) {
			mu.Lock()
			b = append(b, [2]int{lo, hi})
			mu.Unlock()
		})
		sortChunks := func(c [][2]int) {
			sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
		}
		sortChunks(a)
		sortChunks(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: chunk bounds differ: %v vs %v", n, a, b)
		}
	}
}

func TestReduceChunkedMatchesSequential(t *testing.T) {
	f := func(vals []int16) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := NewRunner(0).ReduceChunked(len(vals), func(lo, hi int) int64 {
			var acc int64
			for i := lo; i < hi; i++ {
				acc += int64(vals[i])
			}
			return acc
		})
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceChunkedDeterministicAcrossWorkerCounts(t *testing.T) {
	vals := make([]int64, 1234)
	for i := range vals {
		vals[i] = int64((i*40503 + 7) % 911)
	}
	body := func(lo, hi int) int64 {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += vals[i]
		}
		return acc
	}
	ref := NewRunner(0).ReduceChunked(len(vals), body)
	for _, w := range []int{1, 2, 3, 7, 16} {
		got := NewRunner(w).ReduceChunked(len(vals), body)
		if got != ref {
			t.Fatalf("workers=%d: %d != %d", w, got, ref)
		}
	}
}

func BenchmarkReduceChunked(b *testing.B) {
	x := make([]int64, 1<<14)
	for i := range x {
		x[i] = int64(i)
	}
	r := NewRunner(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.ReduceChunked(len(x), func(lo, hi int) int64 {
			var acc int64
			for j := lo; j < hi; j++ {
				acc += x[j]
			}
			return acc
		})
	}
}

func BenchmarkForOverhead(b *testing.B) {
	x := make([]int64, 1<<14)
	r := NewRunner(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.For(len(x), func(j int) { x[j]++ })
	}
}
