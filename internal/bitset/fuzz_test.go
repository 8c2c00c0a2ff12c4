package bitset

import "testing"

// FuzzMaskAgainstReference drives a random op sequence against the
// bool-slice oracle: every byte of the corpus encodes one operation, and
// after the walk every aggregate (Count, ForEach order, a FillPar
// rebuild) must match the naive scan. go test -fuzz=FuzzMaskAgainstReference
// explores beyond the seeded ragged cases; the seeds alone run as
// regression tests.
func FuzzMaskAgainstReference(f *testing.F) {
	f.Add(uint16(1), []byte{0x00})
	f.Add(uint16(63), []byte{0x01, 0x3e, 0x80, 0xff})
	f.Add(uint16(64), []byte{0x40, 0x3f, 0x41})
	f.Add(uint16(65), []byte{0x40, 0x40, 0x00, 0x7f})
	f.Add(uint16(130), []byte{0x81, 0x05, 0x7a, 0x33, 0x9c})
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		n := int(size)%1024 + 1
		m, r := New(n), make(reference, n)
		for k, op := range ops {
			i := (int(op) + k*131) % n
			switch op % 3 {
			case 0:
				m.Set(i)
				r[i] = true
			case 1:
				m.Clear(i)
				r[i] = false
			default:
				m.SetTo(i, op&0x80 != 0)
				r[i] = op&0x80 != 0
			}
		}
		if got, want := m.Count(), r.countRange(0, n); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		visited := 0
		m.ForEach(func(i int) {
			if !r[i] {
				t.Fatalf("ForEach visited clear bit %d", i)
			}
			visited++
		})
		if want := r.countRange(0, n); visited != want {
			t.Fatalf("ForEach visited %d bits, want %d", visited, want)
		}
		// FillPar from a sentinel compare (Proposal.RecomputeWin's fill)
		// against the same reference: encode the bool oracle as a
		// sentinel array and the fill must reproduce it bit for bit.
		xs := make([]int32, n)
		for i, b := range r {
			if b {
				xs[i] = int32(i) + 1
			} else {
				xs[i] = -1
			}
		}
		neq := New(n)
		neq.FillPar(nil, n, func(i int) bool { return xs[i] != -1 })
		for i := 0; i < n; i++ {
			if neq.Test(i) != r[i] {
				t.Fatalf("FillPar bit %d = %v, want %v", i, neq.Test(i), r[i])
			}
		}
	})
}
