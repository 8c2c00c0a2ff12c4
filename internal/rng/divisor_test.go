package rng

import "testing"

func TestDivisorMatchesHardwareMod(t *testing.T) {
	divisors := []uint64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 63, 64, 65,
		100, 127, 128, 129, 255, 256, 257, 301, 1000, 4095, 4096, 4097,
		1<<16 - 1, 1 << 16, 1<<16 + 1,
		1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1,
		^uint64(0) - 1, ^uint64(0),
	}
	// Deterministic pseudo-random inputs plus boundary values.
	hs := []uint64{0, 1, 2, 3, 63, 64, 65, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	s := New(7)
	for i := 0; i < 4000; i++ {
		hs = append(hs, s.Uint64())
	}
	for _, d := range divisors {
		dv := NewDivisor(d)
		for _, h := range hs {
			if got, want := dv.Mod(h), h%d; got != want {
				t.Fatalf("Divisor(%d).Mod(%d) = %d, want %d", d, h, got, want)
			}
		}
	}
}

func TestDivisorSmallExhaustive(t *testing.T) {
	// Every (d, h) pair in a small box, catching off-by-one reciprocal
	// errors that sparse sampling could miss.
	for d := uint64(1); d <= 128; d++ {
		dv := NewDivisor(d)
		for h := uint64(0); h <= 4096; h++ {
			if got, want := dv.Mod(h), h%d; got != want {
				t.Fatalf("Divisor(%d).Mod(%d) = %d, want %d", d, h, got, want)
			}
		}
	}
}

func TestDivisorZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDivisor(0)
}

func BenchmarkDivisorMod(b *testing.B) {
	dv := NewDivisor(301)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += dv.Mod(uint64(i) * golden)
	}
	_ = acc
}

func BenchmarkHardwareMod(b *testing.B) {
	d := uint64(301)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += (uint64(i) * golden) % d
	}
	_ = acc
}
