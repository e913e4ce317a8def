package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams from different seeds collide %d/64 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(5)
	a := r.Split("alpha")
	r2 := New(5)
	b := r2.Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams with different tags collide %d/64 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split("x")
	b := New(5).Split("x")
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same split must be deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(2)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(4)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("std = %v, want ~2", std)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(8)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.03 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}
