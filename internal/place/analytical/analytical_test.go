package analytical

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/place"
	"fold3d/internal/rng"
	"fold3d/internal/tech"
)

// buildBlock makes a placeable block with n cells on one or two dies and
// chained random nets; 3D blocks alternate cells across dies so most nets
// cross, exercising the bistratal objective.
func buildBlock(t *testing.T, n int, threeD bool, seed uint64) *netlist.Block {
	t.Helper()
	lib := tech.NewLibrary()
	r := rng.New(seed)
	b := netlist.NewBlock("ab", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 60, 60)
	if threeD {
		b.Is3D = true
		b.Outline[1] = geom.NewRect(0, 0, 60, 60)
	}
	for i := 0; i < n; i++ {
		fam := tech.NAND2
		if i%7 == 0 {
			fam = tech.DFF
		}
		inst := netlist.Instance{
			Name:   fmt.Sprintf("c%d", i),
			Master: lib.MustCell(fam, 2, tech.RVT),
		}
		if threeD && i%2 == 1 {
			inst.Die = netlist.DieTop
		}
		b.AddCell(inst)
	}
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(2)
		var sinks []netlist.PinRef
		for s := 0; s < k; s++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			sinks = append(sinks, netlist.PinRef{Kind: netlist.KindCell, Idx: int32(j)})
		}
		if len(sinks) == 0 {
			continue
		}
		b.AddNet(netlist.Net{
			Name:   fmt.Sprintf("n%d", i),
			Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: int32(i)},
			Sinks:  sinks,
		})
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// positions renders every cell position to one comparable string.
func positions(b *netlist.Block) string {
	s := ""
	for i := range b.Cells {
		s += fmt.Sprintf("%d %.9f %.9f %d\n", i, b.Cells[i].Pos.X, b.Cells[i].Pos.Y, b.Cells[i].Die)
	}
	return s
}

// TestPlaceDeterministic pins the backend's core contract: identical
// (block, Options) inputs produce byte-identical placements — including
// when the placer instance is reused across blocks (the flow's pooling
// path), so no scratch state may leak between runs.
func TestPlaceDeterministic(t *testing.T) {
	for _, threeD := range []bool{false, true} {
		a := buildBlock(t, 300, threeD, 11)
		b := buildBlock(t, 300, threeD, 11)
		p := New(place.DefaultOptions())
		if err := p.Place(a); err != nil {
			t.Fatal(err)
		}
		// Reuse the same instance after a bigger interleaved block, the way
		// the flow's pool does: the second run must still match.
		big := buildBlock(t, 800, threeD, 3)
		if err := p.Place(big); err != nil {
			t.Fatal(err)
		}
		p.Reinit(place.DefaultOptions())
		if err := p.Place(b); err != nil {
			t.Fatal(err)
		}
		if positions(a) != positions(b) {
			t.Errorf("threeD=%v: reused placer diverged from fresh placer", threeD)
		}
	}
}

// TestPlaceLegalAndContained checks the handoff contract: the result is
// legalized (the shared legalizer ran) and every cell sits inside its
// die's outline on the die it started on.
func TestPlaceLegalAndContained(t *testing.T) {
	b := buildBlock(t, 400, true, 5)
	wantDie := make([]netlist.Die, len(b.Cells))
	for i := range b.Cells {
		wantDie[i] = b.Cells[i].Die
	}
	if err := New(place.DefaultOptions()).Place(b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Die != wantDie[i] {
			t.Fatalf("cell %s moved dies: placement must not re-partition", c.Name)
		}
		if !b.Outline[c.Die].ContainsRect(c.Rect()) {
			t.Errorf("cell %s outside outline: %v vs %v", c.Name, c.Rect(), b.Outline[c.Die])
		}
		rowOff := (c.Pos.Y - b.Outline[c.Die].Lo.Y) / tech.CellHeight
		if diff := math.Abs(rowOff - math.Round(rowOff)); diff > 1e-6 {
			t.Errorf("cell %s not row-aligned: y=%v", c.Name, c.Pos.Y)
		}
	}
}

// TestPlaceImprovesWirelength sanity-checks the objective actually pulls:
// the placed HPWL must beat a purely random seeding by a clear margin.
func TestPlaceImprovesWirelength(t *testing.T) {
	seeded := buildBlock(t, 500, false, 9)
	p := New(place.DefaultOptions())
	p.seedPositions(seeded, rng.New(place.DefaultOptions().Seed))
	random := place.HPWL(seeded)

	placed := buildBlock(t, 500, false, 9)
	if err := p.Place(placed); err != nil {
		t.Fatal(err)
	}
	got := place.HPWL(placed)
	if got >= 0.8*random {
		t.Errorf("placed HPWL %.1f did not clearly beat random seeding %.1f", got, random)
	}
}

// TestAnalyticalPlacementPinned pins the analytical placer's output bit for
// bit: the SHA-256 of every placed cell position (by math.Float64bits) on
// the 2D and the 3D fixture. TestGoldenFingerprints runs only the force
// placer, so without this a drift in the Nesterov loop (wirelengthGrad,
// the density step) would surface only in the external benchmark's
// golden file. A speedup of the gradient must leave these literals alone.
func TestAnalyticalPlacementPinned(t *testing.T) {
	cases := []struct {
		name   string
		threeD bool
		want   string
	}{
		{"2d", false, "befa49726c78c014a8e647129b725e8151c1cedbb1586f6356ace084fc2312a8"},
		{"3d", true, "ab54fc71a1cd39ce8dbd24953fa845f50bead6f349082faff4110bbf9cda44ea"},
	}
	for _, tc := range cases {
		b := buildBlock(t, 300, tc.threeD, 11)
		if err := New(place.DefaultOptions()).Place(b); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for i := range b.Cells {
			for _, v := range []float64{b.Cells[i].Pos.X, b.Cells[i].Pos.Y} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: placement hash = %s, want %s", tc.name, got, tc.want)
		}
	}
}
