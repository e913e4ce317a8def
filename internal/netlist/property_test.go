package netlist

import (
	"fmt"
	"testing"
	"testing/quick"

	"fold3d/internal/geom"
	"fold3d/internal/rng"
	"fold3d/internal/tech"
)

// randomValidBlock builds a random but referentially valid block from a
// seed; shared by the property tests.
func randomValidBlock(seed uint64) *Block {
	lib := tech.NewLibrary()
	r := rng.New(seed)
	b := NewBlock(fmt.Sprintf("pb%d", seed), tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 80, 60)
	n := 10 + r.Intn(60)
	fams := []tech.Family{tech.INV, tech.NAND2, tech.NOR2, tech.DFF, tech.MUX2}
	for i := 0; i < n; i++ {
		b.AddCell(Instance{
			Name:     fmt.Sprintf("c%d", i),
			Master:   lib.MustCell(fams[r.Intn(len(fams))], tech.Drives[r.Intn(len(tech.Drives))], tech.RVT),
			Pos:      geom.Point{X: r.Range(0, 70), Y: r.Range(0, 55)},
			Die:      Die(r.Intn(2)),
			Activity: r.Range(0.05, 0.4),
		})
	}
	nm := r.Intn(4)
	for i := 0; i < nm; i++ {
		mm := lib.MacroKB
		mm.Width, mm.Height = 8, 5
		b.AddMacro(MacroInst{Name: fmt.Sprintf("m%d", i), Model: mm,
			Pos: geom.Point{X: r.Range(0, 60), Y: r.Range(0, 50)}})
	}
	np := r.Intn(5)
	for i := 0; i < np; i++ {
		dir := In
		if r.Bool(0.5) {
			dir = Out
		}
		b.AddPort(Port{Name: fmt.Sprintf("p%d", i), Dir: dir,
			Pos: geom.Point{X: r.Range(0, 80), Y: 0}, CapfF: 3})
	}
	// Random nets: drivers must be unique cells (or macros/ports).
	drivers := r.Perm(n)
	nn := 1 + r.Intn(n-1)
	for i := 0; i < nn; i++ {
		net := Net{
			Name:     fmt.Sprintf("n%d", i),
			Driver:   PinRef{Kind: KindCell, Idx: int32(drivers[i])},
			Activity: r.Range(0.05, 0.4),
			RouteLen: r.Range(0, 100),
		}
		k := 1 + r.Intn(4)
		for s := 0; s < k; s++ {
			switch r.Intn(3) {
			case 0:
				net.Sinks = append(net.Sinks, PinRef{Kind: KindCell, Idx: int32(r.Intn(n)), Pin: int16(r.Intn(2))})
			case 1:
				if nm > 0 {
					net.Sinks = append(net.Sinks, PinRef{Kind: KindMacro, Idx: int32(r.Intn(nm)), Pin: int16(r.Intn(8))})
				}
			default:
				if np > 0 {
					net.Sinks = append(net.Sinks, PinRef{Kind: KindPort, Idx: int32(r.Intn(np))})
				}
			}
		}
		if len(net.Sinks) == 0 {
			net.Sinks = append(net.Sinks, PinRef{Kind: KindCell, Idx: int32(r.Intn(n))})
		}
		b.AddNet(net)
	}
	return b
}

func TestPropertyRandomBlocksValidate(t *testing.T) {
	f := func(seed uint64) bool {
		return randomValidBlock(seed).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEquivalence(t *testing.T) {
	// Clone must preserve every observable metric and share no state.
	f := func(seed uint64) bool {
		b := randomValidBlock(seed)
		c := b.Clone()
		if b.Wirelength() != c.Wirelength() ||
			b.CellArea(-1) != c.CellArea(-1) ||
			b.MacroArea(-1) != c.MacroArea(-1) ||
			b.NumBuffers() != c.NumBuffers() ||
			len(b.Nets) != len(c.Nets) {
			return false
		}
		// Mutating the clone must not touch the original.
		if len(c.Nets) > 0 && len(c.Nets[0].Sinks) > 0 {
			before := b.Nets[0].Sinks[0]
			c.Nets[0].Sinks[0] = PinRef{Kind: KindCell, Idx: 0}
			c.Nets[0].RouteLen = -1
			if b.Nets[0].Sinks[0] != before || b.Nets[0].RouteLen == -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNetIs3DConsistentWithCuts(t *testing.T) {
	// A net is cut iff its pins sit on both dies: NetIs3D must agree with
	// the die set of the net's pins, net by net.
	f := func(seed uint64) bool {
		b := randomValidBlock(seed)
		for i := range b.Nets {
			n := &b.Nets[i]
			var dies [2]bool
			dies[b.PinDie(n.Driver)] = true
			for _, s := range n.Sinks {
				dies[b.PinDie(s)] = true
			}
			if b.NetIs3D(n) != (dies[0] && dies[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStatsNonNegative(t *testing.T) {
	f := func(seed uint64, threshold float64) bool {
		if threshold < 0 {
			threshold = -threshold
		}
		b := randomValidBlock(seed)
		s := CollectStats(b, threshold)
		if s.NumCells < 0 || s.NumLongWire < 0 || s.Wirelength < 0 || s.HVTFraction < 0 || s.HVTFraction > 1 {
			return false
		}
		return s.NumLongWire <= len(b.Nets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVthCountsPartition(t *testing.T) {
	f := func(seed uint64) bool {
		b := randomValidBlock(seed)
		rvt, hvt := CountVth(b)
		return rvt+hvt == len(b.Cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
