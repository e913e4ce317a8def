package netlist

import (
	"sort"

	"fold3d/internal/tech"
)

// Stats summarizes the physical state of a block, matching the metrics the
// paper tabulates (Tables 2-5): footprint, cell/buffer counts, wirelength,
// long-wire census, and 3D connection counts.
type Stats struct {
	Name        string
	Footprint   float64 // µm², silicon footprint
	NumCells    int
	NumBuffers  int
	NumMacros   int
	Wirelength  float64 // µm, drawn
	NumLongWire int
	NumTSV      int
	NumF2F      int
	HVTFraction float64
}

// CollectStats gathers Stats for b. longThreshold is the drawn-space long
// wire threshold in µm (tech.ScaleModel.LongWireThreshold).
func CollectStats(b *Block, longThreshold float64) Stats {
	s := Stats{
		Name:        b.Name,
		Footprint:   b.Footprint(),
		NumCells:    len(b.Cells),
		NumBuffers:  b.NumBuffers(),
		NumMacros:   len(b.Macros),
		Wirelength:  b.Wirelength(),
		NumTSV:      b.NumTSV,
		NumF2F:      b.NumF2F,
		HVTFraction: b.HVTFraction(),
	}
	for i := range b.Nets {
		if b.Nets[i].RouteLen > longThreshold {
			s.NumLongWire++
		}
	}
	return s
}

// GroupNames returns the distinct instance Group labels in b, sorted. For
// the SPC this enumerates its functional unit blocks (FUBs).
func GroupNames(b *Block) []string {
	seen := make(map[string]bool)
	for i := range b.Cells {
		if g := b.Cells[i].Group; g != "" {
			seen[g] = true
		}
	}
	for i := range b.Macros {
		if g := b.Macros[i].Group; g != "" {
			seen[g] = true
		}
	}
	names := make([]string, 0, len(seen))
	for g := range seen {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}

// CellAreaByDie returns the standard-cell plus macro area per die.
func CellAreaByDie(b *Block) [2]float64 {
	var a [2]float64
	for i := range b.Cells {
		a[b.Cells[i].Die] += b.Cells[i].Master.Area()
	}
	for i := range b.Macros {
		a[b.Macros[i].Die] += b.Macros[i].Model.Area()
	}
	return a
}

// MeanDrive returns the average drive strength of the block's cells.
func MeanDrive(b *Block) float64 {
	if len(b.Cells) == 0 {
		return 0
	}
	sum := 0
	for i := range b.Cells {
		sum += b.Cells[i].Master.Drive
	}
	return float64(sum) / float64(len(b.Cells))
}

// CountVth returns the number of RVT and HVT cells.
func CountVth(b *Block) (rvt, hvt int) {
	for i := range b.Cells {
		if b.Cells[i].Master.Vth == tech.HVT {
			hvt++
		} else {
			rvt++
		}
	}
	return rvt, hvt
}
