// Package floorplan places blocks on the chip from a user-defined row plan:
// the paper arranges the T2's regular block arrays by hand and modified the
// 3D floorplanner of Kim et al. [5] to accept such user plans.
//
// It also plans the inter-block TSV arrays of F2B chip stacks (TSVs live
// outside blocks, in the channels) and assigns block I/O port locations from
// the chip-level bundle connectivity — the mechanism that fragments the 2D
// CCX placement in the paper (§4.3): a block's ports face its floorplan
// neighbors, and its cells follow the ports.
package floorplan

import (
	"fmt"
	"math"
	"sort"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
)

// Shape is a block to place: footprint and die assignment.
type Shape struct {
	Name string
	W, H float64
	Die  netlist.Die
	// Both reports a folded block occupying the same XY region on both dies.
	Both bool
}

// Placed is one placed block.
type Placed struct {
	Name string
	Rect geom.Rect
	Die  netlist.Die
	Both bool
}

// TSVArray is one inter-block TSV bank placed in a channel.
type TSVArray struct {
	Rect  geom.Rect
	Count int
	// Bundle names the connection this array serves ("SPC0-L2T0").
	Bundle string
}

// Floorplan is the chip-level placement result.
type Floorplan struct {
	// Outline is the chip outline (identical for both dies of a stack).
	Outline geom.Rect
	Blocks  map[string]*Placed
	Arrays  []TSVArray
}

// NumTSV returns the total inter-block TSV count.
func (fp *Floorplan) NumTSV() int {
	n := 0
	for _, a := range fp.Arrays {
		n += a.Count
	}
	return n
}

// Find returns the placement of a block.
func (fp *Floorplan) Find(name string) (*Placed, error) {
	p, ok := fp.Blocks[name]
	if !ok {
		return nil, fmt.Errorf("floorplan: unknown block %q", name)
	}
	return p, nil
}

// Row is one row of a user-defined plan: block names laid left to right.
type Row struct {
	Names []string
}

// RowPlan builds a floorplan from explicit per-die rows (bottom row first).
// Blocks are centered within their row; rows are separated by channel µm of
// routing/TSV space; the chip outline is the union of both dies plus a
// boundary channel. Shapes marked Both are placed once and mirrored to both
// dies.
func RowPlan(shapes map[string]Shape, rows [2][]Row, channel float64) (*Floorplan, error) {
	fp := &Floorplan{Blocks: make(map[string]*Placed)}
	var chipW, chipH [2]float64

	// First pass: row dimensions per die.
	for die := 0; die < 2; die++ {
		var w, h float64
		for _, row := range rows[die] {
			var rw, rh float64
			for _, name := range row.Names {
				s, ok := shapes[name]
				if !ok {
					return nil, fmt.Errorf("floorplan: row plan references unknown block %q", name)
				}
				rw += s.W + channel
				if s.H > rh {
					rh = s.H
				}
			}
			if rw > w {
				w = rw
			}
			h += rh + channel
		}
		chipW[die], chipH[die] = w+channel, h+channel
	}
	total := 0
	for die := 0; die < 2; die++ {
		for _, r := range rows[die] {
			total += len(r.Names)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("floorplan: empty row plan")
	}
	W := math.Max(chipW[0], chipW[1])
	H := math.Max(chipH[0], chipH[1])
	fp.Outline = geom.NewRect(0, 0, W, H)

	// Second pass: place blocks, centering each row.
	for die := 0; die < 2; die++ {
		y := channel
		for _, row := range rows[die] {
			var rw, rh float64
			for _, name := range row.Names {
				s := shapes[name]
				rw += s.W + channel
				if s.H > rh {
					rh = s.H
				}
			}
			x := (W - rw + channel) / 2
			for _, name := range row.Names {
				s := shapes[name]
				if prev, dup := fp.Blocks[name]; dup && !prev.Both {
					return nil, fmt.Errorf("floorplan: block %q placed twice", name)
				}
				fp.Blocks[name] = &Placed{
					Name: name,
					Rect: geom.RectWH(x, y+(rh-s.H)/2, s.W, s.H),
					Die:  netlist.Die(die),
					Both: s.Both,
				}
				x += s.W + channel
			}
			y += rh + channel
		}
	}
	return fp, nil
}

// Bundle is a chip-level connection of Width wires from block A to block B
// (A-side ports are outputs, B-side ports are inputs).
type Bundle struct {
	A, B  string
	Width int
	// GroupA and GroupB name the instance group (FUB / crossbar half) inside
	// each block that the bundle's wires attach to; empty means any. This is
	// how the T2 model expresses that SPC->CCX traffic lands on the PCX half
	// and CCX->SPC traffic leaves the CPX half.
	GroupA, GroupB string
	// Activity annotates the bundle's switching activity.
	Activity float64
}

// Name returns the canonical bundle label.
func (b Bundle) Name() string { return b.A + "-" + b.B }

// PlanTSVArrayOptions sizes inter-block TSV arrays.
type PlanTSVArrayOptions struct {
	// PitchDrawn is the drawn TSV pitch (place.TSVPlanOptions.DrawnPitch).
	PitchDrawn float64
}

// PlanInterblockTSVs places one TSV array per die-crossing bundle, outside
// every block (the paper treats TSV arrays as additional floorplan blocks).
// The array wants to sit at the midpoint of its two blocks; if that point is
// inside a block it slides to the nearest channel space.
func PlanInterblockTSVs(fp *Floorplan, bundles []Bundle, opt PlanTSVArrayOptions) error {
	if opt.PitchDrawn <= 0 {
		return fmt.Errorf("floorplan: non-positive TSV pitch")
	}
	for _, bu := range bundles {
		pa, err := fp.Find(bu.A)
		if err != nil {
			return err
		}
		pb, err := fp.Find(bu.B)
		if err != nil {
			return err
		}
		crossing := pa.Die != pb.Die && !pa.Both && !pb.Both
		if pa.Both != pb.Both {
			// A folded block talks to an unfolded one: the connection can
			// land on the partner's die, no TSV needed at chip level.
			crossing = false
		}
		if !crossing {
			continue
		}
		// Array geometry: near-square bank at the TSV pitch.
		cols := int(math.Ceil(math.Sqrt(float64(bu.Width))))
		rowsN := (bu.Width + cols - 1) / cols
		w := float64(cols) * opt.PitchDrawn
		h := float64(rowsN) * opt.PitchDrawn
		mid := geom.Point{
			X: (pa.Rect.Center().X + pb.Rect.Center().X) / 2,
			Y: (pa.Rect.Center().Y + pb.Rect.Center().Y) / 2,
		}
		pos := slideOutsideBlocks(fp, geom.RectWH(mid.X-w/2, mid.Y-h/2, w, h))
		fp.Arrays = append(fp.Arrays, TSVArray{Rect: pos, Count: bu.Width, Bundle: bu.Name()})
	}
	return nil
}

// slideOutsideBlocks nudges r out of any overlapping block with the minimal
// axis move, iterating a few times (channels are wide enough in practice).
// Blocks are visited in sorted name order: each nudge depends on the ones
// before it, so the visit order decides the final position and must not be
// left to map iteration.
func slideOutsideBlocks(fp *Floorplan, r geom.Rect) geom.Rect {
	names := make([]string, 0, len(fp.Blocks))
	for n := range fp.Blocks {
		names = append(names, n)
	}
	sort.Strings(names)
	for iter := 0; iter < 8; iter++ {
		moved := false
		for _, n := range names {
			p := fp.Blocks[n]
			ov, ok := r.Intersect(p.Rect)
			if !ok {
				continue
			}
			// Push along the smaller-overlap axis.
			if ov.W() < ov.H() {
				if r.Center().X < p.Rect.Center().X {
					r = r.Translate(geom.Point{X: -(ov.W() + 0.5)})
				} else {
					r = r.Translate(geom.Point{X: ov.W() + 0.5})
				}
			} else {
				if r.Center().Y < p.Rect.Center().Y {
					r = r.Translate(geom.Point{Y: -(ov.H() + 0.5)})
				} else {
					r = r.Translate(geom.Point{Y: ov.H() + 0.5})
				}
			}
			moved = true
		}
		if !moved {
			break
		}
	}
	return r
}

// AssignPorts creates Width ports on each side of every bundle, spread along
// the block edge facing the partner, and returns the chip-level net list
// (one entry per wire). Blocks must already have outlines matching the
// floorplan (the flow sets Outline from fp before calling). A bundle side
// whose block is absent from blocks (block-level experiments implement one
// block against virtual partners) gets port index -1 in the chip nets; both
// placements must still exist in the floorplan so geometry is defined.
func AssignPorts(blocks map[string]*netlist.Block, fp *Floorplan, bundles []Bundle) ([]ChipNet, error) {
	var nets []ChipNet
	for _, bu := range bundles {
		ba := blocks[bu.A]
		bb := blocks[bu.B]
		if ba == nil && bb == nil {
			continue
		}
		pa, err := fp.Find(bu.A)
		if err != nil {
			return nil, err
		}
		pb, err := fp.Find(bu.B)
		if err != nil {
			return nil, err
		}
		ptsA := edgePoints(pa.Rect, pb.Rect.Center(), bu.Width)
		ptsB := edgePoints(pb.Rect, pa.Rect.Center(), bu.Width)
		for w := 0; w < bu.Width; w++ {
			ia, ib := int32(-1), int32(-1)
			if ba != nil {
				ia = ba.AddPort(netlist.Port{
					Name:  fmt.Sprintf("%s_w%d", bu.Name(), w),
					Dir:   netlist.Out,
					Pos:   ptsA[w].Sub(pa.Rect.Lo), // block-local coordinates
					Die:   portDie(pa),
					CapfF: 4,
				})
			}
			if bb != nil {
				ib = bb.AddPort(netlist.Port{
					Name:  fmt.Sprintf("%s_w%d", bu.Name(), w),
					Dir:   netlist.In,
					Pos:   ptsB[w].Sub(pb.Rect.Lo),
					Die:   portDie(pb),
					CapfF: 4,
				})
			}
			nets = append(nets, ChipNet{
				Bundle: bu.Name(), Activity: bu.Activity,
				A: PortRef{Block: bu.A, Port: ia}, B: PortRef{Block: bu.B, Port: ib},
			})
		}
	}
	return nets, nil
}

func portDie(p *Placed) netlist.Die {
	if p.Both {
		return netlist.DieBottom
	}
	return p.Die
}

// PortRef identifies one block port at chip level.
type PortRef struct {
	Block string
	Port  int32
}

// ChipNet is one inter-block wire.
type ChipNet struct {
	Bundle   string
	Activity float64
	A, B     PortRef
	// RouteLen, WireCapfF and Crossings are filled by chip-level extraction
	// in the flow.
	RouteLen  float64
	WireCapfF float64
	Crossings int
}

// edgePoints returns n points spread along the edge of rect facing toward,
// sorted for deterministic pairing.
func edgePoints(rect geom.Rect, toward geom.Point, n int) []geom.Point {
	c := rect.Center()
	dx, dy := toward.X-c.X, toward.Y-c.Y
	pts := make([]geom.Point, n)
	if math.Abs(dx) >= math.Abs(dy) {
		// Left or right edge.
		x := rect.Hi.X
		if dx < 0 {
			x = rect.Lo.X
		}
		for i := 0; i < n; i++ {
			t := (float64(i) + 0.5) / float64(n)
			pts[i] = geom.Point{X: x, Y: rect.Lo.Y + t*rect.H()}
		}
	} else {
		y := rect.Hi.Y
		if dy < 0 {
			y = rect.Lo.Y
		}
		for i := 0; i < n; i++ {
			t := (float64(i) + 0.5) / float64(n)
			pts[i] = geom.Point{X: rect.Lo.X + t*rect.W(), Y: y}
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X < pts[j].X {
			return true
		}
		if pts[i].X > pts[j].X {
			return false
		}
		return pts[i].Y < pts[j].Y
	})
	return pts
}
