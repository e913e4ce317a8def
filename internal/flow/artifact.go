package flow

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"fold3d/internal/cts"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/power"
	"fold3d/internal/sta"
	"fold3d/internal/tech"
)

// CloneArtifact deep-copies the result: the block via netlist.Clone, the
// timing report via cloneTiming, the CTS result by value. Nothing mutable is
// shared with the receiver. A *BlockResult is the cacheable artifact of one
// block implementation; a restored one is byte-identical to recomputation
// (TestCacheEquivalence pins this down), so the cache is free to substitute
// it anywhere.
func (r *BlockResult) CloneArtifact() pipeline.Artifact {
	c := *r
	c.Block = r.Block.Clone()
	c.Timing = cloneTiming(r.Timing)
	if r.CTS != nil {
		v := *r.CTS
		c.CTS = &v
	}
	return &c
}

// cloneTiming deep-copies a timing report (nil stays nil).
func cloneTiming(t *sta.Report) *sta.Report {
	if t == nil {
		return nil
	}
	c := *t
	c.CellSlack = append([]float64(nil), t.CellSlack...)
	c.NetSlack = append([]float64(nil), t.NetSlack...)
	c.ArrOut = append([]float64(nil), t.ArrOut...)
	return &c
}

// ApproxBytes reports the result's rough in-memory footprint for the
// cache's MaxBytes budget (pipeline.Sizer). Dominated by the netlist; the
// per-element constants are struct sizes rounded up to cover the slice
// headers, sink slices and name strings hanging off each record.
func (r *BlockResult) ApproxBytes() int64 {
	var n int64
	if b := r.Block; b != nil {
		const (
			cellBytes  = 128 // Instance + name string + sink refs amortized
			netBytes   = 160 // Net + sinks slice + name
			macroBytes = 96
			portBytes  = 64
		)
		n += int64(len(b.Cells))*cellBytes +
			int64(len(b.Nets))*netBytes +
			int64(len(b.Macros))*macroBytes +
			int64(len(b.Ports))*portBytes +
			int64(len(b.TSVPads))*32
	}
	if r.Timing != nil {
		n += int64(len(r.Timing.CellSlack)+len(r.Timing.NetSlack)+len(r.Timing.ArrOut)) * 8
	}
	return n + 1024
}

// reinternMasters rewrites every cell's Master pointer to the canonical
// *tech.Cell of lib, looked up by (family, drive, Vth) identity. Artifacts
// captured under one design database (or decoded from disk) would otherwise
// carry master pointers from a foreign library instance; the flow relies on
// master pointer identity within one design. A master missing from lib
// means the artifact belongs to an incompatible library generation.
func reinternMasters(b *netlist.Block, lib *tech.Library) error {
	for i := range b.Cells {
		m := b.Cells[i].Master
		c, err := lib.Cell(m.Fam, m.Drive, m.Vth)
		if err != nil {
			return fmt.Errorf("flow: cached block %s: %v", b.Name, err)
		}
		b.Cells[i].Master = c
	}
	return nil
}

// Wire forms for the gob disk codec. Instance.Master is a pointer into the
// shared cell library; on the wire it becomes the (family, drive, Vth) key
// and the decoder re-interns it against the live library. Everything else
// is exported value data and gob-encodes directly. The wire names Reps and
// Swapped carry BlockResult's RepeatersInserted and HVTSwapped; they stay
// as they are so entries already on disk and on peers still decode.
type wireInstance struct {
	Name       string
	Fam        int
	Drive      int
	Vth        int
	Pos        geom.Point
	Die        netlist.Die
	Fixed      bool
	Group      string
	IsClockBuf bool
	Activity   float64
}

type wireBlock struct {
	Name          string
	Clock         tech.ClockDomain
	Cells         []wireInstance
	Macros        []netlist.MacroInst
	Ports         []netlist.Port
	Nets          []netlist.Net
	Outline       [2]geom.Rect
	Is3D          bool
	NumTSV        int
	NumF2F        int
	TSVPads       []geom.Rect
	MaxRouteLayer int
}

type wireArtifact struct {
	Block   wireBlock
	Stats   netlist.Stats
	Power   power.Report
	Timing  *sta.Report
	CTS     *cts.Result
	Reps    int
	Swapped int
}

// blockCodecVersion versions the wire layout above; bump on any field
// change so older spill files miss cleanly instead of mis-decoding.
const blockCodecVersion = 1

// blockCodec returns the disk codec for block artifacts, bound to the
// flow's library for master re-interning on decode.
func (f *Flow) blockCodec() *pipeline.Codec {
	lib := f.D.Lib
	return &pipeline.Codec{
		Kind:    "block",
		Version: blockCodecVersion,
		Encode: func(a pipeline.Artifact) ([]byte, error) {
			art, ok := a.(*BlockResult)
			if !ok {
				return nil, fmt.Errorf("flow: encoding %T, want *flow.BlockResult", a)
			}
			b := art.Block
			w := wireArtifact{
				Block: wireBlock{
					Name:          b.Name,
					Clock:         b.Clock,
					Cells:         make([]wireInstance, len(b.Cells)),
					Macros:        b.Macros,
					Ports:         b.Ports,
					Nets:          b.Nets,
					Outline:       b.Outline,
					Is3D:          b.Is3D,
					NumTSV:        b.NumTSV,
					NumF2F:        b.NumF2F,
					TSVPads:       b.TSVPads,
					MaxRouteLayer: b.MaxRouteLayer,
				},
				Stats:   art.Stats,
				Power:   art.Power,
				Timing:  art.Timing,
				CTS:     art.CTS,
				Reps:    art.RepeatersInserted,
				Swapped: art.HVTSwapped,
			}
			for i := range b.Cells {
				c := &b.Cells[i]
				w.Block.Cells[i] = wireInstance{
					Name:       c.Name,
					Fam:        int(c.Master.Fam),
					Drive:      c.Master.Drive,
					Vth:        int(c.Master.Vth),
					Pos:        c.Pos,
					Die:        c.Die,
					Fixed:      c.Fixed,
					Group:      c.Group,
					IsClockBuf: c.IsClockBuf,
					Activity:   c.Activity,
				}
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(data []byte) (pipeline.Artifact, error) {
			var w wireArtifact
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
				return nil, err
			}
			b := &netlist.Block{
				Name:          w.Block.Name,
				Clock:         w.Block.Clock,
				Cells:         make([]netlist.Instance, len(w.Block.Cells)),
				Macros:        w.Block.Macros,
				Ports:         w.Block.Ports,
				Nets:          w.Block.Nets,
				Outline:       w.Block.Outline,
				Is3D:          w.Block.Is3D,
				NumTSV:        w.Block.NumTSV,
				NumF2F:        w.Block.NumF2F,
				TSVPads:       w.Block.TSVPads,
				MaxRouteLayer: w.Block.MaxRouteLayer,
			}
			for i := range w.Block.Cells {
				c := &w.Block.Cells[i]
				master, err := lib.Cell(tech.Family(c.Fam), c.Drive, tech.VthClass(c.Vth))
				if err != nil {
					return nil, err
				}
				b.Cells[i] = netlist.Instance{
					Name:       c.Name,
					Master:     master,
					Pos:        c.Pos,
					Die:        c.Die,
					Fixed:      c.Fixed,
					Group:      c.Group,
					IsClockBuf: c.IsClockBuf,
					Activity:   c.Activity,
				}
			}
			return &BlockResult{
				Block:             b,
				Stats:             w.Stats,
				Power:             w.Power,
				Timing:            w.Timing,
				CTS:               w.CTS,
				RepeatersInserted: w.Reps,
				HVTSwapped:        w.Swapped,
			}, nil
		},
	}
}

// artifactSpec wires the block result into the pipeline executor as its
// cached artifact: capture hands the live result to the cache (which
// deep-clones it), restore re-interns masters against this design's library
// and installs the cached implementation into the live block — the caller's
// block pointer stays valid (content replacement, like the rest of the flow
// mutates blocks in place).
func (st *implState) artifactSpec() *pipeline.ArtifactSpec {
	return &pipeline.ArtifactSpec{
		Codec:   st.f.blockCodec(),
		Capture: func() (pipeline.Artifact, error) { return st.res, nil },
		Restore: func(a pipeline.Artifact) error {
			res, ok := a.(*BlockResult)
			if !ok {
				return fmt.Errorf("flow: cache returned %T, want *flow.BlockResult", a)
			}
			if err := reinternMasters(res.Block, st.f.D.Lib); err != nil {
				return err
			}
			*st.b = *res.Block
			res.Block = st.b
			st.res = res
			return nil
		},
	}
}
