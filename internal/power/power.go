// Package power computes the power report of a block or chip in the paper's
// decomposition: total = cell (internal) + net (wire + pin) + leakage. The
// net power of a driving cell is the switching power of its wire capacitance
// plus the input-pin capacitance of the loading side — so downsizing cells
// under positive slack reduces both cell power and the pin component of net
// power, which is exactly the mechanism behind the paper's Table 2
// discussion. All numbers are reported at full-chip magnitude (the scale
// model's multiplier is applied).
package power

import (
	"fmt"

	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

// Report is the power breakdown in mW.
type Report struct {
	TotalMW   float64
	CellMW    float64 // internal switching power of cells and macros
	NetMW     float64 // wire + pin switching power
	WireMW    float64 // wire component of net power
	PinMW     float64 // pin component of net power
	LeakageMW float64 // cell + macro leakage
	ClockMW   float64 // portion of the above driven by clock nets/buffers
}

// Add accumulates o into r (for chip-level totals over blocks).
func (r *Report) Add(o Report) {
	r.TotalMW += o.TotalMW
	r.CellMW += o.CellMW
	r.NetMW += o.NetMW
	r.WireMW += o.WireMW
	r.PinMW += o.PinMW
	r.LeakageMW += o.LeakageMW
	r.ClockMW += o.ClockMW
}

// String renders the power breakdown in mW.
func (r Report) String() string {
	return fmt.Sprintf("total %.3f mW (cell %.3f, net %.3f [wire %.3f pin %.3f], leak %.3f, clock %.3f)",
		r.TotalMW, r.CellMW, r.NetMW, r.WireMW, r.PinMW, r.LeakageMW, r.ClockMW)
}

// DefaultActivity is the switching activity assumed for signal nets without
// an annotated activity.
const DefaultActivity = 0.15

// Analyze computes the power report of b under the given scale model.
// Extraction must have run (nets need WireCapfF).
func Analyze(b *netlist.Block, scale tech.ScaleModel) Report {
	freq := b.Clock.FreqMHz()
	var r Report

	// Cell internal power and leakage.
	for i := range b.Cells {
		c := &b.Cells[i]
		act := c.Activity
		if act == 0 {
			act = DefaultActivity
		}
		if c.IsClockBuf {
			act = 2
		}
		if c.Master.Fam.IsSequential() && act < 1 {
			// The register's internal clock network toggles every cycle.
			act = 1
		}
		p := tech.DynamicPowerMW(c.Master.IntCap, act, freq)
		r.CellMW += p
		if c.IsClockBuf {
			r.ClockMW += p
		}
		leak := c.Master.LeaknW * 1e-6 // nW -> mW
		r.LeakageMW += leak
	}
	// Macro internal power (access energy) and leakage.
	for i := range b.Macros {
		m := &b.Macros[i]
		act := m.Activity
		if act == 0 {
			act = 0.5 // memories are accessed about every other cycle
		}
		// ReadEnergy fJ at act accesses/cycle: fJ * MHz = 1e-15 J * 1e6/s
		// = 1e-9 W = 1e-6 mW.
		r.CellMW += m.Model.ReadEnergyFJ * act * freq * 1e-6
		r.LeakageMW += m.Model.LeakmW
	}
	// Net power: wire and pin components.
	for i := range b.Nets {
		n := &b.Nets[i]
		act := n.Activity
		if act == 0 {
			if n.Kind == netlist.Clock {
				act = 2
			} else {
				act = DefaultActivity
			}
		}
		var pins float64
		for _, s := range n.Sinks {
			pins += b.PinCap(s)
		}
		wire := tech.DynamicPowerMW(n.WireCapfF, act, freq)
		pin := tech.DynamicPowerMW(pins, act, freq)
		r.WireMW += wire
		r.PinMW += pin
		if n.Kind == netlist.Clock {
			r.ClockMW += wire + pin
		}
	}
	r.NetMW = r.WireMW + r.PinMW
	r.TotalMW = r.CellMW + r.NetMW + r.LeakageMW

	m := scale.PowerMultiplier()
	r.TotalMW *= m
	r.CellMW *= m
	r.NetMW *= m
	r.WireMW *= m
	r.PinMW *= m
	r.LeakageMW *= m
	r.ClockMW *= m
	return r
}
