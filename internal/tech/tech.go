// Package tech models the 28nm-class process technology the paper's flow is
// built on: a nine-layer metal stack, a standard-cell library with RVT and
// HVT variants, SRAM memory macros, and the 3D interconnect elements (TSVs
// for face-to-back bonding, F2F vias for face-to-face bonding) with the
// electrical values from the paper's Table 1.
//
// Units: distance µm, resistance Ω, capacitance fF, time ps, power mW
// (leakage stored in nW per cell), energy fJ, voltage V.
package tech

import (
	"fmt"
	"math"
)

// Vdd is the nominal supply voltage of the 28nm process.
const Vdd = 0.9

// CellHeight is the standard-cell row height in µm (9-track library).
const CellHeight = 1.2

// LongWireCellHeights is the paper's long-wire definition: wires longer than
// 100x the standard cell height count as long wires (Table 3).
const LongWireCellHeights = 100

// MetalLayer describes one routing layer of the stack.
type MetalLayer struct {
	Name     string
	Index    int     // 1-based (M1..M9)
	MinWidth float64 // µm
	Pitch    float64 // µm
	ROhmUm   float64 // sheet-derived wire resistance, Ω/µm at min width
	CfFUm    float64 // wire capacitance, fF/µm
	Horiz    bool    // preferred routing direction
}

// MetalStack is the nine-layer 28nm stack. M1-M3 are 1x thin local layers,
// M4-M7 are 2x intermediate layers, M8-M9 are 4x thick global layers. The
// paper routes blocks on M1-M7 (SPC uses all nine) and reserves M8/M9 for
// over-the-block chip routing in F2B designs.
func MetalStack() []MetalLayer {
	mk := func(i int, w, p, r, c float64) MetalLayer {
		return MetalLayer{
			Name: fmt.Sprintf("M%d", i), Index: i,
			MinWidth: w, Pitch: p, ROhmUm: r, CfFUm: c,
			Horiz: i%2 == 0,
		}
	}
	return []MetalLayer{
		mk(1, 0.05, 0.10, 2.2, 0.18),
		mk(2, 0.05, 0.10, 1.8, 0.20),
		mk(3, 0.05, 0.10, 1.8, 0.20),
		mk(4, 0.10, 0.20, 0.45, 0.22),
		mk(5, 0.10, 0.20, 0.45, 0.22),
		mk(6, 0.10, 0.20, 0.45, 0.22),
		mk(7, 0.10, 0.20, 0.45, 0.22),
		mk(8, 0.25, 0.50, 0.11, 0.24),
		mk(9, 0.25, 0.50, 0.11, 0.24),
	}
}

// TSV is the through-silicon-via model for face-to-back bonding
// (paper Table 1; RC per the Katti et al. electrical model).
type TSV struct {
	Diameter float64 // µm
	Height   float64 // µm
	Pitch    float64 // µm, minimum center-to-center spacing
	ROhm     float64 // Ω
	CfF      float64 // fF
}

// F2FVia is the face-to-face via model (paper Table 1). F2F vias sit on top
// of the top metal of both dies and consume no silicon area; their size is
// about twice the minimum top-metal width.
type F2FVia struct {
	Diameter float64 // µm
	Height   float64 // µm
	Pitch    float64 // µm
	ROhm     float64 // Ω
	CfF      float64 // fF
}

// DefaultTSV returns the paper's TSV: 5µm diameter, 25µm height, 10µm pitch.
// The landing pad occupies silicon (placed at M1), so TSVs displace cells and
// cannot sit over macros.
func DefaultTSV() TSV {
	return TSV{Diameter: 5, Height: 25, Pitch: 10, ROhm: 0.047, CfF: 38.0}
}

// DefaultF2FVia returns the paper's F2F via: sub-micron, negligible RC,
// placeable anywhere including over cells and macros.
func DefaultF2FVia() F2FVia {
	return F2FVia{Diameter: 0.5, Height: 1, Pitch: 1, ROhm: 0.1, CfF: 0.25}
}

// VthClass distinguishes the threshold-voltage flavors of the library.
type VthClass int

const (
	// RVT is the regular-Vth baseline flavor.
	RVT VthClass = iota
	// HVT is the high-Vth flavor: about 30% slower, 50% lower leakage and
	// 5% lower internal (cell) power than RVT (paper §6.2).
	HVT
)

// String names the threshold-voltage class (RVT/HVT).
func (v VthClass) String() string {
	if v == HVT {
		return "HVT"
	}
	return "RVT"
}

// HVT derating factors relative to RVT (paper §6.2).
const (
	HVTDelayFactor    = 1.30
	HVTLeakageFactor  = 0.50
	HVTInternalFactor = 0.95
)

// Family identifies a logic function in the library.
type Family int

// The characterized logic families: the combinational set the generator
// instantiates, plus the DFF sequential.
const (
	INV Family = iota
	BUF
	NAND2
	NOR2
	AOI22
	XOR2
	MUX2
	DFF
	numFamilies
)

var familyNames = [...]string{"INV", "BUF", "NAND2", "NOR2", "AOI22", "XOR2", "MUX2", "DFF"}

// String names the logic family as it appears in master names.
func (f Family) String() string {
	if f < 0 || int(f) >= len(familyNames) {
		return fmt.Sprintf("Family(%d)", int(f))
	}
	return familyNames[f]
}

// IsSequential reports whether the family is a register.
func (f Family) IsSequential() bool { return f == DFF }

// NumInputs returns the number of signal input pins of the family
// (for DFF this is the D pin; the clock pin is accounted separately).
func (f Family) NumInputs() int {
	switch f {
	case INV, BUF, DFF:
		return 1
	case NAND2, NOR2, XOR2:
		return 2
	case MUX2:
		return 3
	case AOI22:
		return 4
	}
	return 0
}

// Drives enumerates the drive strengths available for every family.
var Drives = []int{1, 2, 4, 8, 16}

// maxDrive bounds the dense master index in Library.
const maxDrive = 16

// Cell is one library cell: a (family, drive, vth) master with its physical
// and electrical characterization.
type Cell struct {
	Name    string
	Fam     Family
	Drive   int
	Vth     VthClass
	Width   float64 // µm (height is CellHeight)
	InCapfF float64 // input capacitance per signal pin, fF
	ClkCap  float64 // clock-pin capacitance, fF (sequential only)
	DriveR  float64 // equivalent output drive resistance, Ω
	Intr    float64 // intrinsic delay, ps
	LeaknW  float64 // leakage power, nW
	IntCap  float64 // internal switching capacitance, fF (cell power model)
	Setup   float64 // setup time, ps (sequential only)
	ClkQ    float64 // clock-to-Q delay, ps (sequential only)
}

// Area returns the footprint of the cell in µm².
func (c *Cell) Area() float64 { return c.Width * CellHeight }

// familyBase holds the X1 RVT characterization that the generator scales.
type familyBase struct {
	width  float64 // µm
	inCap  float64 // fF per input pin
	driveR float64 // Ω
	intr   float64 // ps
	leak   float64 // nW
	intCap float64 // fF
}

var familyBases = map[Family]familyBase{
	INV:   {width: 0.40, inCap: 0.9, driveR: 5200, intr: 8, leak: 140, intCap: 2.0},
	BUF:   {width: 0.60, inCap: 0.9, driveR: 5000, intr: 16, leak: 220, intCap: 3.6},
	NAND2: {width: 0.60, inCap: 1.0, driveR: 6500, intr: 12, leak: 200, intCap: 3.2},
	NOR2:  {width: 0.60, inCap: 1.1, driveR: 7500, intr: 14, leak: 200, intCap: 3.2},
	AOI22: {width: 1.00, inCap: 1.1, driveR: 8000, intr: 20, leak: 340, intCap: 5.2},
	XOR2:  {width: 1.20, inCap: 1.3, driveR: 7000, intr: 24, leak: 400, intCap: 6.4},
	MUX2:  {width: 1.10, inCap: 1.1, driveR: 6800, intr: 22, leak: 360, intCap: 5.6},
	DFF:   {width: 2.40, inCap: 1.0, driveR: 6000, intr: 0, leak: 800, intCap: 12.8},
}

// Library is the set of characterized cells plus macro and 3D interconnect
// models. Build one with NewLibrary.
type Library struct {
	cells map[string]*Cell
	// byKey is a dense (family, drive, vth) index: the optimizer resolves
	// masters in its inner resize loops, and an array probe is far cheaper
	// than hashing a struct key. Uncharacterized slots stay nil.
	byKey   [numFamilies][maxDrive + 1][2]*Cell
	Metal   []MetalLayer
	TSV     TSV
	F2F     F2FVia
	MacroKB MacroModel
}

// NewLibrary characterizes the full 28nm-class library: every family at
// every drive in both Vth flavors, the nine-metal stack, the Table-1 3D
// interconnects, and the 16KB SRAM macro model.
func NewLibrary() *Library {
	lib := &Library{
		cells:   make(map[string]*Cell),
		Metal:   MetalStack(),
		TSV:     DefaultTSV(),
		F2F:     DefaultF2FVia(),
		MacroKB: DefaultMacroModel(),
	}
	for fam := Family(0); fam < numFamilies; fam++ {
		base := familyBases[fam]
		for _, d := range Drives {
			for _, vth := range []VthClass{RVT, HVT} {
				x := float64(d)
				c := &Cell{
					Fam:   fam,
					Drive: d,
					Vth:   vth,
					// Width grows sub-linearly: shared diffusion and fixed
					// pin overhead amortize at larger drives.
					Width:   base.width * math.Pow(x, 0.85),
					InCapfF: base.inCap * (0.55 + 0.45*x),
					DriveR:  base.driveR / x,
					Intr:    base.intr,
					LeaknW:  base.leak * x,
					IntCap:  base.intCap * (0.4 + 0.6*x),
				}
				if fam == DFF {
					c.ClkCap = 0.8 * (0.7 + 0.3*x)
					c.Setup = 28
					c.ClkQ = 55
				}
				if vth == HVT {
					c.DriveR *= HVTDelayFactor
					c.Intr *= HVTDelayFactor
					c.ClkQ *= HVTDelayFactor
					c.LeaknW *= HVTLeakageFactor
					c.IntCap *= HVTInternalFactor
				}
				c.Name = fmt.Sprintf("%s_X%d_%s", fam, d, vth)
				lib.cells[c.Name] = c
				lib.byKey[fam][d][vth] = c
			}
		}
	}
	return lib
}

// Cell returns the master for (family, drive, vth). It returns an error for
// an uncharacterized drive strength.
func (l *Library) Cell(fam Family, drive int, vth VthClass) (*Cell, error) {
	if fam < 0 || fam >= numFamilies || drive < 0 || drive > maxDrive || vth < 0 || vth > HVT {
		return nil, fmt.Errorf("tech: no cell %s_X%d_%s in library", fam, drive, vth)
	}
	c := l.byKey[fam][drive][vth]
	if c == nil {
		return nil, fmt.Errorf("tech: no cell %s_X%d_%s in library", fam, drive, vth)
	}
	return c, nil
}

// MustCell is Cell but panics on a missing master; use for known-valid keys.
func (l *Library) MustCell(fam Family, drive int, vth VthClass) *Cell {
	c, err := l.Cell(fam, drive, vth)
	if err != nil {
		panic(err)
	}
	return c
}

// ByName returns the master with the given library name.
func (l *Library) ByName(name string) (*Cell, error) {
	c, ok := l.cells[name]
	if !ok {
		return nil, fmt.Errorf("tech: unknown cell %q", name)
	}
	return c, nil
}

// Resize returns the master identical to c but with the given drive.
func (l *Library) Resize(c *Cell, drive int) (*Cell, error) {
	return l.Cell(c.Fam, drive, c.Vth)
}

// SwapVth returns the master identical to c but in the given Vth flavor.
func (l *Library) SwapVth(c *Cell, vth VthClass) (*Cell, error) {
	return l.Cell(c.Fam, c.Drive, vth)
}

// NextDriveUp returns the next larger drive, or 0 if c is already maximal.
func NextDriveUp(d int) int {
	for _, x := range Drives {
		if x > d {
			return x
		}
	}
	return 0
}

// NextDriveDown returns the next smaller drive, or 0 if c is already minimal.
func NextDriveDown(d int) int {
	for i := len(Drives) - 1; i >= 0; i-- {
		if Drives[i] < d {
			return Drives[i]
		}
	}
	return 0
}

// Layer returns the metal layer with 1-based index i.
func (l *Library) Layer(i int) (MetalLayer, error) {
	if i < 1 || i > len(l.Metal) {
		return MetalLayer{}, fmt.Errorf("tech: metal layer M%d out of range", i)
	}
	return l.Metal[i-1], nil
}

// LongWireThreshold returns the paper's long-wire length threshold in µm:
// 100x the standard cell height.
func LongWireThreshold() float64 { return LongWireCellHeights * CellHeight }

// MacroModel characterizes the 16KB SRAM memory macro used by the L2 cache
// data banks (32 instances per L2D block in the paper's implementation) and
// other memory-bearing blocks.
type MacroModel struct {
	Name     string
	Width    float64 // µm
	Height   float64 // µm
	Bits     int
	InCapfF  float64 // per data/address pin
	NumPins  int     // signal pins exposed to the block netlist
	AccessPS float64 // access time, ps
	SetupPS  float64 // input setup, ps
	LeakmW   float64 // leakage, mW
	// ReadEnergy is the dynamic energy of one access, fJ; converted to power
	// with the access activity by the power engine.
	ReadEnergyFJ float64
}

// Area returns the macro footprint in µm².
func (m MacroModel) Area() float64 { return m.Width * m.Height }

// DefaultMacroModel returns the 16KB SRAM macro: 128Kbit, roughly
// 115µm x 62µm at 28nm-class density, with access time compatible with the
// 500MHz CPU clock after some margin.
func DefaultMacroModel() MacroModel {
	return MacroModel{
		Name:         "SRAM16KB",
		Width:        115,
		Height:       62,
		Bits:         16 * 1024 * 8,
		InCapfF:      2.5,
		NumPins:      96, // address + data in/out + controls
		AccessPS:     750,
		SetupPS:      120,
		LeakmW:       0.45,
		ReadEnergyFJ: 26000, // ~26pJ per 16KB access, 28nm-class
	}
}

// ScaleModel captures the geometric scale factor between the modeled netlist
// and the physical chip. One modeled cell stands for Scale physical cells;
// layout extents shrink by sqrt(Scale); reported powers are multiplied by
// Scale to represent the full chip.
//
// Wire parasitics per drawn µm are inflated by Scale^RCExp rather than the
// geometric sqrt(Scale): the drawn netlist cannot reproduce the full Rent
// locality of a million-cell design (its nets span a larger fraction of the
// block than physical nets do), so a pure geometric inflation would
// over-weight wire cap, over-insert repeaters and over-count long wires.
// RCExp = 0.30 is calibrated so that, at the default scale, the optimal
// repeater spacing, the long-wire population and the net-power fractions of
// the drawn blocks land in the paper's Table-3 regime. All percentage
// comparisons between design styles are unaffected by the choice (every
// style shares the model); see DESIGN.md §6.
type ScaleModel struct {
	Scale float64
	RCExp float64
}

// DefaultRCExp is the calibrated wire-load inflation exponent.
const DefaultRCExp = 0.30

// NewScaleModel returns the scale model for one-modeled-cell-per-s-cells.
func NewScaleModel(s float64) (ScaleModel, error) {
	if s < 1 {
		return ScaleModel{}, fmt.Errorf("tech: scale must be >= 1, got %g", s)
	}
	return ScaleModel{Scale: s, RCExp: DefaultRCExp}, nil
}

// LinearShrink returns sqrt(Scale), the factor by which drawn distances are
// smaller than physical distances.
func (s ScaleModel) LinearShrink() float64 { return math.Sqrt(s.Scale) }

// RCInflation returns Scale^RCExp, the wire-parasitic inflation per drawn µm.
func (s ScaleModel) RCInflation() float64 {
	e := s.RCExp
	if e == 0 {
		e = DefaultRCExp
	}
	return math.Pow(s.Scale, e)
}

// WireRPerUm returns the effective wire resistance per drawn µm on layer m.
func (s ScaleModel) WireRPerUm(m MetalLayer) float64 { return m.ROhmUm * s.RCInflation() }

// WireCPerUm returns the effective wire capacitance per drawn µm on layer m.
func (s ScaleModel) WireCPerUm(m MetalLayer) float64 { return m.CfFUm * s.RCInflation() }

// LongWireThreshold returns the drawn-space long-wire threshold in µm,
// shrunk consistently with the wire-load calibration.
func (s ScaleModel) LongWireThreshold() float64 {
	return LongWireThreshold() / s.RCInflation()
}

// PowerMultiplier returns the factor converting modeled power to full-chip
// physical power.
func (s ScaleModel) PowerMultiplier() float64 { return s.Scale }

// ClockDomain names one of the two clocks of the T2.
type ClockDomain int

const (
	// CPUClock is the 500MHz core clock domain (paper target frequency).
	CPUClock ClockDomain = iota
	// IOClock is the 250MHz I/O clock domain (NIU and MAC blocks).
	IOClock
)

// String renders the clock domain with its frequency.
func (c ClockDomain) String() string {
	if c == IOClock {
		return "IO"
	}
	return "CPU"
}

// PeriodPS returns the clock period in picoseconds.
func (c ClockDomain) PeriodPS() float64 {
	if c == IOClock {
		return 4000 // 250 MHz
	}
	return 2000 // 500 MHz
}

// FreqMHz returns the clock frequency in MHz.
func (c ClockDomain) FreqMHz() float64 {
	if c == IOClock {
		return 250
	}
	return 500
}

// DynamicPowerMW converts switched capacitance to average power:
// P = 0.5 * alpha * C * Vdd^2 * f. cap in fF, f in MHz, result in mW:
// fF * V^2 * MHz = 1e-15 F * 1e6 1/s * V^2 = 1e-9 W = 1e-6 mW.
func DynamicPowerMW(capfF, activity, freqMHz float64) float64 {
	return 0.5 * activity * capfF * Vdd * Vdd * freqMHz * 1e-6
}
