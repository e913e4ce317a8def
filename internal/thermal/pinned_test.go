package thermal

import "testing"

// TestSolvePinned pins the engine's exact output and work: for every
// synthetic style, the Result fingerprint and relaxation count of a full
// Solve, and on the two-die styles those of a Resolve after a TSV and power
// edit batch. The property tests bound the answers by tolerance; this one
// catches any change to the float operation order of the V-cycle, the
// smoother or the residual stencil.
func TestSolvePinned(t *testing.T) {
	want := map[string]struct {
		solve, resolve     string
		solveRx, resolveRx int64
	}{
		"2D":         {"ea15f92de3478793d8f31d74cad0939e95d1eafc19925495dd179736124b9884", "", 15540, 0},
		"fold-F2B":   {"094fde2173f9b53945428569e3a71cb5e27a1bc6dfd6b6ce11a304d739ab4f9a", "efe21012897eb16c443b1ca25df0418af77b631e701a8c6d85d3e9d430b5d7a6", 37296, 51736},
		"fold-F2F":   {"ebeae1ec11a787aa45293c48e40adef2422d207b6b4270d0982dd31b859aed85", "65a7e8dccad768e112bd2e38c4e9970566bc942009eea3d9250f1f75f84c5bb1", 37296, 51736},
		"core-cache": {"96d61b22ace65202012d6720db526d6883d283cd1c8b0f41db0db1dd0ab49c45", "3838e6e5c757894a32f4c54aa267ef1cfa13381088c0117689b8989cf4b5e4d2", 76832, 108900},
		"core-core":  {"ae0145fa9325c0f7f511393724f0436440f750de0b980c7c000a1aacfb900d8c", "84607b982ea9971025e3baa867534159d19711135b75e124d968e5afe76cb63d", 86576, 118328},
	}
	p := DefaultParams()
	for _, c := range synthStyles {
		t.Run(c.name, func(t *testing.T) {
			w := want[c.name]
			pw, vertK := buildSynth(c, 5, p)
			e := NewEngine()
			loadSynth(t, e, c, pw, vertK, p)
			res, err := e.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if got, rx := string(res.Fingerprint()), e.Relaxations(); got != w.solve || rx != w.solveRx {
				t.Errorf("Solve = %s after %d relaxations, want %s after %d", got, rx, w.solve, w.solveRx)
			}
			if c.dies != 2 {
				return
			}
			cx, cy := c.nx/3, c.ny/2
			e.AddVertKAt(cx, cy, 2.4e-5*30)
			e.AddVertKAt(cx+1, cy+2, 2.4e-5*30)
			e.AddPower(1, cx+2, cy-1, 0.002)
			e.AddPower(0, cx, cy+1, 0.001)
			res, err = e.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if got, rx := string(res.Fingerprint()), e.Relaxations(); got != w.resolve || rx != w.resolveRx {
				t.Errorf("Resolve = %s after %d relaxations, want %s after %d", got, rx, w.resolve, w.resolveRx)
			}
		})
	}
}
