package thermal

import (
	"fmt"
	"math"
	"testing"
)

// gaussSeidel runs plain Gauss-Seidel on the tile network. pw[die][i] is the
// tile power in watts (physical); tileArea is the physical tile area in m²;
// vertK[i] is the die-to-die conductance per tile (W/K); dies is 1 or 2.
// Iteration stops when the largest per-tile update falls below tol or after
// maxIter sweeps, whichever comes first.
func gaussSeidel(pw [2][]float64, nx, ny, dies int, tileAreaM2 float64, vertK []float64, p Params, tol float64, maxIter int) *Result {
	n := nx * ny
	var t [2][]float64
	for d := 0; d < dies; d++ {
		t[d] = make([]float64, n)
		for i := range t[d] {
			t[d][i] = p.AmbientC
		}
	}
	// Conductances (W/K).
	gSink := p.KSinkWPerM2K * tileAreaM2
	gBoard := p.KBoardWPerM2K * tileAreaM2
	// Lateral: k * A_cross / L = k * (edge * thickness) / edge = k * thickness.
	gLat := p.KLateralWPerMK * (p.DieThicknessUm * 1e-6)

	sinkDie := dies - 1 // the top die's backside carries the sink
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for d := 0; d < dies; d++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					i := iy*nx + ix
					var gSum, flow float64
					// Lateral neighbors.
					for _, nb := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
						jx, jy := ix+nb[0], iy+nb[1]
						if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
							continue
						}
						j := jy*nx + jx
						gSum += gLat
						flow += gLat * t[d][j]
					}
					// Vertical coupling to the other die.
					if dies == 2 {
						o := 1 - d
						gSum += vertK[i]
						flow += vertK[i] * t[o][i]
					}
					// Ambient paths.
					if d == sinkDie {
						gSum += gSink
						flow += gSink * p.AmbientC
					}
					if d == 0 {
						gSum += gBoard
						flow += gBoard * p.AmbientC
					}
					if gSum == 0 {
						continue
					}
					nt := (flow + pw[d][i]) / gSum
					if dl := math.Abs(nt - t[d][i]); dl > maxDelta {
						maxDelta = dl
					}
					t[d][i] = nt
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return summarize(t, nx, ny, dies)
}

// SolveReference solves the tile network with the original plain
// Gauss-Seidel relaxation (update tolerance 1e-4 °C, 4000-sweep cap) — the
// oracle the multigrid Engine is validated against in the solver property
// suite and the speed baseline of BenchmarkThermalSolve.
func SolveReference(pw [2][]float64, nx, ny, dies int, tileAreaM2 float64, vertK []float64, p Params) *Result {
	return gaussSeidel(pw, nx, ny, dies, tileAreaM2, vertK, p, 1e-4, 4000)
}

// SolveReferenceTol is SolveReference with caller-chosen stopping
// parameters, for equal-tolerance speed comparisons and tightened-oracle
// property tests.
func SolveReferenceTol(pw [2][]float64, nx, ny, dies int, tileAreaM2 float64, vertK []float64, p Params, tol float64, maxIter int) *Result {
	return gaussSeidel(pw, nx, ny, dies, tileAreaM2, vertK, p, tol, maxIter)
}

// thermalSolveGrids is the grid-size axis of BenchmarkThermalSolve,
// largest last.
var thermalSolveGrids = []int{24, 48, 96, 192}

// benchThermalProblem builds a deterministic two-die F2B-like synthetic
// thermal problem: random per-tile power, a uniform adhesive-bond vertical
// conductance, and TSV conductance spikes at pseudo-random tiles.
func benchThermalProblem(n int) (pw [2][]float64, vertK []float64) {
	const tileAreaM2 = 5e-8
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	tiles := n * n
	pw[0] = make([]float64, tiles)
	pw[1] = make([]float64, tiles)
	for i := 0; i < tiles; i++ {
		w := 0.012 * next()
		pw[0][i] = w * 0.6
		pw[1][i] = w * 0.4
	}
	vertK = make([]float64, tiles)
	for i := range vertK {
		vertK[i] = 9000 * tileAreaM2
	}
	for s := 0; s < n; s++ {
		i := int(next() * float64(tiles))
		if i >= tiles {
			i = tiles - 1
		}
		vertK[i] += 2.4e-5 * 30
	}
	return pw, vertK
}

// BenchmarkThermalSolve compares the multigrid engine (alg=mg) against the
// dense Gauss-Seidel reference solver (alg=gs) on the same synthetic
// two-die problem at the same 1e-4 tolerance, one sub-benchmark per grid
// size:
//
//	go test -run '^$' -bench 'BenchmarkThermalSolve/grid=192' ./internal/thermal
func BenchmarkThermalSolve(b *testing.B) {
	const tileAreaM2 = 5e-8
	p := DefaultParams()
	for _, n := range thermalSolveGrids {
		n := n
		pw, vertK := benchThermalProblem(n)
		b.Run(fmt.Sprintf("grid=%d/alg=mg", n), func(b *testing.B) {
			eng := NewEngine()
			var tmax float64
			for i := 0; i < b.N; i++ {
				if err := eng.ReinitGrid(n, n, 2, tileAreaM2, p); err != nil {
					b.Fatal(err)
				}
				for iy := 0; iy < n; iy++ {
					for ix := 0; ix < n; ix++ {
						t := iy*n + ix
						eng.AddPower(0, ix, iy, pw[0][t])
						eng.AddPower(1, ix, iy, pw[1][t])
					}
				}
				eng.SetUniformVertK(vertK[0])
				for iy := 0; iy < n; iy++ {
					for ix := 0; ix < n; ix++ {
						if dk := vertK[iy*n+ix] - vertK[0]; dk != 0 {
							eng.AddVertKAt(ix, iy, dk)
						}
					}
				}
				r, err := eng.Solve()
				if err != nil {
					b.Fatal(err)
				}
				tmax = r.TMaxC
			}
			b.ReportMetric(tmax, "tmax_C")
		})
		b.Run(fmt.Sprintf("grid=%d/alg=gs", n), func(b *testing.B) {
			var tmax float64
			for i := 0; i < b.N; i++ {
				// The reference oracle at the engine's tolerance.
				r := SolveReferenceTol(pw, n, n, 2, tileAreaM2, vertK, p, 1e-4, 4_000_000)
				tmax = r.TMaxC
			}
			b.ReportMetric(tmax, "tmax_C")
		})
	}
}
