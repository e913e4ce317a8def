package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if !almostEq(p.Dist(q), 5) {
		t.Errorf("Dist = %v, want 5", p.Dist(q))
	}
	if !almostEq(p.ManhattanDist(q), 7) {
		t.Errorf("ManhattanDist = %v, want 7", p.ManhattanDist(q))
	}
}

func TestManhattanAtLeastEuclidean(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // avoid overflow artifacts; not the property under test
			}
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.ManhattanDist(b) >= a.Dist(b)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{5, 7}) {
		t.Errorf("NewRect did not normalize: %v", r)
	}
	if !almostEq(r.W(), 4) || !almostEq(r.H(), 5) || !almostEq(r.Area(), 20) {
		t.Errorf("dims wrong: W=%v H=%v A=%v", r.W(), r.H(), r.Area())
	}
}

func TestRectWH(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{4, 6}) {
		t.Errorf("RectWH = %v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},    // low edge inclusive
		{Point{10, 10}, false}, // high edge exclusive
		{Point{-1, 5}, false},
		{Point{5, 11}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectOverlapsAndIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	c := NewRect(10, 10, 20, 20) // touches at corner: no interior overlap
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("touching rects must not count as overlapping")
	}
	iv, ok := a.Intersect(b)
	if !ok || iv != NewRect(5, 5, 10, 10) {
		t.Errorf("Intersect = %v, %v", iv, ok)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("corner touch must not intersect")
	}
}

func TestIntersectCommutative(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 float64) bool {
		for _, v := range []float64{x0, y0, x1, y1, x2, y2, x3, y3} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := NewRect(x0, y0, x1, y1)
		b := NewRect(x2, y2, x3, y3)
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		return ok1 == ok2 && (!ok1 || i1 == i2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(5, 5, 7, 9)
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Errorf("union %v does not contain inputs", u)
	}
}

func TestExpandTranslate(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	e := r.Expand(2)
	if e != NewRect(-2, -2, 12, 12) {
		t.Errorf("Expand = %v", e)
	}
	tr := r.Translate(Point{1, -1})
	if tr != NewRect(1, -1, 11, 9) {
		t.Errorf("Translate = %v", tr)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{3, 1}, {-1, 4}, {2, 2}}
	bb := BoundingBox(pts)
	if bb != NewRect(-1, 1, 3, 4) {
		t.Errorf("BoundingBox = %v", bb)
	}
}

func TestBoundingBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty point set")
		}
	}()
	BoundingBox(nil)
}

func TestHPWL(t *testing.T) {
	if got := HPWL([]Point{{0, 0}}); got != 0 {
		t.Errorf("single-pin HPWL = %v", got)
	}
	if got := HPWL([]Point{{0, 0}, {3, 4}}); !almostEq(got, 7) {
		t.Errorf("HPWL = %v, want 7", got)
	}
	// Adding a point inside the bbox does not change HPWL.
	if got := HPWL([]Point{{0, 0}, {3, 4}, {1, 1}}); !almostEq(got, 7) {
		t.Errorf("HPWL with interior point = %v, want 7", got)
	}
}

func TestSteinerAtLeastHPWL(t *testing.T) {
	f := func(raw []struct{ X, Y float64 }) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]Point, 0, len(raw))
		for _, r := range raw {
			if math.IsNaN(r.X) || math.IsInf(r.X, 0) || math.IsNaN(r.Y) || math.IsInf(r.Y, 0) {
				return true
			}
			pts = append(pts, Point{r.X, r.Y})
		}
		return SteinerWL(pts) >= HPWL(pts)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSteinerEqualsHPWLForSmallNets(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {5, 5}}
	if SteinerWL(pts) != HPWL(pts) {
		t.Error("3-pin nets should use plain HPWL")
	}
	pts = append(pts, Point{2, 8})
	if SteinerWL(pts) <= HPWL(pts) {
		t.Error("4-pin nets should exceed HPWL")
	}
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(NewRect(0, 0, 10, 20), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := g.BinSize()
	if !almostEq(dx, 2) || !almostEq(dy, 5) {
		t.Errorf("BinSize = %v, %v", dx, dy)
	}
	if g.NumBins() != 20 {
		t.Errorf("NumBins = %d", g.NumBins())
	}
	ix, iy := g.BinAt(Point{9.9, 19.9})
	if ix != 4 || iy != 3 {
		t.Errorf("BinAt top corner = %d,%d", ix, iy)
	}
	// Out-of-region points clamp.
	ix, iy = g.BinAt(Point{-5, 100})
	if ix != 0 || iy != 3 {
		t.Errorf("BinAt clamped = %d,%d", ix, iy)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g, _ := NewGrid(NewRect(0, 0, 10, 10), 7, 3)
	for i := 0; i < g.NumBins(); i++ {
		ix, iy := g.Coords(i)
		if g.Index(ix, iy) != i {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(NewRect(0, 0, 10, 10), 0, 5); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := NewGrid(NewRect(0, 0, 0, 10), 5, 5); err == nil {
		t.Error("expected error for empty region")
	}
}

func TestOverlapBinsConservesArea(t *testing.T) {
	g, _ := NewGrid(NewRect(0, 0, 10, 10), 4, 4)
	r := NewRect(1.3, 2.1, 7.9, 8.4)
	var sum float64
	g.OverlapBins(r, func(ix, iy int, area float64) {
		if area <= 0 {
			t.Errorf("bin (%d,%d) got non-positive area %v", ix, iy, area)
		}
		sum += area
	})
	if !almostEq(sum, r.Area()) {
		t.Errorf("overlap area %v != rect area %v", sum, r.Area())
	}
}

func TestOverlapBinsOutsideRegion(t *testing.T) {
	g, _ := NewGrid(NewRect(0, 0, 10, 10), 4, 4)
	called := false
	g.OverlapBins(NewRect(20, 20, 30, 30), func(ix, iy int, area float64) { called = true })
	if called {
		t.Error("rect outside region must not visit bins")
	}
}

func TestOverlapBinsExactBoundary(t *testing.T) {
	g, _ := NewGrid(NewRect(0, 0, 10, 10), 5, 5)
	// Rect ends exactly on bin boundaries; must not spill beyond.
	var sum float64
	g.OverlapBins(NewRect(2, 2, 6, 6), func(ix, iy int, area float64) {
		if ix < 1 || ix > 2 || iy < 1 || iy > 2 {
			t.Errorf("unexpected bin (%d,%d)", ix, iy)
		}
		sum += area
	})
	if !almostEq(sum, 16) {
		t.Errorf("area = %v, want 16", sum)
	}
}
