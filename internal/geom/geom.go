// Package geom provides the geometric primitives used throughout fold3d:
// points, rectangles, grids, and wirelength estimators. All coordinates are
// in microns unless stated otherwise.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2D location in microns.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ManhattanDist returns the L1 distance between p and q, the natural metric
// for routed wirelength on a Manhattan routing grid.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String formats the point as (x,y) in µm.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [Lo.X,Hi.X) x [Lo.Y,Hi.Y).
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from any two corner points.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// RectWH builds a rectangle from its lower-left corner and width/height.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r in µm².
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (half-open on the high edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsRect reports whether s lies fully inside r (closed comparison).
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X && s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Overlaps reports whether r and s share any interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X && r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// Intersect returns the intersection of r and s; the second result is false
// if they do not overlap.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	lo := Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)}
	hi := Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)}
	if lo.X >= hi.X || lo.Y >= hi.Y {
		return Rect{}, false
	}
	return Rect{lo, hi}, true
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// Expand returns r grown by d on all four sides (shrunk if d < 0).
func (r Rect) Expand(d float64) Rect {
	return Rect{Point{r.Lo.X - d, r.Lo.Y - d}, Point{r.Hi.X + d, r.Hi.Y + d}}
}

// Translate returns r moved by dp.
func (r Rect) Translate(dp Point) Rect {
	return Rect{r.Lo.Add(dp), r.Hi.Add(dp)}
}

// String formats the rectangle as [lo hi].
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

// BoundingBox returns the bounding box of pts. It panics on an empty slice.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		//lint:ignore apiguard empty input is a documented precondition violation, not a recoverable condition
		panic("geom: BoundingBox of empty point set")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r
}

// HPWL returns the half-perimeter wirelength of the points, the standard
// placement estimator for the routed length of a single net.
func HPWL(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	bb := BoundingBox(pts)
	return bb.W() + bb.H()
}

// SteinerWL estimates routed wirelength with the FLUTE-style correction
// factor applied to HPWL: multi-pin nets route longer than their bounding
// box half-perimeter. The factor follows the common empirical model
// HPWL * (1 + 0.28*ln(n/2)) for n > 3 pins (Chu's RSMT/HPWL ratio fit).
func SteinerWL(pts []Point) float64 {
	n := len(pts)
	h := HPWL(pts)
	if n <= 3 {
		return h
	}
	return h * (1 + 0.28*math.Log(float64(n)/2))
}
